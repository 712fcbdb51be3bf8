"""Markov chain induced on the state space by a memoryless source.

Everything here is exact rational arithmetic. The per-step distortion rate
is the stationary expectation of the arc increments. Each linear system
(a closed class's balance equations, or the absorption equations shared by
all closed classes) is built in integers over the lcm of its rows'
denominators and factored once as a dense LU modulo a word-size prime; the
solution is lifted p-adically (Dixon 1982), one modular triangular solve and
one exact integer residual update per lift, until a common-denominator
rational reconstruction (Wang 1981) passes the exact residual check
A num = d b on every row. That check, not a bound, is the certificate, and
each candidate faces it as soon as it is reconstructed. The optional D(R)
comparison in ``analyze`` is a float lower bound computed at the fixed
precision of ``rd``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from functools import cache, cached_property
from math import isqrt, lcm
from operator import mul, sub
from typing import TYPE_CHECKING

import numpy as np

from .errors import ChainError, GraphStructureError, SourceError
from .graph import LabeledGraph, RateInfo, rate_of, strongly_connected_components
from .statespace import StateSpace, enumerate_states

if TYPE_CHECKING:
    from .rd import RDPoint


@dataclass(frozen=True)
class SourceModel:
    """Memoryless source over a finite alphabet with exact probabilities."""

    alphabet: tuple[str, ...]
    probabilities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.alphabet) != len(self.probabilities):
            raise SourceError("one probability per symbol required")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise SourceError("duplicate symbol in source alphabet")
        if any(p < 0 for p in self.probabilities):
            raise SourceError("negative probability")
        if sum(self.probabilities) != 1:
            raise SourceError(
                f"probabilities sum to {sum(self.probabilities)}, not 1"
            )

    @classmethod
    def uniform(cls, alphabet: tuple[str, ...]) -> SourceModel:
        m = len(alphabet)
        if m == 0:
            raise SourceError("empty alphabet")
        return cls(alphabet=alphabet, probabilities=(Fraction(1, m),) * m)

    @classmethod
    def parse(cls, text: str, alphabet: tuple[str, ...]) -> SourceModel:
        """Parse ``uniform`` or a comma list like ``a:1/2,b:1/4,c:1/4``.

        Every graph symbol must be assigned exactly once.
        """
        text = text.strip()
        if text == "uniform":
            return cls.uniform(alphabet)
        assigned: dict[str, Fraction] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                raise SourceError("empty entry in source specification")
            sym, sep, val = part.partition(":")
            if not sep:
                raise SourceError(f"expected symbol:probability, got {part!r}")
            sym = sym.strip()
            if sym not in alphabet:
                raise SourceError(f"symbol {sym!r} is not in the graph alphabet")
            if sym in assigned:
                raise SourceError(f"symbol {sym!r} assigned twice")
            try:
                assigned[sym] = Fraction(val.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise SourceError(f"bad probability {val.strip()!r}: {exc}") from None
        missing = [s for s in alphabet if s not in assigned]
        if missing:
            raise SourceError(f"no probability given for {missing}")
        return cls(alphabet=alphabet, probabilities=tuple(assigned[s] for s in alphabet))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.alphabet)}

    def prob(self, symbol: str) -> Fraction:
        return self.probabilities[self._index[symbol]]


@dataclass(frozen=True)
class MarkovChain:
    """Sparse row-stochastic chain plus the per-state increment mass.

    ``rows[i]`` maps successor index to probability (only nonzero entries);
    ``absorb[i]`` is the probability that a step from state i increments.
    """

    size: int
    rows: tuple[dict[int, Fraction], ...]
    absorb: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not len(self.rows) == len(self.absorb) == self.size:
            raise ChainError("need one row and one increment mass per state")
        # Rows are checked once per tuple of value objects: build_chain shares
        # them between rows, and all of them stay alive in self.rows, so no
        # id is reused while this runs.
        passed: set[tuple[int, ...]] = set()
        for i, row in enumerate(self.rows):
            key = tuple(map(id, row.values()))
            if key in passed:
                continue
            # exactly: the numerators over the lcm of the denominators sum to it
            scale = lcm(*(f.denominator for f in row.values()))
            if sum(f.numerator * (scale // f.denominator) for f in row.values()) != scale or any(
                f.numerator <= 0 for f in row.values()
            ):
                raise ChainError(f"row {i} is not positive entries summing to 1")
            passed.add(key)


@dataclass(frozen=True)
class ClassPartition:
    closed: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]


@dataclass(frozen=True)
class SolveStats:
    """What one exact solve cost: the system's dimension, the primes tried
    before one left it nonsingular, the p-adic lifts, and the decimal digits
    of the common denominator of the certified solution."""

    dim: int
    primes_tried: int
    lifts: int
    denominator_digits: int


@dataclass(frozen=True)
class StationaryDistribution:
    """Long-run occupation law of the chain started at state 0.

    With a single closed class this is the unique stationary distribution.
    Otherwise it is the Cesaro limit from state 0: the mixture of per-class
    stationary laws weighted by the absorption probabilities.
    """

    q: tuple[Fraction, ...]
    classes: ClassPartition
    unique: bool
    solves: tuple[SolveStats, ...] = field(default=(), compare=False, repr=False)


def build_chain(ss: StateSpace, src: SourceModel) -> MarkovChain:
    if src.alphabet != ss.graph.alphabet:
        raise SourceError(
            f"source alphabet {src.alphabet} does not match graph alphabet"
            f" {ss.graph.alphabet}"
        )
    probs = [Fraction(p) for p in src.probabilities]
    scale = lcm(*(p.denominator for p in probs))
    # every entry is an integer over one scale; each distinct numerator
    # becomes one Fraction, shared by every row that holds it
    weights = [(xi, p.numerator * (scale // p.denominator)) for xi, p in enumerate(probs) if p]
    shared = cache(lambda num: Fraction(num, scale))
    rows: list[dict[int, Fraction]] = []
    absorb: list[Fraction] = []
    for arc_row in ss.arcs:
        nums: dict[int, int] = {}  # successor -> numerator of its probability
        increments = 0
        for xi, w in weights:
            ti, inc = arc_row[xi]
            nums[ti] = nums.get(ti, 0) + w
            increments += inc * w
        rows.append({ti: shared(num) for ti, num in nums.items()})
        absorb.append(shared(increments))
    return MarkovChain(size=len(ss), rows=tuple(rows), absorb=tuple(absorb))


def closed_classes(mc: MarkovChain) -> ClassPartition:
    adj = [sorted(row) for row in mc.rows]
    comps = strongly_connected_components(mc.size, adj)
    closed: list[tuple[int, ...]] = []
    transient: list[int] = []
    for comp in comps:
        members = set(comp)
        if all(t in members for i in comp for t in mc.rows[i]):
            closed.append(tuple(sorted(comp)))
        else:
            transient.extend(comp)
    return ClassPartition(closed=tuple(closed), transient=tuple(sorted(transient)))


# Word-size primes below 2**31: residues and their products fit in int64.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)


_BLOCK = 32  # block size of the triangular solves


def _mulmod(a: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """``a @ x`` modulo ``p`` for entries in [0, p). ``x`` is split into
    16-bit halves so no int64 partial sum overflows (inner dimension < 2**16)."""
    return (a @ (x & 0xFFFF) % p + (a @ (x >> 16) % p << 16)) % p


def _unipotent_inverse(nil: np.ndarray, p: int) -> np.ndarray:
    """``(I + N)**-1`` modulo ``p`` for a stack of strictly triangular
    _BLOCK x _BLOCK matrices N, as (I - N)(I + N**2)(I + N**4)...: N is
    nilpotent, so the product is the whole series sum((-N)**i)."""
    eye = np.eye(_BLOCK, dtype=np.int64)
    inv = (eye - nil) % p
    power, degree = nil, 2
    while degree < _BLOCK:
        power = _mulmod(power, power, p)
        inv = _mulmod(inv, eye + power, p)
        degree *= 2
    return inv


class _ModularLU:
    """PA = LU modulo a prime ``p``, packed in one int64 array, with the
    inverses of the diagonal blocks of L and U for blocked solves."""

    def __init__(self, lu: np.ndarray, perm: np.ndarray, p: int):
        self.lu, self.perm, self.p = lu, perm, p
        n = len(lu)
        self.blocks = [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]
        # the diagonal blocks, the last one padded with the identity
        nb = len(self.blocks)
        diag = np.tile(np.eye(_BLOCK, dtype=np.int64), (nb, 1, 1))
        for blk, (s, e) in zip(diag, self.blocks):
            blk[: e - s, : e - s] = lu[s:e, s:e]
        dinv = np.array(
            [pow(int(v), -1, p) for v in diag.diagonal(0, 1, 2).ravel()], dtype=np.int64
        ).reshape(nb, 1, _BLOCK)
        self.linv = _unipotent_inverse(np.tril(diag, -1), p)
        # U = D (I + D**-1 S) with S strictly upper, so U**-1 = (I + D**-1 S)**-1 D**-1
        scaled = np.triu(diag, 1) * dinv.transpose(0, 2, 1) % p
        self.uinv = _unipotent_inverse(scaled, p) * dinv % p

    @classmethod
    def factor(cls, a: np.ndarray, p: int) -> _ModularLU | None:
        """Factor ``a`` (entries in [0, p)) in place, or return None when it
        is singular modulo ``p``. Each elimination step updates only the
        rows with a nonzero in the pivot column."""
        n = len(a)
        perm = np.arange(n)
        for k in range(n):
            nz = np.flatnonzero(a[k:, k])
            if nz.size == 0:
                return None
            piv = k + int(nz[0])
            if piv != k:
                a[[k, piv]] = a[[piv, k]]
                perm[[k, piv]] = perm[[piv, k]]
            rows = k + 1 + np.flatnonzero(a[k + 1 :, k])
            if rows.size:
                factors = a[rows, k] * pow(int(a[k, k]), -1, p) % p
                a[rows, k] = factors
                a[rows, k + 1 :] = (a[rows, k + 1 :] - factors[:, None] * a[k, k + 1 :] % p) % p
        return cls(a, perm, p)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The x with A x = b modulo p, for the columns of ``b`` (entries in [0, p))."""
        lu, p = self.lu, self.p
        y = b[self.perm]
        for (s, e), inv in zip(self.blocks, self.linv):
            y[s:e] = _mulmod(inv[: e - s, : e - s], y[s:e], p)
            y[e:] = (y[e:] - _mulmod(lu[e:, s:e], y[s:e], p)) % p
        for (s, e), inv in zip(reversed(self.blocks), self.uinv[::-1]):
            y[s:e] = _mulmod(inv[: e - s, : e - s], y[s:e], p)
            y[:s] = (y[:s] - _mulmod(lu[:s, s:e], y[s:e], p)) % p
        return y


def _reconstruct(xs: list[int], m: int) -> tuple[int, list[int]] | None:
    """Common-denominator rational reconstruction (Wang 1981) modulo ``m``.

    Finds d and numerators n_i with n_i = d x_i (mod m) and every |n_i| and
    d at most sqrt(m/2), or returns None when there are none.
    """
    bound = isqrt((m - 1) // 2)
    d = 1
    for x in xs:
        y = d * x % m
        if y <= bound or m - y <= bound:
            continue
        # extended Euclid on (m, y) until the remainder drops to the bound
        r0, r1, s0, s1 = m, y, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        d *= abs(s1)
        if d > bound:
            return None
    nums = []
    for x in xs:
        y = d * x % m
        if y > bound:
            y -= m
            if -y > bound:
                return None
        nums.append(y)
    return d, nums


def _matvec(a: list[tuple[tuple[int, ...], tuple[int, ...]]], x: list[int]) -> list[int]:
    """Exact ``A x`` for A given as (columns, values) per row."""
    get = x.__getitem__
    return [sum(map(mul, vals, map(get, cols))) for cols, vals in a]


def _solve_exact(
    a: list[tuple[tuple[int, ...], tuple[int, ...]]], b: list[list[int]]
) -> tuple[list[list[Fraction]], SolveStats]:
    """Solve A x = b exactly for each integer right-hand side b in ``b``.

    ``a`` gives each row of the integer matrix A as (columns, values), only
    nonzero entries. The system is factored once modulo a word-size prime,
    lifted p-adically (Dixon 1982) and reconstructed with a common
    denominator (Wang 1981). A solution is returned only after A num = d b
    has been checked in exact integer arithmetic for every row and every b.
    """
    n = len(a)
    # Hadamard's bound prod_i |(a_i, b_i)| on the minors of (A | b), in bits
    hadamard_bits = sum(
        (sum(v * v for v in vals) + max(bc[i] * bc[i] for bc in b)).bit_length() // 2 + 1
        for i, (_, vals) in enumerate(a)
    )
    for tried, p in enumerate(_PRIMES, 1):
        dense = np.zeros((n, n), dtype=np.int64)
        for i, (cols, vals) in enumerate(a):
            dense[i, list(cols)] = [v % p for v in vals]
        lu = _ModularLU.factor(dense, p)
        if lu is not None:
            break
    else:
        raise ChainError(f"singular system (modulo each of {len(_PRIMES)} primes)")
    # Reconstruction is tried after lift 1, 2, 3, ... spaced by about 1/8 of
    # the lifts so far, which keeps its total cost quadratic in the digits.
    # A candidate that satisfies A num = d b is the solution, since A is
    # nonsingular over Q once it factors modulo p; past
    # p**lifts > 2 * 2**(2 * hadamard_bits) the true solution is the only
    # candidate, so the first try past that point certifies.
    needed = (2 * hadamard_bits + 2) // (p.bit_length() - 1) + 1
    max_lifts = needed + needed // 8 + 2
    residual = [bc[:] for bc in b]
    digits = [[0] * n for _ in b]  # x modulo p**lifts, one list per right-hand side
    modulus, next_try = 1, 1
    for lifts in range(1, max_lifts + 1):
        step = lu.solve(np.array([[v % p for v in r] for r in residual], dtype=np.int64).T)
        for c, xc in enumerate(step.T.tolist()):
            diff = list(map(sub, residual[c], _matvec(a, xc)))
            if any(v % p for v in diff):
                raise ChainError("p-adic lift lost exactness")
            residual[c] = [v // p for v in diff]
            digits[c] = [v + s * modulus for v, s in zip(digits[c], xc)]
        modulus *= p
        if lifts < next_try:
            continue
        next_try = lifts + 1 + lifts // 8
        candidate = _reconstruct([x for col in digits for x in col], modulus)
        if candidate is None:
            continue
        d, nums = candidate
        cols = [nums[c * n : (c + 1) * n] for c in range(len(b))]
        if all(_matvec(a, col) == [d * v for v in bc] for col, bc in zip(cols, b)):
            stats = SolveStats(n, tried, lifts, len(str(d)))
            return [[Fraction(v, d) for v in col] for col in cols], stats
    raise ChainError(f"no certified solution within the Hadamard bound of {max_lifts} lifts")


def _class_stationary(
    mc: MarkovChain, members: tuple[int, ...]
) -> tuple[list[Fraction], SolveStats]:
    """Stationary law of the chain restricted to one closed class."""
    m = len(members)
    local = {s: i for i, s in enumerate(members)}
    scale = lcm(*{p.denominator for s in members for p in mc.rows[s].values()})
    # balance equations for all targets but the last (one is redundant), times scale
    eqs: list[dict[int, int]] = [{j: -scale} for j in range(m - 1)]
    for i, s in enumerate(members):
        for target, p in mc.rows[s].items():
            j = local[target]
            if j < m - 1:
                v = p.numerator * (scale // p.denominator)
                eqs[j][i] = v - scale if i == j else v
    a = [(tuple(eq), tuple(eq.values())) for eq in eqs]
    a.append((tuple(range(m)), (1,) * m))  # normalization
    (pi,), stats = _solve_exact(a, [[0] * (m - 1) + [1]])
    return pi, stats


def _absorption_probabilities(
    mc: MarkovChain, classes: ClassPartition
) -> tuple[list[Fraction], SolveStats | None]:
    """Probability, from state 0, of ending in each closed class."""
    for ci, comp in enumerate(classes.closed):
        if 0 in comp:
            return [Fraction(int(i == ci)) for i in range(len(classes.closed))], None
    trans = classes.transient
    pos = {s: i for i, s in enumerate(trans)}
    owner = {s: ci for ci, comp in enumerate(classes.closed) for s in comp}
    scale = lcm(*{p.denominator for s in trans for p in mc.rows[s].values()})
    # (I - Q) h = r times scale, one r per closed class: its one-step mass from each state
    a: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    b = [[0] * len(trans) for _ in classes.closed]
    for i, s in enumerate(trans):
        eq = {i: scale}
        for target, p in mc.rows[s].items():
            v = p.numerator * (scale // p.denominator)
            if target in pos:
                eq[pos[target]] = eq.get(pos[target], 0) - v
            else:
                b[owner[target]][i] += v
        a.append((tuple(eq), tuple(eq.values())))
    h, stats = _solve_exact(a, b)
    out = [hc[pos[0]] for hc in h]
    if sum(out) != 1:
        raise ChainError(f"absorption probabilities sum to {sum(out)}, not 1")
    return out, stats


def stationary(mc: MarkovChain) -> StationaryDistribution:
    classes = closed_classes(mc)
    q = [Fraction(0)] * mc.size
    solves: list[SolveStats] = []
    if len(classes.closed) == 1:
        weights = [Fraction(1)]
    else:
        weights, stats = _absorption_probabilities(mc, classes)
        if stats is not None:
            solves.append(stats)
    for w, comp in zip(weights, classes.closed):
        if w == 0:
            continue
        pi, stats = _class_stationary(mc, comp)
        solves.append(stats)
        for s, mass in zip(comp, pi):
            q[s] += w * mass
    if sum(q) != 1:
        raise ChainError(f"stationary mass sums to {sum(q)}, not 1")
    return StationaryDistribution(
        q=tuple(q),
        classes=classes,
        unique=len(classes.closed) == 1,
        solves=tuple(solves),
    )


def distortion_rate(mc: MarkovChain, sd: StationaryDistribution) -> Fraction:
    return sum((q * a for q, a in zip(sd.q, mc.absorb)), Fraction(0))


def decimal_string(x: Fraction, places: int = 10) -> str:
    """Fixed-point decimal rendering, round half up."""
    with localcontext() as ctx:
        ctx.prec = places + 30
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return format(d.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP), "f")


@dataclass(frozen=True)
class AnalysisReport:
    distortion: Fraction
    distortion_decimal: str
    state_count: int
    class_count: int
    unique: bool
    k: int
    rate: RateInfo | None
    rd_point: "RDPoint | None" = None

    @property
    def rd_gap(self) -> float | None:
        if self.rd_point is None:
            return None
        return float(self.distortion) - self.rd_point.distortion


def analyze(
    g: LabeledGraph,
    src: SourceModel | None = None,
    with_rd: bool = False,
    max_states: int = 10**6,
) -> AnalysisReport:
    """End-to-end exact analysis of one graph under one source."""
    if src is None:
        src = SourceModel.uniform(g.alphabet)
    ss = enumerate_states(g, max_states=max_states)
    mc = build_chain(ss, src)
    sd = stationary(mc)
    d = distortion_rate(mc, sd)
    try:
        rate = rate_of(g)
    except GraphStructureError:
        rate = None
    rd_point = None
    if with_rd:
        from .rd import blahut

        if rate is None:
            raise SourceError("rate comparison requires uniform out-degree")
        rd_point = blahut([float(p) for p in src.probabilities], rate.approx)
    return AnalysisReport(
        distortion=d,
        distortion_decimal=decimal_string(d),
        state_count=len(ss),
        class_count=len(sd.classes.closed),
        unique=sd.unique,
        k=ss.k,
        rate=rate,
        rd_point=rd_point,
    )
