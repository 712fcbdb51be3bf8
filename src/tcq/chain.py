"""Markov chain induced on the state space by a memoryless source.

Everything here is exact rational arithmetic. The per-step distortion rate
is the stationary expectation of the arc increments. The long-run law from
state 0 comes from one linear system (Kemeny and Snell 1960) over the
states that 0 reaches: each reached closed class's balance equations with
its total mass in place of the last one, and, when 0 reaches several closed
classes, the expected visits to each reached transient state, which set the
mass that enters each class. The system is built in integers over the lcm
of its rows' denominators, assembled once as CSR arrays, factored once as a
dense float64 LU, and solved by numeric lifting (Wan 2006) with one exact
integer residual update per lift; each
lift takes the most bits K for which 2^K times the float solve of the
residual stays below 2^52, and that cap alone sets K. The residual is one
numpy array: int64 when every entry lies below 2^20, where numpy arithmetic
wraps mod 2^64 and so stays exact while the true residual is below 2^63
(``_solve_exact`` derives that bound), and Python integers in an ``object``
array otherwise. A common denominator is then read off continued fractions,
and a candidate stands only if A num = d b holds in Python integers on
every row: that check, not a bound, is the certificate. Systems beyond
double precision or the dense factor's memory cap raise ChainError. The
optional D(R) comparison in ``analyze`` is a float lower bound at the
precision of ``rd``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import frexp, isfinite, isqrt, lcm, log10
from operator import mul
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
    """One exact solve: its dimension, numeric lifts, fewest bits gained by a
    lift, largest gap from the first float solve to the certified solution,
    decimal digits of that solution's common denominator, nonzeros of the
    system, and how its residual was kept (``"int64"`` or ``"int"``)."""

    dim: int
    lifts: int
    bits_per_lift: int
    float_gap: float
    denominator_digits: int
    nnz: int
    residual: str


@dataclass(frozen=True)
class StationaryDistribution:
    """Long-run occupation law of the chain started at state 0.

    With a single closed class this is the unique stationary distribution.
    Otherwise it is the Cesaro limit from state 0: the mixture of per-class
    stationary laws weighted by the probability of entering each class.
    ``solve`` describes the one exact solve behind it.
    """

    q: tuple[Fraction, ...]
    classes: ClassPartition
    unique: bool
    solve: SolveStats | None = field(default=None, compare=False, repr=False)


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


_PANEL = 64  # columns per pivoting panel, and per diagonal block of the solves
_LEAF = 8  # panel columns eliminated one at a time
_ROWS = 256  # rows per chunk of the trailing update
_MAX_FACTOR_BYTES = 2 << 30  # cap on the dense factor (n <= 16,384), checked first
_MANTISSA = 52  # integer bits a float64 holds exactly, less one for rounding
_INT64_ENTRY_LIMIT = 1 << 20  # systems with every |entry| below this lift in int64


def _unit_lower_inverse(block: np.ndarray) -> np.ndarray:
    return np.linalg.inv(np.tril(block, -1) + np.eye(len(block)))


def _factor_panel(a: np.ndarray, c0: int, c1: int, perm: list[int]) -> None:
    """Recursive LU with partial pivoting of columns c0:c1 of ``a``, rows c0
    on, swapping whole rows of ``a`` and the same entries of ``perm``."""
    if c1 - c0 > _LEAF:
        mid = (c0 + c1) // 2
        _factor_panel(a, c0, mid, perm)
        a[c0:mid, mid:c1] = _unit_lower_inverse(a[c0:mid, c0:mid]) @ a[c0:mid, mid:c1]
        a[mid:, mid:c1] -= a[mid:, c0:mid] @ a[c0:mid, mid:c1]
        _factor_panel(a, mid, c1, perm)
        return
    for j in range(c0, c1):
        col = a[j:, j]
        k = j + int(abs(col).argmax())
        if a[k, j] == 0:
            raise ChainError("singular system in double precision (a zero pivot)")
        if k != j:
            a[[j, k]], perm[j], perm[k] = a[[k, j]], perm[k], perm[j]
        col[1:] /= col[0]
        a[j + 1 :, j + 1 : c1] -= np.multiply.outer(col[1:], a[j, j + 1 : c1])


class _FloatLU:
    """PA = LU in float64, computed in place in ``a``, with the inverses of
    the diagonal blocks of L and U for blocked triangular solves."""

    def __init__(self, a: np.ndarray):
        n = len(a)
        self.lu, self.linv, self.perm = a, [], list(range(n))
        prod = np.empty(_ROWS * n)  # one chunk of the trailing update
        for k0 in range(0, n, _PANEL):
            k1 = min(k0 + _PANEL, n)
            _factor_panel(a, k0, k1, self.perm)
            self.linv.append(_unit_lower_inverse(a[k0:k1, k0:k1]))
            u12 = a[k0:k1, k1:]
            u12[:] = self.linv[-1] @ u12
            for r0 in range(k1, n, _ROWS):
                r1 = min(r0 + _ROWS, n)
                out = prod[: (r1 - r0) * (n - k1)].reshape(r1 - r0, n - k1)
                a[r0:r1, k1:] -= np.matmul(a[r0:r1, k0:k1], u12, out=out)
        self.blocks = [(s, min(s + _PANEL, n)) for s in range(0, n, _PANEL)]
        self.uinv = [np.linalg.inv(np.triu(a[s:e, s:e])) for s, e in self.blocks]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The float x with A x = b."""
        lu, y = self.lu, b[self.perm]
        for (s, e), inv in zip(self.blocks, self.linv):
            y[s:e] = inv @ y[s:e]
            y[e:] -= lu[e:, s:e] @ y[s:e]
        for (s, e), inv in zip(reversed(self.blocks), reversed(self.uinv)):
            y[s:e] = inv @ y[s:e]
            y[:s] -= lu[:s, s:e] @ y[s:e]
        return y


def _reconstruct(xs: list[int], m: int) -> tuple[int, list[int]] | None:
    """Common-denominator rational reconstruction from approximations x/m.

    Builds d from one continued-fraction convergent of each x for which the
    d so far leaves d x more than sqrt(m)/2 from a multiple of m, and returns
    it with the numerators round(d x / m), or None once d exceeds sqrt(m)/2.
    """
    bound = isqrt(m) >> 1
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
    return d, [(d * x + (m >> 1)) // m for x in xs]


def _matvec(a: list[tuple[tuple[int, ...], tuple[int, ...]]], x: list[int]) -> list[int]:
    """Exact ``A x`` for A given as (columns, values) per row."""
    get = x.__getitem__
    return [sum(map(mul, vals, map(get, cols))) for cols, vals in a]


def _solve_exact(
    a: list[tuple[tuple[int, ...], tuple[int, ...]]], b: list[int]
) -> tuple[int, list[int], SolveStats]:
    """Solve A x = b exactly for an integer right-hand side b.

    ``a`` gives each row of the integer matrix A as (columns, values), only
    nonzero entries. Returns a common denominator d and the numerators of
    the solution. A is factored once in float64, and the solution is lifted
    numerically (Wan 2006): each lift rounds 2**K times the float solve y of
    the residual r to integers x, K as large as keeps them below 2**52, and
    updates the residual exactly to r' = 2**K r - A x. A solution is
    returned only after A num = d b has been checked in exact integer
    arithmetic for every row.

    The system is assembled once as CSR arrays, and the residual is one
    numpy array updated with one ``np.add.reduceat`` per lift. Its dtype is
    int64 when every entry of A and b lies below 2**20 in magnitude, and
    ``object`` (Python integers) otherwise, as for sources with denominators
    past 2**20; the power-of-two row scales share that dtype, so even huge
    entries divide to correctly rounded floats. Numpy's int64 products, sums
    and shifts are arithmetic mod 2**64 (a shift by 64 or more gives 0,
    which is 2**K r mod 2**64), so r' comes out exact whenever its true
    value lies below 2**63, however the terms overflow on the way. That
    value is r' = A (2**K y - x) + 2**K (r - A y). Rounding makes the first
    term at most sum_j |a_ij| / 2 in row i; a float solve with row-wise
    relative backward error e makes the second at most 2**K |y| e sum_j
    |a_ij|, below 2**52 e sum_j |a_ij|. Rows of at most 16,384 entries below
    2**20 have sum_j |a_ij| < 2**34, so |r'| < 2**63 for any e below 2**-24;
    a pivoted double-precision solve typically sits near n 2**-53. A
    residual that wrapped anyway would only stop the lifts from converging:
    the certificate then refuses the system, and never passes a wrong
    answer.
    """
    n = len(a)
    if 8 * n * n > _MAX_FACTOR_BYTES:
        raise ChainError(
            f"a system of {n} unknowns needs {8 * n * n:,} bytes for its dense float"
            f" factor, above the limit of {_MAX_FACTOR_BYTES:,}"
        )
    counts = [len(cols) for cols, _ in a]
    if 0 in counts:  # np.add.reduceat would read an empty row as its next entry
        raise ChainError(f"row {counts.index(0)} of the system has no entry")
    row_max = [max(map(abs, vs)) for _, vs in a]
    widest = max(row_max + list(map(abs, b)))
    dtype = np.int64 if widest < _INT64_ENTRY_LIMIT else object
    # CSR: row i holds the entries starts[i]:starts[i + 1] of cols and vals
    starts = np.cumsum([0] + counts[:-1])
    rows = np.repeat(np.arange(n), counts)
    cols = np.array([c for cs, _ in a for c in cs], dtype=np.intp)
    vals = np.array([v for _, vs in a for v in vs], dtype=dtype)
    residual = np.array(b, dtype=dtype)
    # each row scaled by a power of two, to entries of magnitude at most 1
    scales = np.array([1 << v.bit_length() for v in row_max], dtype=dtype)
    dense = np.zeros((n, n))
    dense[rows, cols] = vals / scales[rows]
    row_squares = np.add.reduceat(vals * vals, starts) + residual * residual
    lu = _FloatLU(dense)
    # Hadamard's bound on the minors of (A | b), in bits: past a shift of
    # twice that, plus the bits of the lifting error, reconstruction succeeds
    hadamard_bits = sum(q.bit_length() // 2 + 1 for q in row_squares.tolist())
    max_shift = 2 * hadamard_bits + hadamard_bits // 4 + 64
    digits = np.zeros(n, dtype=object)  # 2**shift x, rounded
    first = step = lu.solve((residual / scales).astype(float))
    fewest, shift, lifts, next_try = None, 0, 0, 1
    while shift <= max_shift:
        # 2**k |step| must stay within the integers a float64 holds exactly
        top = float(np.max(np.abs(step)))
        k = _MANTISSA - frexp(top)[1] if isfinite(top) else 0
        if k <= 0:
            raise ChainError("system too ill-conditioned for double precision")
        x = np.rint(np.ldexp(step, k)).astype(np.int64)
        residual = (residual << k) - np.add.reduceat(vals * x.astype(dtype)[cols], starts)
        digits = (digits << k) + x.astype(object)
        shift, lifts, fewest = shift + k, lifts + 1, min(fewest or k, k)
        step = lu.solve((residual / scales).astype(float))
        if lifts < next_try:
            continue
        # tries spaced by about 1/8 of the lifts so far keep the cost of
        # reconstruction quadratic in the digits
        next_try = lifts + 1 + lifts // 8
        candidate = _reconstruct(digits.tolist(), 1 << shift)
        if candidate is None:
            continue
        d, nums = candidate
        if _matvec(a, nums) == [d * v for v in b]:
            gap = max(abs(v / d - f) for v, f in zip(nums, first.tolist()))
            # 10**t <= 2**(bits - 1) <= d < 10**(t + 2): d has t + 1 or t + 2
            # decimal digits (str(d) refuses ints past 4,300 of them)
            t = int((d.bit_length() - 1) * log10(2))
            size = t + 1 + (d >= 10 ** (t + 1))
            kind = "int64" if dtype is np.int64 else "int"
            return d, nums, SolveStats(n, lifts, fewest, float(gap), size, len(cols), kind)
    raise ChainError(f"no certified solution within the Hadamard bound of {max_shift} bits")


def stationary(mc: MarkovChain) -> StationaryDistribution:
    """The long-run law from state 0, from one exact linear system.

    The unknowns, in state order, are the closed states that state 0 reaches
    and, when it reaches several closed classes (so 0 is transient), the
    transient states it reaches too; every other state's share is 0. A
    transient unknown z_j is the expected number of visits to j from state
    0; its row reads sum_k z_k P_kj - z_j = -[j = 0] over transient k. A
    closed state's row balances it within its class, except at the class's
    last member, whose row sets the class's total mass: sum_k z_k P(k ->
    class) (Kemeny and Snell's fundamental matrix), or 1 for a lone reached
    class. Rows are integers over the lcm of the unknowns' row denominators,
    save a lone reached class's mass row, which reads sum_i x_i = 1.
    """
    classes = closed_classes(mc)
    reached = bytearray(mc.size)
    reached[0], todo = 1, [0]
    while todo:
        for t in mc.rows[todo.pop()]:
            if not reached[t]:
                reached[t] = 1
                todo.append(t)
    comps = [comp for comp in classes.closed if reached[comp[0]]]
    head = {s: comp[-1] for comp in comps for s in comp}  # last member of s's class
    single = len(comps) == 1
    unknowns = sorted(head) if single else [s for s in range(mc.size) if reached[s]]
    col = {s: i for i, s in enumerate(unknowns)}
    scale = lcm(*{p.denominator for s in unknowns for p in mc.rows[s].values()})
    eqs = {s: {col[s]: -scale} for s in unknowns}
    b = [0] * len(unknowns)
    if single:  # the one reached class holds all the mass
        b[col[comps[0][-1]]] = 1
    else:  # state 0 is transient, and the walk starts there
        b[col[0]] = -scale
    unit = 1 if single else scale  # a mass row's entry for each member
    for comp in comps:
        eqs[comp[-1]] = dict.fromkeys(map(col.get, comp), unit)
    for i in unknowns:
        for t, p in mc.rows[i].items():
            v = p.numerator * (scale // p.denominator)
            last = head.get(t)
            if last is not None and i not in head:  # from a transient state into t's class
                eq, v = eqs[last], -v
            elif t != last:  # a visit row, or a balance row within t's class
                eq = eqs[t]
            else:  # within the class to its last member, whose row is the mass
                continue
            eq[col[i]] = eq.get(col[i], 0) + v
    d, nums, stats = _solve_exact([(tuple(eq), tuple(eq.values())) for eq in eqs.values()], b)
    mass = sum(nums[col[s]] for s in head)
    if mass != d:
        raise ChainError(f"long-run mass sums to {Fraction(mass, d)}, not 1")
    q = [Fraction(0)] * mc.size
    for s in head:
        q[s] = Fraction(nums[col[s]], d)
    return StationaryDistribution(
        q=tuple(q),
        classes=classes,
        unique=len(classes.closed) == 1,
        solve=stats,
    )


def distortion_rate(mc: MarkovChain, sd: StationaryDistribution) -> Fraction:
    """The stationary expectation of the increment mass, as one integer dot
    product over the common denominators of both."""
    dq, da = (lcm(*(x.denominator for x in xs)) for xs in (sd.q, mc.absorb))
    dot = sum(
        q.numerator * (dq // q.denominator) * a.numerator * (da // a.denominator)
        for q, a in zip(sd.q, mc.absorb)
    )
    return Fraction(dot, dq * da)


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
