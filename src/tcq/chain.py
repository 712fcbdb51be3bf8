"""Markov chain induced on the state space by a memoryless source.

Everything here is exact rational arithmetic. The chain is one integer CSR
table over one scale (``MarkovChain``): ``build_chain`` fills it with numpy
from the state space's successor and increment arrays, ``closed_classes``
runs one strongly-connected-components pass over it, and ``stationary``
assembles its linear system from it with numpy; Fraction rows are a view
built only when read. The per-step distortion rate is the stationary
expectation of the arc increments. The long-run law from state 0 comes from
one linear system (Kemeny and Snell 1960) over the states that 0 reaches:
each reached closed class's balance equations with its total mass in place
of one of them, and, when 0 reaches several closed classes, the expected
visits to each reached transient state, which set the mass that enters each
class.

Before it is solved, the system is censored (the stochastic complement of
Meyer 1989, by the state reduction of Grassmann, Taksar and Heyman 1985): a
state whose balance row names exactly one predecessor i other than itself
has x_j = P_ij x_i, so it leaves the system, resolved by pointer jumping
to a surviving root with an integer coefficient over a power of the scale;
rounds repeat while the censored chain has such states. A transient state
0 stays, and so does one member of a class that is a pure cycle. A chain
without any such state (debruijn8) censors to the identity and takes the
same path, certificate included. ``SolveStats`` reports the unknowns before
censoring (``unreduced_dim``) beside those solved (``dim``).

The censored system is built in integers, each row divided by its gcd,
handed over as CSR arrays, factored once in float64 by LAPACK's dgetrf
(through ctypes, in the OpenBLAS that numpy loads), and solved by numeric
lifting (Wan 2006): one dgetrs solve and one exact integer residual update
per lift; each lift takes the most bits K for which 2^K times the float
solve of the residual stays below 2^52, and that cap alone sets K. The
residual is one numpy array: int64 when every row's sum of |entries| lies
below 2^34, where numpy arithmetic wraps mod 2^64 and so stays exact while
the true residual is below 2^63 (``_solve_exact`` derives that bound), and
Python integers in an ``object`` array otherwise. A common denominator is
then read off continued fractions, and a candidate stands only if A num = d
b holds in Python integers on every row. The eliminated shares are then
back-substituted in integers over one common denominator, and the whole law
is certified once more on the original chain's equations: balance within
each class, total mass 1, and with several classes the expected visits and
class masses. Those checks, not a bound, are the certificate. D(G) is one
integer dot product with the law's numerators; its Fractions are built only
when ``q`` is read. Systems beyond double precision or the dense factor's
memory cap raise ChainError. The optional D(R) comparison in ``analyze`` is
a float lower bound at the precision of ``rd``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from functools import cache, cached_property
from itertools import pairwise
from math import frexp, gcd, isfinite, isqrt, lcm, log10
from operator import mul
from typing import TYPE_CHECKING

import numpy as np

from .errors import ChainError, GraphStructureError, SourceError
from .graph import LabeledGraph, RateInfo, rate_of, strong_components
from .statespace import StateSpace, enumerate_states

if TYPE_CHECKING:
    from .rd import RDPoint


_MAX_EXPONENT = 4300  # Python's default cap on the digits of an int, a 4-digit number


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

        Every graph symbol must be assigned exactly once, and no decimal
        exponent may pass ``_MAX_EXPONENT``.
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
            val = val.strip()
            # Fraction would build 10**exponent, and int() is slow on a long one
            exponent = val.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
            if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) > _MAX_EXPONENT):
                raise SourceError(f"probability of {sym!r} has an exponent past {_MAX_EXPONENT}")
            try:
                assigned[sym] = Fraction(val)
            except (ValueError, ZeroDivisionError) as exc:
                raise SourceError(f"bad probability {val!r}: {exc}") from None
        missing = [s for s in alphabet if s not in assigned]
        if missing:
            raise SourceError(f"no probability given for {missing}")
        return cls(alphabet=alphabet, probabilities=tuple(assigned[s] for s in alphabet))


class MarkovChain:
    """Row-stochastic chain plus the per-state increment mass, as one integer
    CSR table over one scale.

    Row i's successors are ``succ[indptr[i]:indptr[i + 1]]``, ascending, and
    ``num`` holds their probabilities times ``scale``; ``absorb_num[i]`` is
    ``scale`` times the probability that a step from state i increments. The
    numerators are int64 arrays, or Python integers in ``object`` arrays
    when a row's sum could pass 2**63. The table is checked on construction:
    at least one state, successors among the states, positive entries, and
    rows summing to ``scale``.

    ``rows[i]`` (successor index to probability) and ``absorb[i]`` give the
    same chain as Fractions, one shared Fraction per distinct numerator; they
    are built on first access for readers outside the package, and nothing
    in it reads them.
    """

    def __init__(
        self,
        size: int,
        scale: int,
        indptr: np.ndarray,
        succ: np.ndarray,
        num: np.ndarray,
        absorb_num: np.ndarray,
    ):
        if size < 1:
            raise ChainError("a chain needs at least one state")
        if not len(indptr) == len(absorb_num) + 1 == size + 1:
            raise ChainError("need one row and one increment mass per state")
        # empty rows first: np.add.reduceat would read one as its next entry
        counts = np.diff(indptr)
        bad = counts == 0
        if not bad.any():
            nonpositive = np.zeros(size, dtype=bool)
            nonpositive[np.repeat(np.arange(size), counts)[num <= 0]] = True
            bad = nonpositive | (np.add.reduceat(num, indptr[:-1]) != scale)
        if bad.any():
            raise ChainError(f"row {int(np.argmax(bad))} is not positive entries summing to 1")
        outside = np.flatnonzero((succ < 0) | (succ >= size))
        if outside.size:
            e = int(outside[0])
            row = int(np.searchsorted(indptr, e, side="right")) - 1
            raise ChainError(f"row {row} names state {succ[e]}, outside the {size} states")
        self.size, self.scale = size, scale
        self.indptr, self.succ, self.num, self.absorb_num = indptr, succ, num, absorb_num

    @cached_property
    def _fractions(self) -> dict[int, Fraction]:
        """Each distinct numerator of the table over the scale, as one Fraction."""
        values = {*self.num.tolist(), *self.absorb_num.tolist()}
        return {v: Fraction(v, self.scale) for v in values}

    @cached_property
    def rows(self) -> tuple[dict[int, Fraction], ...]:
        probs = list(map(self._fractions.__getitem__, self.num.tolist()))
        states = list(range(self.size))  # one int object per state, shared by every row
        succ = list(map(states.__getitem__, self.succ.tolist()))
        return tuple(dict(zip(succ[s:e], probs[s:e])) for s, e in pairwise(self.indptr.tolist()))

    @cached_property
    def absorb(self) -> tuple[Fraction, ...]:
        return tuple(map(self._fractions.__getitem__, self.absorb_num.tolist()))


def _numerators(values, widest: int) -> np.ndarray:
    """Integers as int64 when ``widest`` bounds every sum of them below
    2**63, and as Python integers otherwise."""
    return np.array(values, dtype=np.int64 if widest < 1 << 63 else object)


@dataclass(frozen=True)
class ClassPartition:
    closed: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]


@dataclass(frozen=True)
class SolveStats:
    """One exact solve: its dimension, the unknowns it had before censoring
    (the reached class's size, plus the reached transient states when state
    0 reaches several classes), numeric lifts, fewest bits gained by a lift,
    largest gap from the first float solve to the certified solution,
    decimal digits of that solution's common denominator, nonzeros of the
    system, and how its residual was kept (``"int64"`` or ``"int"``)."""

    dim: int
    unreduced_dim: int
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
    It is held as integer ``numerators`` over one ``denominator``, reduced
    to lowest terms on construction; ``q`` gives it as Fractions, built on
    first read. ``solve`` describes the exact solve.
    """

    numerators: tuple[int, ...]
    denominator: int
    classes: ClassPartition
    unique: bool
    solve: SolveStats | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        g = gcd(self.denominator, *self.numerators)
        # it is frozen
        self.__dict__.update(
            numerators=tuple(v // g for v in self.numerators), denominator=self.denominator // g
        )

    @cached_property
    def q(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.denominator) for v in self.numerators)


def build_chain(ss: StateSpace, src: SourceModel) -> MarkovChain:
    """The chain of ``ss`` under ``src``: each support symbol's probability
    as an integer weight over the lcm of the denominators, summed over the
    symbols that share a successor and over the incrementing symbols."""
    if src.alphabet != ss.graph.alphabet:
        raise SourceError(
            f"source alphabet {src.alphabet} does not match graph alphabet"
            f" {ss.graph.alphabet}"
        )
    probs = [Fraction(p) for p in src.probabilities]
    scale = lcm(*(p.denominator for p in probs))
    support = [xi for xi, p in enumerate(probs) if p]
    # every merged entry and increment mass sums weights to at most the scale
    weights = _numerators([int(probs[xi] * scale) for xi in support], scale)
    # each row's support arcs by successor, merged where successors repeat
    succ = ss.succ[:, support]
    order = np.argsort(succ, axis=1, kind="stable")
    succ = np.take_along_axis(succ, order, axis=1)
    first = np.ones(succ.shape, dtype=bool)
    first[:, 1:] = succ[:, 1:] != succ[:, :-1]
    starts = np.flatnonzero(first)
    num = np.add.reduceat(weights[order].ravel(), starts)
    indptr = np.zeros(len(ss) + 1, dtype=np.intp)
    np.cumsum(first.sum(axis=1), out=indptr[1:])
    absorb_num = (ss.inc[:, support].astype(weights.dtype) * weights).sum(axis=1)
    return MarkovChain(len(ss), scale, indptr, succ.ravel()[starts], num, absorb_num)


def closed_classes(mc: MarkovChain) -> ClassPartition:
    """The chain's closed classes (the components no arc leaves), in the
    order ``strong_components`` completes them, and its transient states."""
    comp = np.array(strong_components(mc.indptr.tolist(), mc.succ.tolist()))
    source = np.repeat(comp, np.diff(mc.indptr))
    leaves = np.zeros(int(comp.max()) + 1, dtype=bool)
    leaves[source[comp[mc.succ] != source]] = True
    members = np.flatnonzero(~leaves[comp])
    order = np.argsort(comp[members], kind="stable")
    members, labels = members[order], comp[members[order]]
    splits = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    closed = tuple(tuple(c.tolist()) for c in np.split(members, splits))
    return ClassPartition(closed=closed, transient=tuple(np.flatnonzero(leaves[comp]).tolist()))


_MAX_FACTOR_BYTES = 2 << 30  # cap on the dense factor (n <= 16,384), checked first
_MANTISSA = 52  # integer bits a float64 holds exactly, less one for rounding
_INT64_ROW_LIMIT = 1 << 34  # int64 lifting below this sum of a row's |entries|, and |b_i|
_LAPACK_NAMES = ("scipy_{}_64_", "scipy_{}_", "{}_")  # in numpy's own builds, ILP64 first


@cache
def _lapack() -> tuple[ctypes._CFuncPtr, ctypes._CFuncPtr, type]:
    """dgetrf and dgetrs from the LAPACK that numpy itself links, and the
    C integer type they take (64 bits in an ILP64 build), bound on first use."""
    from numpy.linalg import _umath_linalg

    # a symbol lookup in this library also searches the OpenBLAS it links
    lib = ctypes.CDLL(_umath_linalg.__file__)
    index = ctypes.c_int64 if getattr(_umath_linalg, "_ilp64", False) else ctypes.c_int32
    ref, ptr = ctypes.POINTER(index), ctypes.c_void_p
    for name in _LAPACK_NAMES:
        try:
            getrf, getrs = getattr(lib, name.format("dgetrf")), getattr(lib, name.format("dgetrs"))
        except AttributeError:
            continue
        getrf.argtypes = [ref, ref, ptr, ref, ptr, ref]
        # dgetrs's last argument is the length of its one-character trans
        getrs.argtypes = [ctypes.c_char_p, ref, ref, ptr, ref, ptr, ptr, ref, ref, ctypes.c_size_t]
        getrf.restype = getrs.restype = None
        return getrf, getrs, index
    tried = ", ".join(name.format("d*") for name in _LAPACK_NAMES)
    raise ChainError(f"numpy's LAPACK exports no dgetrf and dgetrs as {tried}")


class _FloatLU:
    """PA = LU in float64 by LAPACK's dgetrf, pivoting over rows, in place
    in the Fortran-order array ``a``; ``solve`` runs dgetrs on it."""

    def __init__(self, a: np.ndarray):
        getrf, self._getrs, index = _lapack()
        # LAPACK reads a's column stride as its leading dimension: a C-order
        # array gives 1, which it refuses (info -4) instead of factoring A^T
        n, lda, info = index(len(a)), index(a.strides[1] // a.itemsize), index()
        self.lu, self.pivots, self._info = a, np.empty(len(a), dtype=index), info
        getrf(n, n, a.ctypes.data, lda, self.pivots.ctypes.data, info)
        if info.value > 0:
            raise ChainError("singular system in double precision (a zero pivot)")
        if info.value < 0:
            raise ChainError(f"LAPACK's dgetrf refused its argument {-info.value}")
        # dgetrs's n, nrhs, a, lda and ipiv: only what dgetrf accepted, so its info stays 0
        self._args = (n, index(1), a.ctypes.data, lda, self.pivots.ctypes.data)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The float x with A x = b."""
        x = np.array(b, dtype=np.float64)
        self._getrs(b"N", *self._args, x.ctypes.data, self._args[0], self._info, 1)
        return x


def _reconstruct(xs: list[int], shift: int) -> tuple[int, list[int]] | None:
    """Common-denominator rational reconstruction from approximations x/m,
    m = 2**shift.

    Builds d from one continued-fraction convergent of each x for which the
    d so far leaves d x more than sqrt(m)/2 from a multiple of m, and returns
    it with the numerators round(d x / m), or None once d exceeds sqrt(m)/2.
    The residues and the rounding are masks and shifts, since m is a power
    of two (a division of big ints would be a long division).
    """
    m = 1 << shift
    mask, half = m - 1, m >> 1
    bound = isqrt(m) >> 1
    d = 1
    for x in xs:
        y = d * x & mask
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
    return d, [(d * x + half) >> shift for x in xs]


def _matvec(a: tuple[np.ndarray, np.ndarray, np.ndarray], x: list[int]) -> list[int]:
    """Exact ``A x`` in Python integers, for A as CSR arrays (indptr, cols, vals)."""
    indptr, cols, vals = a
    cols, vals, get = cols.tolist(), vals.tolist(), x.__getitem__
    # row by row, so that only one row's products are alive at a time
    return [sum(map(mul, vals[s:e], map(get, cols[s:e]))) for s, e in pairwise(indptr.tolist())]


def _solve_exact(
    a: tuple[np.ndarray, np.ndarray, np.ndarray], b: list[int]
) -> tuple[int, list[int], SolveStats]:
    """Solve A x = b exactly for an integer right-hand side b.

    ``a`` gives the integer matrix A as CSR arrays (indptr, cols, vals): row
    i holds the nonzero entries ``indptr[i]:indptr[i + 1]``, in int64 or
    Python integers. Returns a common denominator d and the numerators of
    the solution. A is factored once in float64 by LAPACK's dgetrf
    (``_FloatLU``), and the solution is lifted numerically (Wan 2006): each
    lift rounds 2**K times the dgetrs solve y of the residual r to integers
    x, K as large as keeps them below 2**52, and updates the residual
    exactly to r' = 2**K r - A x. A solution is returned only after A num =
    d b has been checked in exact integer arithmetic for every row.

    The residual is one numpy array updated with one ``np.add.reduceat`` per
    lift. Its dtype is int64 when every row of A has sum_j |a_ij| < 2**34
    and every |b_i| lies below 2**34 too, and ``object`` (Python integers)
    otherwise, as for sources with denominators past 2**34; the power-of-two
    row scales share that dtype, so even huge entries divide to correctly
    rounded floats. Numpy's int64 products, sums and shifts are arithmetic
    mod 2**64 (a shift by 64 or more gives 0, which is 2**K r mod 2**64), so
    r' comes out exact whenever its true value lies below 2**63, however the
    terms overflow on the way. That value is r' = A (2**K y - x) + 2**K (r -
    A y). Rounding makes the first term at most sum_j |a_ij| / 2 in row i; a
    float solve with row-wise relative backward error e makes the second at
    most 2**K |y| e sum_j |a_ij|, below 2**52 e sum_j |a_ij|. With sum_j
    |a_ij| < 2**34 that gives |r'| < 2**63 for any e below 2**-24; a pivoted
    double-precision solve typically sits near n 2**-53. The row sum, not
    the widest entry, is what the bound needs: a row of a few 2**29 entries
    lifts in int64. Hadamard's row norms sum squares, which can pass 2**63
    under that limit, so they take Python integers whenever the widest
    entry's square times the row length could. A residual that wrapped
    anyway would only stop the lifts from converging: the certificate then
    refuses the system, and never passes a wrong answer.
    """
    indptr, cols, vals = a
    n = len(indptr) - 1
    if 8 * n * n > _MAX_FACTOR_BYTES:
        raise ChainError(
            f"a system of {n} unknowns needs {8 * n * n:,} bytes for its dense float"
            f" factor, above the limit of {_MAX_FACTOR_BYTES:,}"
        )
    counts = np.diff(indptr)
    if not counts.all():  # np.add.reduceat would read an empty row as its next entry
        raise ChainError(f"row {int(np.argmin(counts))} of the system has no entry")
    starts = indptr[:-1]
    magnitude = abs(vals)
    row_max = np.maximum.reduceat(magnitude, starts).tolist()
    widest = max(row_max + list(map(abs, b)))
    # below the limit, no entry and so no int64 row sum of at most n entries overflows
    narrow = widest < _INT64_ROW_LIMIT
    narrow = narrow and int(np.add.reduceat(magnitude, starts).max()) < _INT64_ROW_LIMIT
    dtype = np.int64 if narrow else object
    vals = vals.astype(dtype)
    rows = np.repeat(np.arange(n), counts)
    residual = np.array(b, dtype=dtype)
    # each row scaled by a power of two, to entries of magnitude at most 1
    scales = np.array([1 << v.bit_length() for v in row_max], dtype=dtype)
    dense = np.zeros((n, n), order="F")  # LAPACK's column-major order
    dense[rows, cols] = vals / scales[rows]
    # a row's sum of squares can pass 2**63 while its sum stays below the limit
    square = np.int64 if widest * widest * (int(counts.max()) + 1) < 1 << 63 else object
    wide, rhs = vals.astype(square), residual.astype(square)
    row_squares = np.add.reduceat(wide * wide, starts) + rhs * rhs
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
        candidate = _reconstruct(digits.tolist(), shift)
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
            return d, nums, SolveStats(n, n, lifts, fewest, float(gap), size, len(cols), kind)
    raise ChainError(f"no certified solution within the Hadamard bound of {max_shift} bits")


def _entries(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in a CSR table of the entries of ``rows``, row by row."""
    starts, counts = indptr[rows], indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _censor(
    size: int,
    src: np.ndarray,
    dst: np.ndarray,
    num: np.ndarray,
    scale: int,
    klass: np.ndarray,
    keep: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Eliminate every unknown whose balance row names exactly one
    predecessor, other than itself, then repeat on the censored chain.

    Arc k says that ``num[k] / scale`` of ``src[k]``'s share flows into
    ``dst[k]`` within one balance row, so an unknown j whose only predecessor
    is i has x_j = P_ij x_i (the stochastic complement of Meyer 1989; the
    state reduction of Grassmann, Taksar and Heyman 1985). ``klass`` names
    each reached closed state's class (-1 for a transient state), and
    ``keep`` is a state never eliminated (a transient state 0, whose row has
    a right-hand side). A class whose surviving members would all go (a pure
    cycle) keeps its largest. Each round resolves the new eliminations to
    their roots by pointer jumping. Returns ``root``, ``coef`` (Python
    integers) and ``power`` with x_s = coef[s] / scale**power[s] x_root[s];
    when nothing is eliminated, that is the identity: every state its own
    root, with coefficient 1 and power 0.
    """
    states = np.arange(size)
    root, alive = states.copy(), np.ones(size, dtype=bool)
    coef, power = np.ones(size, dtype=object), np.zeros(size, dtype=np.int64)
    closed = klass >= 0
    while True:
        live = alive[dst]  # arcs into eliminated states are done with
        src, dst, num = src[live], dst[live], num[live]
        source = root[src]
        # one root among each target's predecessors', and the arcs from any other
        sole = states.copy()
        sole[dst] = source
        mixed = np.bincount(dst[source != sole[dst]], minlength=size)
        cand = (mixed == 0) & (sole != states)
        if keep is not None:
            cand[keep] = False
        going = cand & closed
        members = np.bincount(klass[alive & closed], minlength=size)
        leaving = np.bincount(klass[going], minlength=size)
        pure = np.flatnonzero((leaving == members) & (members > 0))
        if pure.size:  # every survivor of these classes has one predecessor: keep the largest
            anchor = np.zeros(size, dtype=np.intp)
            np.maximum.at(anchor, klass[going], np.flatnonzero(going))
            cand[anchor[pure]] = False
        if not cand.any():
            break
        # x_j = sum over j's arcs of num/scale * coef/scale**power * x_root,
        # over the largest power of the scale among them
        arcs = cand[dst]
        j, i, w = dst[arcs], src[arcs], num[arcs]
        lifted = power[i] + 1
        top = np.zeros(size, dtype=np.int64)
        np.maximum.at(top, j, lifted)
        powers = np.array([scale**k for k in range(int(lifted.max()) + 1)], dtype=object)
        total = np.zeros(size, dtype=object)
        np.add.at(total, j, w.astype(object) * coef[i] * powers[top[j] - lifted])
        coef[cand], power[cand], root[cand] = total[cand], top[cand], sole[cand]
        alive[cand] = False
        # whole factors of the scale come out, so that an arc of probability 1
        # adds no power and a long path of them keeps its shares small
        fresh = np.flatnonzero(cand)
        while fresh.size:
            fresh = fresh[(power[fresh] > 0) & (coef[fresh] % scale == 0)]
            coef[fresh] //= scale
            power[fresh] -= 1
        # pointer jumping, each state's coefficient times its parent's: a
        # chain of parents halves each step, and one that never ends is a cycle
        for _ in range(size.bit_length() + 1):
            up = root[root]
            hop = np.flatnonzero(up != root)
            if not hop.size:
                break
            via = root[hop]
            coef[hop] = coef[hop] * coef[via]
            power[hop] += power[via]
            root[hop] = up[hop]
        else:
            raise ChainError(f"censoring met a cycle of single predecessors at state {hop[0]}")
    return root, coef, power


def _back_substitute(
    x: np.ndarray, d: int, scale: int, root: np.ndarray, coef: np.ndarray, power: np.ndarray
) -> tuple[np.ndarray, int]:
    """Every state's numerator over one common denominator, from the
    survivors' numerators ``x`` over ``d``: x_s = coef[s] / scale**power[s]
    x_root[s]. Returns the numerators (Python integers) and the denominator."""
    top = int(power.max())
    powers = np.array([scale**k for k in range(top + 1)], dtype=object)
    return coef * x[root] * powers[top - power], d * scale**top


def _certify(
    x: np.ndarray,
    d: int,
    scale: int,
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray],
    into: np.ndarray,
    last: np.ndarray,
    unknowns: np.ndarray,
    single: bool,
) -> None:
    """Raise ChainError unless the numerators ``x`` over ``d`` solve the
    original chain's equations in integers: every reached closed state's
    balance within its class and, with several reached classes, every
    reached transient state's expected visits and every class's entering
    mass. ``stationary`` checks the total mass 1."""
    src, dst, num = arcs
    size = len(x)
    # rows 0..size-1 balance each state; row size + c sets class c's mass,
    # which an arc from a transient state into the class draws on
    rows = np.zeros(2 * size, dtype=object)
    flow = np.where(into, -num, num).astype(object) * x[src]
    np.add.at(rows, np.where(into, size + last[dst], dst), flow)
    rows[unknowns] -= scale * x[unknowns]
    closed = unknowns[last[unknowns] >= 0]
    if not single:  # the walk starts at the transient state 0
        rows[0] += scale * d
        np.add.at(rows, size + last[closed], scale * x[closed])
    if rows.any():
        bad = int(np.flatnonzero(rows)[0])
        raise ChainError(
            f"the back-substituted law fails the original chain's"
            f" {'balance' if bad < size else 'class mass'} equation of state {bad % size}"
        )


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
    class. Rows are integers over the lcm of the unknowns' row denominators
    (the chain's scale over the gcd of it and their numerators), save a lone
    reached class's mass row, which reads sum_i x_i = 1.

    Before the solve, the system is censored: an unknown whose row names a
    single predecessor i other than itself has x_j = P_ij x_i, and leaves
    the system (``_censor``; repeated while the censored chain has such
    states). A chain without such states censors to the identity, and every
    system takes the same steps: the survivors' system substitutes each
    eliminated share by its root's, with the class mass row at the class's
    last survivor and each row over the largest power of the scale among its
    entries, divided by its gcd. The eliminated shares are back-substituted
    in exact integers over one common denominator, and the full law is then
    certified on the original chain's equations (``_certify``), so a fault
    in the censoring or the solve raises ChainError instead of passing.
    ``solve.dim`` counts the unknowns solved, ``solve.unreduced_dim`` those
    before censoring.
    """
    classes = closed_classes(mc)
    indptr, succ = mc.indptr, mc.succ
    comps = [comp for comp in classes.closed if comp[0] == 0]  # the class holding 0
    if not comps:  # 0 is transient: the classes it reaches
        reached = np.zeros(mc.size, dtype=bool)
        reached[0], frontier = True, np.zeros(1, dtype=np.intp)
        while frontier.size:
            targets = succ[_entries(indptr, frontier)]
            frontier = targets[~reached[targets]]  # repeats are gathered twice, never kept
            reached[frontier] = True
        comps = [comp for comp in classes.closed if reached[comp[0]]]
    last = np.full(mc.size, -1, dtype=np.intp)  # last member of a reached closed state's class
    for comp in comps:
        last[list(comp)] = comp[-1]
    closed = np.flatnonzero(last >= 0)
    single = len(comps) == 1
    unknowns = closed if single else np.flatnonzero(reached)
    e = _entries(indptr, unknowns)
    i, t, num = np.repeat(unknowns, np.diff(indptr)[unknowns]), succ[e], mc.num[e]
    common = gcd(mc.scale, *set(num.tolist()))
    scale, num = mc.scale // common, num // common
    # an arc from a transient state into a class enters the class's mass
    # row, negated; every other arc enters its target's balance row
    into = (last[t] >= 0) & (last[i] < 0)
    pinned = None if single else 0  # a transient state 0 has a right-hand side
    root, coef, power = _censor(mc.size, i[~into], t[~into], num[~into], scale, last, pinned)
    survivor = root == np.arange(mc.size)
    # the row of each class's mass: its last member that stays
    anchor = np.full(mc.size, -1, dtype=np.intp)
    kept = closed[survivor[closed]]
    np.maximum.at(anchor, last[kept], kept)
    anchor = np.where(last >= 0, anchor[last], -1)
    solved = unknowns[survivor[unknowns]]
    m = len(solved)
    col = np.full(mc.size, -1, dtype=np.intp)
    col[solved] = np.arange(m)
    # a balance row for each solved state but its class's anchor
    keep = into | (survivor[t] & (t != anchor[t]))
    balanced = solved[anchor[solved] != solved]  # rows with -scale on the diagonal
    unit = 1 if single else scale  # a mass row's entry for each member
    row = np.concatenate([np.where(into, anchor[t], t)[keep], balanced, anchor[closed]])
    column = np.concatenate([i[keep], balanced, closed])
    value = np.concatenate(
        [
            np.where(into, -num, num)[keep],
            np.full(len(balanced), -scale, dtype=num.dtype),
            np.full(len(closed), unit, dtype=num.dtype),
        ]
    )
    # each eliminated share as its root's times coef / scale**power, and
    # each row over the largest such power in it; no entry then exceeds
    # scale**(max power + 1) * max coef, so int64 sums hold them below
    widest = len(value) * scale ** (int(power.max()) + 1) * max(coef.tolist())
    dtype = np.int64 if widest < 1 << 63 else object
    value = value.astype(dtype) * coef.astype(dtype)[column]
    lifted, column = power[column], root[column]
    top = np.zeros(m, dtype=np.int64)
    np.maximum.at(top, col[row], lifted)
    powers = np.array([scale**k for k in range(int(top.max()) + 1)], dtype=dtype)
    value *= powers[top[col[row]] - lifted]
    b = np.zeros(m, dtype=dtype)
    if single:  # the one reached class holds all the mass
        b[col[anchor[comps[0][-1]]]] = 1
    else:  # state 0 is transient, and the walk starts there
        b[col[0]] = -scale
    b *= powers[top]
    # CSR over the solved unknowns, entries at the same place summed, each
    # row with its right-hand side over its gcd
    key = col[row] * m + col[column]
    order = np.argsort(key, kind="stable")
    key = key[order]
    firsts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    system_indptr = np.searchsorted(key[firsts], np.arange(m + 1) * m)
    vals = np.add.reduceat(value[order], firsts)
    g = np.gcd(np.gcd.reduceat(vals, system_indptr[:-1]), b)
    vals, b = vals // np.repeat(g, np.diff(system_indptr)), b // g
    d, nums, stats = _solve_exact((system_indptr, key[firsts] % m, vals), b.tolist())
    x = np.zeros(mc.size, dtype=object)
    x[solved] = nums
    x, d = _back_substitute(x, d, scale, root, coef, power)
    _certify(x, d, scale, (i, t, num), into, last, unknowns, single)
    stats = replace(stats, unreduced_dim=len(unknowns))
    total = x[closed].sum()
    if total != d:
        raise ChainError(f"long-run mass sums to {Fraction(total, d)}, not 1")
    x[last < 0] = 0  # a transient state's expected visits are no mass
    unique = len(classes.closed) == 1
    return StationaryDistribution(x.tolist(), d, classes, unique, stats)


def distortion_rate(mc: MarkovChain, sd: StationaryDistribution) -> Fraction:
    """The stationary expectation of the increment mass, as one integer dot
    product of the law's numerators with the chain's increment numerators,
    over the law's denominator times the chain's scale."""
    dot = sum(map(mul, sd.numerators, mc.absorb_num.tolist()))
    return Fraction(dot, sd.denominator * mc.scale)


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
        from .rd import blahut, source_entropy

        if rate is None:
            raise SourceError("rate comparison requires uniform out-degree")
        probs = [float(p) for p in src.probabilities]
        h = source_entropy(probs)
        if rate.approx > h:  # D(R) = 0 above the entropy, where blahut's range ends
            rd_point = blahut(probs, h)._replace(rate=rate.approx)
        else:
            rd_point = blahut(probs, rate.approx)
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
