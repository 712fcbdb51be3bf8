"""Markov chain induced on the state space by a memoryless source.

Everything here is exact rational arithmetic. The per-step distortion rate
is the stationary expectation of the arc increments; linear systems are
solved by fraction-free elimination on integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING

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
        for i, row in enumerate(self.rows):
            if sum(row.values()) != 1 or min(row.values()) <= 0:
                raise ChainError(f"row {i} is not positive entries summing to 1")


@dataclass(frozen=True)
class ClassPartition:
    closed: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]


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


def build_chain(ss: StateSpace, src: SourceModel) -> MarkovChain:
    if src.alphabet != ss.graph.alphabet:
        raise SourceError(
            f"source alphabet {src.alphabet} does not match graph alphabet"
            f" {ss.graph.alphabet}"
        )
    rows: list[dict[int, Fraction]] = []
    absorb: list[Fraction] = []
    for arc_row in ss.arcs:
        row: dict[int, Fraction] = {}
        mass = Fraction(0)
        for xi, (ti, inc) in enumerate(arc_row):
            p = src.probabilities[xi]
            if p == 0:
                continue
            row[ti] = row.get(ti, Fraction(0)) + p
            if inc:
                mass += p
        rows.append(row)
        absorb.append(mass)
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


def _solve_integer(aug: list[list[int]]) -> list[Fraction]:
    """Solve a nonsingular integer system given as an n x (n+1) augmented
    matrix, by fraction-free (Bareiss) elimination and exact back substitution.
    """
    n = len(aug)
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot is None:
            raise ChainError("singular system")
        if pivot != k:
            aug[k], aug[pivot] = aug[pivot], aug[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                aug[i][j] = (aug[i][j] * aug[k][k] - aug[i][k] * aug[k][j]) // prev
            aug[i][k] = 0
        prev = aug[k][k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return x


def _clear_denominators(rows: list[list[Fraction]]) -> list[list[int]]:
    out: list[list[int]] = []
    for row in rows:
        scale = lcm(*(f.denominator for f in row)) if row else 1
        out.append([int(f * scale) for f in row])
    return out


def _class_stationary(mc: MarkovChain, members: tuple[int, ...]) -> list[Fraction]:
    """Stationary law of the chain restricted to one closed class."""
    m = len(members)
    rows: list[list[Fraction]] = []
    # balance equations for all targets but the last (one is redundant)
    for j in range(m - 1):
        row = [Fraction(0)] * m + [Fraction(0)]
        row[j] -= 1
        for i, s in enumerate(members):
            p = mc.rows[s].get(members[j])
            if p is not None:
                row[i] += p
        rows.append(row)
    rows.append([Fraction(1)] * m + [Fraction(1)])  # normalization
    return _solve_integer(_clear_denominators(rows))


def _absorption_probabilities(
    mc: MarkovChain, classes: ClassPartition
) -> list[Fraction]:
    """Probability, from state 0, of ending in each closed class."""
    for ci, comp in enumerate(classes.closed):
        if 0 in comp:
            return [Fraction(int(i == ci)) for i in range(len(classes.closed))]
    trans = classes.transient
    pos = {s: i for i, s in enumerate(trans)}
    t = len(trans)
    out: list[Fraction] = []
    for comp in classes.closed:
        members = set(comp)
        rows: list[list[Fraction]] = []
        # (I - Q) h = r with r the one-step mass into this class
        for i, s in enumerate(trans):
            row = [Fraction(0)] * t + [Fraction(0)]
            row[i] += 1
            for target, p in mc.rows[s].items():
                if target in pos:
                    row[pos[target]] -= p
                elif target in members:
                    row[t] += p
            rows.append(row)
        h = _solve_integer(_clear_denominators(rows))
        out.append(h[pos[0]])
    if sum(out) != 1:
        raise ChainError(f"absorption probabilities sum to {sum(out)}, not 1")
    return out


def stationary(mc: MarkovChain) -> StationaryDistribution:
    classes = closed_classes(mc)
    q = [Fraction(0)] * mc.size
    if len(classes.closed) == 1:
        weights = [Fraction(1)]
    else:
        weights = _absorption_probabilities(mc, classes)
    for w, comp in zip(weights, classes.closed):
        if w == 0:
            continue
        pi = _class_stationary(mc, comp)
        for s, mass in zip(comp, pi):
            q[s] += w * mass
    if sum(q) != 1:
        raise ChainError(f"stationary mass sums to {sum(q)}, not 1")
    return StationaryDistribution(
        q=tuple(q), classes=classes, unique=len(classes.closed) == 1
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
    rd_tol: float = 1e-9,
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
        rd_point = blahut(
            [float(p) for p in src.probabilities], rate.approx, tol=rd_tol
        )
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
