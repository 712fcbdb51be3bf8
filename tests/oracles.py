"""Independent checks used only by tests: the zero state, a per-arc scalar
transition and breadth-first enumeration, the tuple, dict and Tarjan forms
of the enumeration, the chain and the class split that the integer tables
replaced, tuple views of a state space and a chain built from Fraction rows,
the orbit loop and Fraction-dict lumping that the symmetry quotient
replaced, checks of the enumerated state space, a dense fraction-free
(Bareiss) solve of the chain's linear systems, a modular p-adic (Dixon)
solver with the contract of the production exact solver, and the
Blahut-Arimoto iteration whose fixed point the rate-distortion module
computes in closed form, and the one-step-at-a-time Monte Carlo walk over a
tuple-keyed explorer that the lockstep walk replaced, and the search of
every source word among the sampling thresholds that the top-bits table
replaced."""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise
from math import exp, isqrt, lcm, log
from operator import mul
from typing import NamedTuple

import numpy as np

from tcq.chain import ClassPartition, MarkovChain, SourceModel, _numerators
from tcq.errors import ChainError, NotInvariantError, NotLumpableError, PartitionError
from tcq.graph import LabeledGraph
from tcq.statespace import StateSpace
from tcq import viterbi
from tcq.sim import _CHUNK, _worker_ranges, random_words, source_thresholds
from tcq.symmetry import FiberPartition, Permutation, PermutationGroup
from tcq.viterbi import StateVector, advance


def zero_state(g: LabeledGraph) -> StateVector:
    """The all-zero cost vector, where every walk starts."""
    return (0,) * g.num_vertices


def transition(g: LabeledGraph, s: StateVector, x: str) -> StateVector:
    """The cost update in plain Python, one vertex at a time: new cost into
    v = min over in-edges (u, e) of v of s(u) + hamming(x, label(e))."""
    out = []
    for v, pairs in enumerate(g.incoming_edges):
        if not pairs:
            raise ValueError(f"vertex {g.vertices[v]!r} has no incoming edge")
        out.append(min(s[u] + (g.edges[ei].label != x) for u, ei in pairs))
    return tuple(out)


def reduced_transition(g: LabeledGraph, s: StateVector, x: str) -> tuple[StateVector, int]:
    t = transition(g, s, x)
    m = min(t)
    return tuple(c - m for c in t), m


def enumerate_arcs(g: LabeledGraph):
    """Breadth-first closure from the zero vector, one (state, symbol) arc
    at a time: returns the states and arcs in discovery order."""
    zero = (0,) * g.num_vertices
    states, index, arcs = [zero], {zero: 0}, []
    si = 0
    while si < len(states):
        row = []
        for xi, x in enumerate(g.alphabet):
            nxt, inc = reduced_transition(g, states[si], x)
            ti = index.get(nxt)
            if ti is None:
                ti = index[nxt] = len(states)
                states.append(nxt)
            row.append((ti, inc))
        arcs.append(tuple(row))
        si += 1
    return tuple(states), tuple(arcs)


def enumerate_tuples(g: LabeledGraph, block: int = 2048):
    """Breadth-first closure from the zero vector, a block of the queue at a
    time through ``viterbi.advance``, each state's arcs kept as a tuple of
    (successor, increment) pairs: returns the states and arcs."""
    n_sym = len(g.alphabet)
    zero = (0,) * g.num_vertices
    states, index, arcs = [zero], {zero: 0}, []
    lo = 0
    while lo < len(states):
        hi = min(lo + block, len(states))
        t, inc = advance(g, np.array(states[lo:hi], dtype=np.int64))
        succ = []
        for key in map(tuple, t.reshape(-1, g.num_vertices).tolist()):
            ti = index.get(key)
            if ti is None:
                ti = index[key] = len(states)
                states.append(key)
            succ.append(ti)
        pairs = zip(succ, inc.ravel().tolist())
        arcs.extend(zip(*[pairs] * n_sym))  # one tuple of n_sym arcs per state
        lo = hi
    return tuple(states), tuple(arcs)


def chain_dicts(arcs, src: SourceModel):
    """The chain of an arc table as {successor: Fraction} rows and
    increment masses, summed one arc at a time over integer weights."""
    probs = [Fraction(p) for p in src.probabilities]
    scale = lcm(*(p.denominator for p in probs))
    weights = [(xi, p.numerator * (scale // p.denominator)) for xi, p in enumerate(probs) if p]
    rows, absorb = [], []
    for arc_row in arcs:
        nums: dict[int, int] = {}  # successor -> numerator of its probability
        increments = 0
        for xi, w in weights:
            ti, inc = arc_row[xi]
            nums[ti] = nums.get(ti, 0) + w
            increments += inc * w
        rows.append({ti: Fraction(num, scale) for ti, num in nums.items()})
        absorb.append(Fraction(increments, scale))
    return tuple(rows), tuple(absorb)


def tuple_states(ss: StateSpace) -> tuple[StateVector, ...]:
    """The state vectors as tuples of ints, in discovery order."""
    return tuple(map(tuple, ss.vectors.tolist()))


def state_index(ss: StateSpace) -> dict[StateVector, int]:
    """State vector -> its index."""
    return {s: i for i, s in enumerate(tuple_states(ss))}


def tuple_arcs(ss: StateSpace) -> tuple[tuple[tuple[int, int], ...], ...]:
    """arcs[state][symbol index] = (successor state index, increment)."""
    return tuple(map(tuple, map(zip, ss.succ.tolist(), ss.inc.tolist())))


def chain_from_rows(rows, absorb) -> MarkovChain:
    """The chain of {successor: Fraction} rows and increment masses, one of
    each per state, as the integer table over the lcm of their denominators."""
    entries = [sorted(row.items()) for row in rows]
    denominators = {f.denominator for row in rows for f in row.values()}
    scale = lcm(*denominators, *(a.denominator for a in absorb))
    num = [f.numerator * (scale // f.denominator) for row in entries for _, f in row]
    absorb_num = [a.numerator * (scale // a.denominator) for a in absorb]
    widest = max(max(map(len, rows), default=0), 1) * max(map(abs, [scale, *num, *absorb_num]))
    return MarkovChain(
        len(rows),
        scale,
        np.cumsum([0, *map(len, rows)]),
        np.array([t for row in entries for t, _ in row], dtype=np.intp),
        _numerators(num, widest),
        _numerators(absorb_num, widest),
    )


def apply_to_state(p: Permutation, s: StateVector) -> StateVector:
    """Relabelled state: component v reads the score of vertex p(v)."""
    return tuple(s[p[v]] for v in range(len(s)))


def orbit_fibers(ss: StateSpace, group: PermutationGroup) -> FiberPartition:
    """Orbit partition of the tuple states, one state and element at a time,
    with the errors of ``symmetry.induced_fibers``."""
    if group.degree != ss.graph.num_vertices:
        raise NotInvariantError(
            f"permutations act on {group.degree} points,"
            f" graph has {ss.graph.num_vertices} vertices"
        )
    states, index = tuple_states(ss), state_index(ss)
    fiber_of = [-1] * len(states)
    fibers: list[tuple[int, ...]] = []
    for i, s in enumerate(states):
        if fiber_of[i] != -1:
            continue
        orbit: set[int] = set()
        for p in group.elements:
            image = apply_to_state(p, s)
            if image not in index:
                raise NotInvariantError(
                    f"permutation {p} maps state {s} to {image}, which is outside the state space"
                )
            orbit.add(index[image])
        fi = len(fibers)
        fibers.append(tuple(sorted(orbit)))
        for j in sorted(orbit):
            if fiber_of[j] != -1:
                raise PartitionError(
                    f"state {j} lies in orbits {fiber_of[j]} and {fi};"
                    " the permutations do not form a group"
                )
            fiber_of[j] = fi
    return FiberPartition(fibers=tuple(fibers), fiber_of=tuple(fiber_of))


def lumped_dicts(ss: StateSpace, src: SourceModel, fp: FiberPartition):
    """The quotient over the fibers as {target fiber: Fraction} rows and
    increment masses, from ``chain_dicts`` one member at a time, or the
    ``NotLumpableError`` of ``symmetry.quotient``."""
    rows, absorb = chain_dicts(tuple_arcs(ss), src)

    def profile(i: int) -> tuple[dict[int, Fraction], Fraction]:
        mass: dict[int, Fraction] = {}
        for ti, p in sorted(rows[i].items()):
            tf = fp.fiber_of[ti]
            mass[tf] = mass.get(tf, Fraction(0)) + p
        return mass, absorb[i]

    quotient_rows, quotient_absorb = [], []
    for fi, fiber in enumerate(fp.fibers):
        ref_mass, ref_absorb = profile(fiber[0])
        for member in fiber[1:]:
            mass, a = profile(member)
            if mass != ref_mass:
                raise NotLumpableError(
                    fi, fiber[0], member, f"target-fiber masses differ: {ref_mass} vs {mass}"
                )
            if a != ref_absorb:
                raise NotLumpableError(
                    fi, fiber[0], member, f"increment masses differ: {ref_absorb} vs {a}"
                )
        quotient_rows.append(ref_mass)
        quotient_absorb.append(ref_absorb)
    return tuple(quotient_rows), tuple(quotient_absorb)


def tarjan_components(n: int, adj) -> list[list[int]]:
    """Iterative Tarjan; components are returned in reverse topological order."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]  # explicit DFS stack of (vertex, next-child position)
        while work:
            v, ci = work[-1]
            if ci == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if ci < len(adj[v]):
                work[-1] = (v, ci + 1)
                w = adj[v][ci]
                if index_of[w] == -1:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def tarjan_closed_classes(rows) -> ClassPartition:
    """The closed classes of {successor: probability} rows, in Tarjan's
    order, and the transient states."""
    comps = tarjan_components(len(rows), [sorted(row) for row in rows])
    closed: list[tuple[int, ...]] = []
    transient: list[int] = []
    for comp in comps:
        members = set(comp)
        if all(t in members for i in comp for t in rows[i]):
            closed.append(tuple(sorted(comp)))
        else:
            transient.extend(comp)
    return ClassPartition(closed=tuple(closed), transient=tuple(sorted(transient)))


class MembershipResult(NamedTuple):
    in_space: bool
    incremented: bool


def check_component_bound(ss: StateSpace) -> bool:
    """True iff every component of every state is at most k."""
    return all(max(s) <= ss.k for s in tuple_states(ss))


def membership_increment(ss: StateSpace, s: StateVector, x: str) -> MembershipResult:
    """Whether the unreduced successor of (s, x) stays inside the space.

    It leaves the space exactly when the step increments: the unreduced
    successor has minimum component > 0 iff the arc's increment is 1.
    Both facts are recomputed here and asserted to agree.
    """
    index = state_index(ss)
    si = index.get(s)
    if si is None:
        raise KeyError(f"state {s} is not in the enumerated space")
    inc = int(ss.inc[si, ss.graph.symbol_index[x]])
    unreduced = transition(ss.graph, s, x)
    in_space = unreduced in index
    assert (inc == 1) == (min(unreduced) > 0) == (not in_space), (
        "membership/increment equivalence violated"
    )
    return MembershipResult(in_space=in_space, incremented=inc == 1)


def solve_integer(aug: list[list[int]]) -> list[Fraction]:
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


def clear_denominators(rows: list[list[Fraction]]) -> list[list[int]]:
    out: list[list[int]] = []
    for row in rows:
        scale = lcm(*(f.denominator for f in row)) if row else 1
        out.append([int(f * scale) for f in row])
    return out


def bareiss_stationary(mc: MarkovChain) -> tuple[Fraction, ...]:
    """The long-run law from state 0, from dense balance and absorption
    systems solved by :func:`solve_integer` (O(n**3) big-integer steps)."""
    classes = tarjan_closed_classes(mc.rows)
    q = [Fraction(0)] * mc.size
    # from inside a closed class the walk stays there; from a transient
    # state, (I - Q) h = r with r the one-step mass into each class in turn
    weights = [Fraction(int(0 in comp)) for comp in classes.closed]
    if not any(weights):
        trans = classes.transient
        pos = {s: i for i, s in enumerate(trans)}
        t = len(trans)
        for ci, comp in enumerate(classes.closed):
            rows = []
            for i, s in enumerate(trans):
                row = [Fraction(0)] * (t + 1)
                row[i] += 1
                for target, p in mc.rows[s].items():
                    if target in pos:
                        row[pos[target]] -= p
                    elif target in comp:
                        row[t] += p
                rows.append(row)
            weights[ci] = solve_integer(clear_denominators(rows))[pos[0]]
    for w, comp in zip(weights, classes.closed):
        if w == 0:
            continue
        m = len(comp)
        rows = []
        # balance equations for all targets but the last, then normalization
        for j in range(m - 1):
            row = [Fraction(0)] * (m + 1)
            row[j] -= 1
            for i, s in enumerate(comp):
                row[i] += mc.rows[s].get(comp[j], 0)
            rows.append(row)
        rows.append([Fraction(1)] * (m + 1))
        for s, mass in zip(comp, solve_integer(clear_denominators(rows))):
            q[s] += w * mass
    return tuple(q)


# Word-size primes below 2**31: residues and their products fit in int64.
DIXON_PRIMES = (2147483647, 2147483629, 2147483587)


def _modular_lu(a: np.ndarray, p: int) -> np.ndarray | None:
    """Factor ``a`` (int64 entries in [0, p)) in place as PA = LU modulo
    ``p`` and return the row order, or None when it is singular modulo p."""
    n = len(a)
    perm = np.arange(n)
    for k in range(n):
        nz = np.flatnonzero(a[k:, k])
        if nz.size == 0:
            return None
        piv = k + int(nz[0])
        a[[k, piv]] = a[[piv, k]]
        perm[[k, piv]] = perm[[piv, k]]
        rows = k + 1 + np.flatnonzero(a[k + 1 :, k])
        if rows.size:
            factors = a[rows, k] * pow(int(a[k, k]), -1, p) % p
            a[rows, k] = factors
            a[rows, k + 1 :] = (a[rows, k + 1 :] - factors[:, None] * a[k, k + 1 :] % p) % p
    return perm


def _modular_solve(lu: np.ndarray, perm: np.ndarray, r: list[int], p: int) -> list[int]:
    """The x with A x = r modulo p, by substitution one column at a time."""
    n = len(lu)
    y = np.array([v % p for v in r], dtype=np.int64)[perm]
    for j in range(n):
        y[j + 1 :] = (y[j + 1 :] - lu[j + 1 :, j] * y[j]) % p
    for j in reversed(range(n)):
        y[j] = y[j] * pow(int(lu[j, j]), -1, p) % p
        y[:j] = (y[:j] - lu[:j, j] * y[j]) % p
    return y.tolist()


def wang_reconstruct(xs: list[int], m: int) -> tuple[int, list[int]] | None:
    """Common-denominator rational reconstruction (Wang 1981) modulo ``m``:
    d and numerators n_i = d x_i (mod m) with every |n_i| and d at most
    sqrt(m/2), or None when there are none."""
    bound = isqrt((m - 1) // 2)
    d = 1
    for x in xs:
        y = d * x % m
        if y <= bound or m - y <= bound:
            continue
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


def dixon_solve(a: tuple[np.ndarray, ...], b: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Solve A x = b exactly, for A as integer CSR arrays (indptr, cols,
    vals) and each integer right-hand side in ``b``, by p-adic lifting
    (Dixon 1982) from one modular LU: the common denominator d and the
    numerators of each solution, checked as A num = d b in exact arithmetic."""
    indptr, cols, vals = (x.tolist() for x in a)
    a = [(cols[s:e], vals[s:e]) for s, e in pairwise(indptr)]
    n = len(a)

    def matvec(x: list[int]) -> list[int]:
        return [sum(map(mul, vals, (x[c] for c in cols))) for cols, vals in a]

    for p in DIXON_PRIMES:
        dense = np.zeros((n, n), dtype=np.int64)
        for i, (cols, vals) in enumerate(a):
            dense[i, list(cols)] = [v % p for v in vals]
        perm = _modular_lu(dense, p)
        if perm is not None:
            break
    else:
        raise ChainError("singular system")
    # Hadamard's bound on the minors of (A | b), in bits: past
    # p**lifts > 2 * 2**(2 * bits) the solution is the only candidate
    bits = sum(
        (sum(v * v for v in vals) + max(bc[i] ** 2 for bc in b)).bit_length() // 2 + 1
        for i, (_, vals) in enumerate(a)
    )
    residual = [bc[:] for bc in b]
    digits = [[0] * n for _ in b]
    modulus = 1
    for _ in range(2 * bits // 30 + 3):
        for c, rc in enumerate(residual):
            xc = _modular_solve(dense, perm, rc, p)
            diff = [v - w for v, w in zip(rc, matvec(xc))]
            if any(v % p for v in diff):
                raise ChainError("p-adic lift lost exactness")
            residual[c] = [v // p for v in diff]
            digits[c] = [v + s * modulus for v, s in zip(digits[c], xc)]
        modulus *= p
        found = wang_reconstruct([x for col in digits for x in col], modulus)
        if found is not None:
            d, nums = found
            cols = [nums[c * n : (c + 1) * n] for c in range(len(b))]
            if all(matvec(col) == [d * v for v in bc] for col, bc in zip(cols, b)):
                return d, cols
    raise ChainError("no certified solution within the Hadamard bound")


def blahut_arimoto_point(p: np.ndarray, lam: float) -> tuple[float, float]:
    """(rate bits, distortion) on the Hamming rate-distortion curve at slope
    lam, by Blahut's alternating minimization (Blahut 1972) from the uniform
    reproduction. It iterates until the certified gap ln(max_k c_k) drops
    below 1e-9 ln 2, which puts R + lam D / ln 2 within 1e-9 bits of its
    minimum; R and D alone can be further off near a support breakpoint."""
    a = exp(-lam)
    q = np.full(p.size, 1.0 / p.size)
    for _ in range(200_000):
        denom = a * q.sum() + (1.0 - a) * q
        ratio = p / denom
        c = a * ratio.sum() + (1.0 - a) * ratio
        q = q * c
        q /= q.sum()
        if log(float(c.max())) <= 1e-9 * log(2.0):
            denom = a * q.sum() + (1.0 - a) * q
            d = 1.0 - float((p * q / denom).sum())
            rate_nats = -lam * d - float((p * np.log(denom)).sum())
            return max(rate_nats / log(2.0), 0.0), d
    raise AssertionError("no convergence to a gap of 1e-9 bits in 200,000 iterations")


class Explorer:
    """Reduced states of one graph, interned in the order a walk first takes
    them with the zero vector first (``index`` maps a vector to its
    position). ``rows[i][xi]`` is the arc (successor, increment) of state i
    under symbol xi, None until ``arc`` computes it.

    A state's first miss computes that one arc through
    ``viterbi.reduced_transition``; its next miss expands every symbol in one
    ``viterbi.advance`` call into ``blocks[i]`` (the increments, then the
    successor vectors, in symbol order), which later misses read until the
    row is full. Only the successor asked for is interned."""

    def __init__(self, g: LabeledGraph):
        self.graph = g
        zero = zero_state(g)
        self.states: list[StateVector] = [zero]
        self.index: dict[StateVector, int] = {zero: 0}
        self.rows: list[list[tuple[int, int] | None]] = [[None] * len(g.alphabet)]
        self.blocks: dict[int, list[int]] = {}

    def arc(self, si: int, xi: int) -> tuple[int, int]:
        g = self.graph
        row = self.rows[si]
        if not any(row):
            nxt, inc = viterbi.reduced_transition(g, self.states[si], g.alphabet[xi])
        else:
            block = self.blocks.get(si)
            if block is None:
                s = self.states[si]
                t, incs = viterbi.advance(g, np.array(s, dtype=viterbi.holding(0, max(s) + 1)))
                block = self.blocks[si] = incs.tolist() + t.ravel().tolist()
            if row.count(None) == 1:  # this arc fills the row
                del self.blocks[si]
            v = g.num_vertices
            lo = len(row) + xi * v
            nxt, inc = tuple(block[lo : lo + v]), block[xi]
        ti = self.index.get(nxt)
        if ti is None:
            ti = len(self.states)
            self.index[nxt] = ti
            self.states.append(nxt)
            self.rows.append([None] * len(g.alphabet))
        entry = (ti, inc)
        row[xi] = entry
        return entry


def walk_increments(g: LabeledGraph, n: int, seed: int, workers: int) -> np.ndarray:
    """The increments of ``sim.simulate``'s walk under the uniform source,
    one step at a time: each worker range starts from the zero state and
    reads each arc from its ``Explorer`` row, computing it on a miss. The
    symbols are picked by ``searched_symbols``."""
    bounds, support = source_thresholds(SourceModel.uniform(g.alphabet))
    explorer = Explorer(g)
    rows, arc = explorer.rows, explorer.arc
    buf = bytearray(n)
    for start, stop in _worker_ranges(n, workers):
        si, row = 0, rows[0]
        for cs in range(start, stop, _CHUNK):
            ce = min(cs + _CHUNK, stop)
            xs = searched_symbols(random_words(seed, cs, ce), bounds, support)
            for pos, xi in enumerate(xs.tolist(), cs):
                step = row[xi]
                if step is None:
                    step = arc(si, xi)
                si, buf[pos] = step
                row = rows[si]
    return np.frombuffer(buf, dtype=np.uint8)


def searched_symbols(u: np.ndarray, bounds: np.ndarray, support: list[int]) -> np.ndarray:
    """The alphabet index that each uint64 word of ``u`` picks, by a search
    of every word among ``bounds``: ``support[k]``, k the number of bounds
    at most the word."""
    picks = np.searchsorted(bounds, u, side="right")
    return np.asarray(support, dtype=viterbi.holding(0, support[-1]))[picks]
