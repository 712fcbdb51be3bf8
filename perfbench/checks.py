"""Output checks shared by the workloads and by ``make_corpus.py``."""

from __future__ import annotations

import hashlib
from fractions import Fraction


class CheckFailed(Exception):
    """An operation returned a wrong or uncertified result."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def certify(mc, q, claimed: Fraction) -> None:
    """Certify a distortion value in exact arithmetic.

    ``q`` must be a probability vector that the chain ``mc`` (a
    ``tcq.MarkovChain``, full or quotient) maps to itself, and ``claimed``
    must equal the stationary expectation of the increment mass.
    """
    expect(len(q) == mc.size, f"law has {len(q)} entries for {mc.size} states")
    expect(all(x >= 0 for x in q), "law has a negative entry")
    expect(sum(q) == 1, "law does not sum to 1")
    flow = [Fraction(0)] * mc.size
    for qi, row in zip(q, mc.rows):
        if qi:
            for j, p in row.items():
                flow[j] += qi * p
    bad = next((j for j in range(mc.size) if flow[j] != q[j]), None)
    expect(bad is None, f"balance equation {bad} fails")
    d = sum((qi * a for qi, a in zip(q, mc.absorb)), Fraction(0))
    expect(d == claimed, f"certified D = {d}, reported {claimed}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
