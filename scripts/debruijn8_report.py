#!/usr/bin/env python3
"""Full report on the bundled 8-vertex example code.

Runs the exact pipeline, the symmetry quotient, and the distortion-rate
baseline, and optionally cross-checks with one Monte Carlo run:

    python3 scripts/debruijn8_report.py --n 1000000 --seed 0
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from tcq import (
    SourceModel,
    analyze,
    blahut,
    debruijn8_demo,
    enumerate_states,
    fiber_representatives,
    gap_report,
    induced_fibers,
    quotient,
    quotient_analyze,
    simulate,
    xor_translation_group,
    z_score,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=0, help="Monte Carlo steps (0: skip)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    g = debruijn8_demo()
    src = SourceModel.uniform(g.alphabet)
    report = analyze(g, src, with_rd=True)
    print(f"states: {report.state_count}  (exact-path constant {report.k})")
    print(f"D(G) = {report.distortion} = {report.distortion_decimal}")

    ss = enumerate_states(g)
    fp = induced_fibers(ss, xor_translation_group(3))
    qc = quotient(ss, src, fp)
    qr = quotient_analyze(qc)
    reps = fiber_representatives(ss, fp)
    print(f"\ntranslation quotient: {qr.fiber_count} fibers, D = {qr.distortion}")
    print(f"{'rep':>10} {'size':>4} {'mass*1809':>9} {'inc':>4}")
    sd, mc = qr.stationary, qc.chain
    assert sd.denominator == 1809
    vectors = ss.vectors.tolist()
    for fi in sorted(range(len(fp)), key=lambda fi: -sd.numerators[fi]):
        rep = "".join(map(str, vectors[reps[fi]]))
        inc = Fraction(int(mc.absorb_num[fi]), mc.scale)
        print(f"{rep:>10} {len(fp.fibers[fi]):>4} {sd.numerators[fi]:>9} {str(inc):>4}")

    rate = report.rate.rate
    point = report.rd_point if report.rd_point is not None else blahut(
        [1.0 / len(g.alphabet)] * len(g.alphabet), float(rate)
    )
    gr = gap_report(report, point)  # raises if the bound fails
    print(f"\nD(R={rate}) baseline: {point.distortion:.12f}")
    print(f"gap D(G) - D(R): {gr.gap:.12f}  (bound holds)")

    if args.n > 0:
        res = simulate(g, src, n=args.n, seed=args.seed, workers=args.workers)
        z = z_score(res, report.distortion)
        print(
            f"\nMonte Carlo (n={args.n}, seed={args.seed}):"
            f" estimate {res.estimate:.8f} +- {res.stderr:.8f}, z = {z:+.3f}"
        )
        err = abs(res.estimate - float(report.distortion))
        print(f"absolute error vs exact: {err:.3e}")


if __name__ == "__main__":
    main()
