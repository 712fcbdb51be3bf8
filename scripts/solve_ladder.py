#!/usr/bin/env python3
"""Time the exact stationary solve and the Monte Carlo walk on a fixed ladder
of graphs.

The solve rungs are g3, debruijn8 and the first graph of the order-3
quaternary, order-4 binary, order-5 binary and order-4 quaternary pools of
``perfbench/corpus.json`` (read only). Each rung runs in its own child
process, single-threaded, under a 120 s timeout; a rung that runs out of
time is recorded as "did not finish". Every solve rung but ``order4q:0``
(the slowest, tens of seconds) runs three times, chosen by name so that a
host's speed that day cannot change which rungs repeat: ``runs`` keeps
every run's seconds, stages and peak RSS, and the rung's ``total_s`` and
``stage_s`` are the fastest of them.
For each rung the record holds the state count, the unknowns of the one
exact system before censoring (``unreduced_dim``: the reached class's size,
plus the reached transient states when state 0 reaches several classes),
the dimension solved after it (``solve_dim``), the seconds in each stage
(enumerate, build_chain, closed_classes, stationary) and from graph to
D(G), the lifts, the fewest bits per lift, the gap from the first float
solve, the digits of the common denominator, the nonzeros of the system,
how the residual was kept ("int64" or "int"), the child's peak RSS and the
sha256 of D(G).

The walk rungs are 100,000-step single-worker ``simulate`` calls with seed
1 on debruijn8, the order-4 XOR labelling of the montecarlo workload, two
order-5 quaternary labellings, whose spaces are too large to enumerate,
and the periodic two-vertex graph ``v w a / w v b``, on which no lane of
the walk meets its path and the walk goes on alone. Each runs three
times, each time in its own child process: ``runs`` keeps every run's
seconds (to the microsecond), peak RSS and increment sum, and the rung's
``seconds`` is the fastest of them. After the timed walk and its peak RSS,
the child times the same walk again (``warm_s``), which reads the closed
arc table that the first walk kept when it closed one, then walks a third
time, untimed, counting the steps walked alone (``alone_steps``) and the
word size d of each pass (``pass_d``). ``runs`` keeps these too, and the
rung's ``warm_s`` is the fastest of them.

The report also names the git commit (marked "-dirty" when tracked files
differ from it), the Python, numpy and scipy versions (scipy "absent"
when it is not installed; it is never imported), numpy's BLAS and LAPACK
with their versions, from numpy's build configuration, and the dgetrf
symbol that tcq binds for its float factor. The headline is the
largest rung solved, graph to D(G), within 60 s, largest by its unreduced
dimension, so that censoring more states cannot move it by itself. Each
D(G) digest and each increment sum is pinned: the report is still written,
but the script exits 1 if a finished rung differs from its pin:

    python3 scripts/solve_ladder.py --out BENCH_17.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
HEADLINE_S = 60
RUN_ONCE = {"order4q:0"}  # every other solve rung runs REPEATS times
REPEATS = 3
WALK_N = 100_000
WALK_SEED = 1
# sha256 of str(D(G)) for each rung, in ladder order
PINNED = {
    "g3": "8f854692d8bc8def84a88d511dd150de9dd8b6bfe000d5a417dde49e4a3d12c2",
    "debruijn8": "5ec024740f6a33fc6c44cc473d10a452cca2f4a206b56139c1c4ba58f02ff55d",
    "order3:0": "7c1bf770a62e6d49c04dd299ff0f245dceaca95d9bd49943b96ff488e7036099",
    "order4b:0": "a750d2917fb6a527bcc5f6db1bf352b413b9557a07a711c0b922b87f9294ef47",
    "order5b:0": "c7ae246aa9171c93d80145ce5195bfb6c5616182751e764c1f82bd8f4634bad0",
    "order4q:0": "548980486ea32691baca00436c630bfccc159a72432c7ebc0c52c8c52a19d286",
}
# walk rung -> (a solve rung's graph, a de Bruijn labelling or a graph's
# text, pinned increment sum)
WALKS = {
    "walk:debruijn8": ("debruijn8", 24999),
    "walk:xor4": ("abbacddccddcabbacddcabbaabbacddc", 26920),
    "walk:order5q-a": (
        "daacabccdbaaabaaacbcccaddaacbcadcdacbdcabbbbddbbdcbdbbcbddbaddcb",
        25956,
    ),
    "walk:order5q-b": (
        "babacbbabddacdbdabddacabddabbcbaaabcabaddddcdadbcbdacdcbccacccdd",
        25723,
    ),
    "walk:periodic": ("alphabet a b\nedge v w a\nedge w v b\n", 49742),
}


def rung_graph(name: str):
    from tcq import de_bruijn, parse_graph

    if name in WALKS:
        graph = WALKS[name][0]
        if graph in PINNED:
            return rung_graph(graph)
        if graph.startswith("alphabet "):
            return parse_graph(graph)
        return de_bruijn(len(graph).bit_length() - 2, tuple(graph))  # 2^(order+1) labels
    if ":" not in name:
        return parse_graph((ROOT / "graphs" / f"{name}.g").read_text(encoding="utf-8"))
    pool, index = name.split(":")
    corpus = json.loads((ROOT / "perfbench" / "corpus.json").read_text(encoding="utf-8"))
    entry = corpus[pool][int(index)]
    return de_bruijn(entry["order"], tuple(entry["labels"]))


def measure(name: str) -> dict:
    """One rung, in this process: what the child prints."""
    from tcq import (
        SourceModel,
        build_chain,
        closed_classes,
        distortion_rate,
        enumerate_states,
        stationary,
    )

    stage_s = {}

    def timed(stage, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        stage_s[stage] = round(time.perf_counter() - start, 4)
        return out

    begin = time.perf_counter()
    g = rung_graph(name)
    ss = timed("enumerate", enumerate_states, g)
    mc = timed("build_chain", build_chain, ss, SourceModel.uniform(g.alphabet))
    timed("closed_classes", closed_classes, mc)
    sd = timed("stationary", stationary, mc)  # splits the classes again
    d = distortion_rate(mc, sd)
    return {
        "total_s": round(time.perf_counter() - begin, 3),
        "states": len(ss),
        "unreduced_dim": sd.solve.unreduced_dim,
        "solve_dim": sd.solve.dim,
        "stage_s": stage_s,
        "lifts": sd.solve.lifts,
        "bits_per_lift": sd.solve.bits_per_lift,
        "float_gap": sd.solve.float_gap,
        "denominator_digits": sd.solve.denominator_digits,
        "nnz": sd.solve.nnz,
        "residual": sd.solve.residual,
        "dg_sha256": hashlib.sha256(str(d).encode()).hexdigest(),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def measure_walk(name: str) -> dict:
    """One walk rung, in this process: what the child prints."""
    from tcq import SourceModel, sim, simulate

    g = rung_graph(name)
    src = SourceModel.uniform(g.alphabet)
    start = time.perf_counter()
    walked = simulate(g, src, n=WALK_N, seed=WALK_SEED)
    seconds = round(time.perf_counter() - start, 6)  # walks take milliseconds
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    start = time.perf_counter()
    simulate(g, src, n=WALK_N, seed=WALK_SEED)
    record = {
        "seconds": seconds,
        "warm_s": round(time.perf_counter() - start, 6),
        "steps": WALK_N,
        "increment_sum": int(walked.increments.sum()),
        "peak_rss_mb": peak_rss_mb,
        "alone_steps": 0,
        "pass_d": [],
    }
    walk_alone, words = sim._walk_alone, sim._words

    def counted_alone(table, alone, symbols, *args):
        record["alone_steps"] += len(symbols)
        return walk_alone(table, alone, symbols, *args)

    def counted_words(*args):
        out = words(*args)
        record["pass_d"].append(out[1])
        return out

    sim._walk_alone, sim._words = counted_alone, counted_words
    simulate(g, src, n=WALK_N, seed=WALK_SEED)  # untimed: counts the walk's traffic
    return record


def run_child(name: str) -> dict:
    """Run one rung once in a child process, single-threaded."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, __file__, "--child", name]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rung": name, "finished": False, "result": f"did not finish in {TIMEOUT_S} s"}
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"rung": name, "finished": False, "result": f"exit {proc.returncode}: {last}"}
    return {"rung": name, "finished": True, **json.loads(proc.stdout)}


def run_rung(name: str) -> dict:
    """A solve rung, run REPEATS times unless it is in RUN_ONCE; its
    seconds are the fastest of the runs."""
    runs = [run_child(name)]
    if runs[0]["finished"] and name not in RUN_ONCE:
        runs += [run_child(name) for _ in range(REPEATS - 1)]
    unfinished = [r for r in runs if not r["finished"]]
    if unfinished:
        return unfinished[0]
    stages = runs[0]["stage_s"]
    return {
        **runs[0],
        "total_s": min(r["total_s"] for r in runs),
        "stage_s": {stage: min(r["stage_s"][stage] for r in runs) for stage in stages},
        "dg_sha256": ",".join(sorted({r["dg_sha256"] for r in runs})),  # one, unless they differ
        "runs": [{k: r[k] for k in ("total_s", "stage_s", "peak_rss_mb")} for r in runs],
    }


def run_walk(name: str) -> dict:
    """A walk rung, run REPEATS times; its cold and warm seconds are the
    fastest of the runs and its increment sum the first run's."""
    runs = [run_child(name) for _ in range(REPEATS)]
    unfinished = [r for r in runs if not r["finished"]]
    if unfinished:
        return unfinished[0]
    return {
        **runs[0],
        "seconds": min(r["seconds"] for r in runs),
        "warm_s": min(r["warm_s"] for r in runs),
        "runs": [
            {
                k: r[k]
                for k in ("seconds", "warm_s", "peak_rss_mb", "increment_sum", "alone_steps", "pass_d")
            }
            for r in runs
        ],
    }


def installed_version(package: str) -> str:
    """The installed distribution's version, read without importing it."""
    try:
        return version(package)
    except PackageNotFoundError:
        return "absent"


def linear_algebra() -> dict:
    """numpy's BLAS and LAPACK, as its build configuration names them, and
    the dgetrf symbol that tcq's float factor binds."""
    import numpy

    sys.path.insert(0, str(ROOT / "src"))  # the tcq that the children run
    from tcq import chain

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    named = {lib: f"{deps[lib]['name']} {deps[lib]['version']}" for lib in ("blas", "lapack")}
    return {**named, "dgetrf": chain._lapack()[0].__name__}


def git_commit() -> str:
    """The checked-out commit, with "-dirty" when tracked files differ from
    it, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--out", type=Path, help="the report to write")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps((measure_walk if args.child in WALKS else measure)(args.child)))
        return 0
    if args.out is None:
        ap.error("--out is required")
    rungs = []
    for name in PINNED:
        rung = run_rung(name)
        rungs.append(rung)
        print(json.dumps(rung), flush=True)
    walks = []
    for name in WALKS:
        walk = run_walk(name)
        walks.append(walk)
        print(json.dumps(walk), flush=True)
    solved = [r for r in rungs if r["finished"] and r["total_s"] <= HEADLINE_S]
    headline = max(solved, key=lambda r: r["unreduced_dim"], default=None)
    report = {
        "headline": {
            "largest_rung_solved_within_s": HEADLINE_S,
            "rung": headline and headline["rung"],
            "unreduced_dim": headline and headline["unreduced_dim"],
            "solve_dim": headline and headline["solve_dim"],
        },
        "timeout_s": TIMEOUT_S,
        "commit": git_commit(),
        "host": {
            "python": platform.python_version(),
            "numpy": installed_version("numpy"),
            "scipy": installed_version("scipy"),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "threads": 1,
            **linear_algebra(),
        },
        "rungs": rungs,
        "walks": walks,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    changed = [r["rung"] for r in rungs if r["finished"] and r["dg_sha256"] != PINNED[r["rung"]]]
    if changed:
        print(f"D(G) digest differs from its pin on: {', '.join(changed)}", file=sys.stderr)
    moved = [
        w["rung"]
        for w in walks
        if w["finished"] and any(r["increment_sum"] != WALKS[w["rung"]][1] for r in w["runs"])
    ]
    if moved:
        print(f"increment sum differs from its pin on: {', '.join(moved)}", file=sys.stderr)
    return 1 if changed or moved else 0


if __name__ == "__main__":
    sys.exit(main())
