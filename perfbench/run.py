#!/usr/bin/env python3
"""The tcq benchmark: one workload per process, timed from outside tcq.

    python3 perfbench/run.py --workload exact-survey --seed 0 --seconds 34 --trace 0

Run from a checkout of the repository; tcq is imported from ``src/``. With
``--trace 0`` the workload's operations run in a loop until their timed
calls add up to ``--seconds``, and the run reports the end-to-end metrics:

    setup_s      import tcq, then build or parse the workload's graphs (the
                 median of several imports, each in a fresh interpreter,
                 plus the median of several builds, spread over the run)
    work_per_s   the work of one pass over the workload's timed operations
                 over the sum of their fastest calls; the work is exact
                 D(G) values (exact-survey), reduced states enumerated,
                 turned into a chain and class-split (enumerate-large), or
                 Monte Carlo steps (montecarlo)
    peak_rss_mb  ru_maxrss of this process

Each distinct operation (one graph with its parameters) is scored by its
fastest call: on a shared host other tenants slow a CPU by up to 2x, in
bursts shorter than a second and stretches of minutes, and the fastest of
many calls is what repeats from run to run. It repeats best when calls are
short and touch little memory, since a quiet spell need only outlast one
call and co-tenants slow memory-heavy calls most; so enumerate-large times
graphs of about 800 states and montecarlo walks 100,000 steps a call. Each
operation's fastest and median call stay in the record. The workload's
``once`` operations run once, after the timed loop, and count in
``attempted`` and ``peak_rss_mb`` but not in the timing.

Operations that raise, time out or fail their output check count in
``failed`` out of ``attempted`` (so the failed fraction is their ratio) and
make the command exit 1. With ``--trace 1`` the run alternates untraced and
traced passes over the same operations, ``once`` included, and reports
per-layer metrics: self times of tcq's public functions, counts read off
their results, and the tracing overhead. The per-layer numbers come from
the fastest traced pass; the overhead sums, over the operations, each one's
fastest traced call minus its fastest untraced call. A record of the run
(provenance, per-graph sizes, per-operation times, spans) is written under
``perfbench/out/``. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Single-threaded numeric libraries; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from corpus import load_corpus  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_REPEATS = 9
OP_TIMEOUT_S = 60.0  # one operation, its check included
LOOP_WALL_S = 110.0  # stop starting operations after this much wall time
RUN_LIMIT_S = 170.0  # a run must end within 180 s, so no operation outlives this


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so tcq's handlers cannot eat it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Runs operations with a timeout, checks them, and keeps the tallies."""

    def __init__(self, start: float):
        self.start = start
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, op, tracer=None) -> tuple[float, int] | None:
        """Time ``op.run`` and check its result; the duration and the units
        of work done, or None if it raised, timed out or failed its check."""
        self.attempted += 1
        budget = min(OP_TIMEOUT_S, max(5.0, self.start + RUN_LIMIT_S - time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            t = time.perf_counter()
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("op"):
                    result = op.run()
            dt = time.perf_counter() - t
            if tracer is None:
                op.check(result)
            else:
                with tracer.pause():
                    op.check(result)
            return dt, op.units(result)
        except OpTimeout:
            self._fail(op, f"timed out after {budget:.0f} s")
        except Exception:  # any failure of the program under test is counted
            self._fail(op, traceback.format_exc())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return None

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{op.kind}: {message}")
        sys.stderr.write(f"FAILED {op.kind}: {message}\n")


def import_seconds() -> float:
    """Time to import tcq (numpy included) in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import tcq.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout)


class Setup:
    """Samples of the set-up time: import tcq in a fresh interpreter, then
    build the workload. One is taken before the timed loop and the rest
    between its operations, spread over the run, so that a slow stretch of
    a shared host skews only some of them."""

    def __init__(self, build):
        self.build = build
        self.imports: list[float] = []
        self.builds: list[float] = []

    def sample(self):
        self.imports.append(import_seconds())
        t = time.perf_counter()
        wl = self.build()
        self.builds.append(time.perf_counter() - t)
        return wl

    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.builds)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tcq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, numpy_version: str, wl) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "tcq_source_sha256": source_digest(),
        "graphs": wl.graphs,
    }


def end_to_end(runner: Runner, wl, setup: Setup, seconds: float) -> tuple[dict, dict]:
    """Loop over the workload's operations until their timed calls add up to
    ``seconds`` (and at least one full pass), sampling the set-up time at
    even steps of that, then run the workload's ``once`` operations."""
    times: dict[str, list[float]] = defaultdict(list)
    units: dict[str, int] = {}
    busy = 0.0
    i = 0
    while (busy < seconds or i < len(wl.ops)) and time.perf_counter() - runner.start < LOOP_WALL_S:
        if len(setup.imports) < SETUP_REPEATS and busy >= len(setup.imports) * seconds / SETUP_REPEATS:
            setup.sample()
        op = wl.ops[i % len(wl.ops)]
        i += 1
        done = runner.attempt(op)
        if done is not None:
            times[op.kind].append(done[0])
            units[op.kind] = done[1]
            busy += done[0]
    for op in wl.once:
        runner.attempt(op)
    best = {k: min(v) for k, v in times.items()}
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup.seconds(),
        "work_per_s": sum(units.values()) / sum(best.values()) if best else 0.0,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    detail = {
        "unit": wl.unit,
        "timed_s": busy,
        "setup_import_s": setup.imports,
        "setup_build_s": setup.builds,
        "operations": {
            k: {"count": len(v), "min_s": best[k], "median_s": statistics.median(v), "units": units[k]}
            for k, v in times.items()
        },
    }
    return metrics, detail


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass; ``*_s`` are self times."""
    self_t = tracer.self_times()
    by_name = defaultdict(list)
    for sp in tracer.spans:
        by_name[sp.name].append(sp)

    def total(name, fact):
        return sum(sp.facts.get(fact, 0) for sp in by_name[name])

    def largest(*names, fact):
        return max((sp.facts.get(fact, 0) for n in names for sp in by_name[n]), default=0)

    def rate(spans):
        busy = sum(sp.duration for sp in spans)
        return sum(sp.facts.get("steps", 0) for sp in spans) / busy if busy else 0.0

    m = {f"{name}_s": self_t.get(name, 0.0) for name in TRACED}
    sims = by_name["sim.simulate"]
    w1 = [sp for sp in sims if sp.facts.get("workers") == 1]
    w2 = [sp for sp in sims if sp.facts.get("workers", 0) > 1] or w1
    enum_busy = sum(sp.duration for sp in by_name["statespace.enumerate"])
    steps = total("sim.simulate", "steps")
    m.update(
        {
            "statespace.states": total("statespace.enumerate", "states"),
            "statespace.arcs": total("statespace.enumerate", "arcs"),
            "statespace.states_per_s": (
                total("statespace.enumerate", "states") / enum_busy if enum_busy else 0.0
            ),
            "viterbi.reduced_transition_calls": sum(tracer.leaf_calls.values()),
            "chain.nnz": total("chain.build", "nnz"),
            "chain.classes": total("chain.closed_classes", "classes"),
            "chain.solve_dim": largest("chain.stationary", fact="solve_dim"),
            "chain.denominator_digits": largest(
                "chain.analyze", "symmetry.quotient_analyze", fact="digits"
            ),
            "symmetry.fibers": total("symmetry.induced_fibers", "fibers"),
            "symmetry.group_order": largest("symmetry.induced_fibers", fact="group_order"),
            "sim.steps": steps,
            "sim.steps_per_s_w1": rate(w1),
            "sim.steps_per_s_w2": rate(w2),
            "sim.arc_miss_frac": (
                sum(tracer.leaf_calls.get(sp.id, 0) for sp in sims) / steps if steps else 0.0
            ),
        }
    )
    return m


def traced(runner: Runner, wl, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the same operations until
    the passes add up to ``seconds``."""
    ops = wl.ops + wl.once
    fastest_untraced: dict[int, float] = {}
    fastest_traced: dict[int, float] = {}

    def one_pass(fastest: dict[int, float], tracer=None) -> float:
        busy = 0.0
        for i, op in enumerate(ops):
            done = runner.attempt(op, tracer)
            if done is not None:
                fastest[i] = min(fastest.get(i, done[0]), done[0])
                busy += done[0]
        return busy

    untraced_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    spans: list[list[dict]] = []
    while True:
        untraced_s.append(one_pass(fastest_untraced))
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.installed():
            traced_s.append(one_pass(fastest_traced, tracer))
        layers.append(layer_metrics(tracer))
        spans.append(tracer.records(t0))
        elapsed = sum(untraced_s) + sum(traced_s)
        # a pair of passes must end well inside the 180 s a run may take
        if elapsed >= seconds or time.perf_counter() - runner.start > LOOP_WALL_S / 2:
            break
    metrics = dict(layers[traced_s.index(min(traced_s))])
    both = fastest_traced.keys() & fastest_untraced.keys()
    metrics["trace.overhead_s"] = sum(fastest_traced[i] - fastest_untraced[i] for i in both)
    detail = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s, "spans": spans}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="one of workloads.WORKLOADS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tcq" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tcq sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    os.chdir(ROOT)  # the CLI checks name graph files relative to the root
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import numpy

    from workloads import WORKLOADS  # imports tcq

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    setup = Setup(lambda: WORKLOADS[args.workload](args.seed, load_corpus()))
    wl = setup.sample()

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(start)
    if args.trace:
        metrics, detail = traced(runner, wl, args.seconds)
    else:
        metrics, detail = end_to_end(runner, wl, setup, args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        sys.stderr.write(f"error: metrics {sorted(metrics.keys() ^ units.keys())} do not match BENCHMARK.json\n")
        return 2
    metrics = {k: metrics[k] for k in units}

    record = {
        "provenance": provenance(args, numpy.__version__, wl),
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        **detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    for k, v in metrics.items():
        print(f"{k:36s} {v!r} {units[k]}")
    print("provenance " + json.dumps(record["provenance"]))
    print(f"attempted {runner.attempted}, failed {runner.failed}; record: {out.relative_to(ROOT)}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
