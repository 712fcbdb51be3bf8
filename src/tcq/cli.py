"""Command-line frontend.

Subcommands: analyze, enumerate, simulate, quotient, rd, gen-debruijn,
encode. All reports are plain text with stable field names; --porcelain
switches to key=value lines. Exit status: 0 success, 1 domain error
(diagnostic on stderr, prefixed with the failing stage; a file that cannot be
read, decoded or written is a graph error), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import sim
from .chain import SourceModel, analyze, decimal_string
from .errors import Error, GraphFormatError, GraphStructureError, SourceError
from .graph import de_bruijn, debruijn8_demo, parse_graph, serialize_graph
from .rd import blahut, gap_report, hamming_rd_closed_form
from .statespace import enumerate_states, format_statespace
from .symmetry import (
    PermutationGroup,
    fiber_representatives,
    induced_fibers,
    parse_permutations,
    quotient,
    quotient_analyze,
)
from .viterbi import brute_force_min, encode


class _UsageError(Exception):
    """Bad flag combination that argparse alone cannot express."""


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise GraphFormatError(f"cannot read {path}: {reason}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GraphFormatError(f"cannot write {path}: {exc.strerror}") from None


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _source_line(src: SourceModel) -> str:
    return " ".join(f"{s}:{p}" for s, p in zip(src.alphabet, src.probabilities))


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    src = SourceModel.parse(args.source, g.alphabet)
    report = analyze(g, src, with_rd=args.with_rd, max_states=args.max_states)
    if args.porcelain:
        lines = [
            f"states={report.state_count}",
            f"k={report.k}",
            f"classes={report.class_count}",
            f"unique={int(report.unique)}",
            f"distortion={report.distortion}",
            f"distortion_decimal={report.distortion_decimal}",
        ]
        if report.rate is not None:
            lines.append(f"out_degree={report.rate.out_degree}")
            lines.append(
                f"rate={report.rate.rate}"
                if report.rate.rate is not None
                else f"rate={report.rate.approx!r}"
            )
        if report.rd_point is not None:
            gr = gap_report(report, report.rd_point)  # raises if the bound fails
            lines += [
                f"rd_rate={report.rd_point.rate!r}",
                f"rd_distortion={report.rd_point.distortion!r}",
                f"gap={gr.gap!r}",
                "bound_ok=1",
            ]
    else:
        lines = [
            f"graph: {args.graph} ({g.num_vertices} vertices, {len(g.edges)} edges)",
            "alphabet: " + " ".join(g.alphabet),
            "source: " + _source_line(src),
            f"states: {report.state_count}",
            f"exact-path constant: {report.k}",
            f"closed classes: {report.class_count}",
            f"unique stationary distribution: {'yes' if report.unique else 'no'}",
        ]
        if report.rate is not None:
            if report.rate.rate is not None:
                lines.append(
                    f"rate: {report.rate.rate} bits/step"
                    f" (out-degree {report.rate.out_degree})"
                )
            else:
                lines.append(
                    f"rate: {report.rate.approx!r} bits/step"
                    f" (out-degree {report.rate.out_degree})"
                )
        lines.append(
            f"D(G) = {report.distortion} = {report.distortion_decimal}"
        )
        if report.rd_point is not None:
            gr = gap_report(report, report.rd_point)  # raises if the bound fails
            lines += [
                f"D(R) at R = {report.rd_point.rate!r}: {report.rd_point.distortion!r}",
                f"gap: {gr.gap!r}",
                "bound D(G) >= D(R): holds",
            ]
    _emit(lines)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    ss = enumerate_states(g, max_states=args.max_states)
    sys.stdout.write(format_statespace(ss))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    src = SourceModel.parse(args.source, g.alphabet)
    sourceless = g.in_edge_arrays.sourceless
    if sourceless is not None:
        raise GraphStructureError(
            f"vertex {g.vertices[sourceless]!r} has no incoming edge; "
            "the walk needs one per vertex"
        )
    result = sim.simulate(g, src, n=args.n, seed=args.seed, workers=args.parallel)
    exact = None
    if args.exact:
        exact = analyze(g, src).distortion
    if args.porcelain:
        lines = [
            f"n={result.n}",
            f"seed={result.seed}",
            f"workers={result.workers}",
            f"estimate={result.estimate!r}",
            f"stderr={result.stderr!r}",
            f"batches={result.batch_count}",
        ]
        if exact is not None:
            lines += [
                f"exact={exact}",
                f"exact_decimal={decimal_string(exact)}",
                f"z={sim.z_score(result, exact)!r}",
            ]
    else:
        lines = [
            f"n: {result.n}",
            f"seed: {result.seed}",
            f"workers: {result.workers}",
            f"estimate: {result.estimate!r}",
            f"stderr: {result.stderr!r} ({result.batch_count} batches)",
        ]
        if exact is not None:
            lines += [
                f"exact: {exact} = {decimal_string(exact)}",
                f"z: {sim.z_score(result, exact)!r}",
            ]
    _emit(lines)
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    src = SourceModel.parse(args.source, g.alphabet)
    perms = parse_permutations(_read_text(args.group), g.num_vertices)
    group = PermutationGroup.from_generators(perms, g.num_vertices)
    ss = enumerate_states(g, max_states=args.max_states)
    fp = induced_fibers(ss, group)
    qc = quotient(ss, src, fp)
    qr = quotient_analyze(qc)
    reps = fiber_representatives(ss, fp)
    vectors = ss.vectors.tolist()
    mass = [Fraction(v, qr.stationary.denominator) for v in qr.stationary.numerators]
    inc = [Fraction(v, qc.chain.scale) for v in qc.chain.absorb_num.tolist()]
    if args.porcelain:
        lines = [
            f"group_order={len(group)}",
            f"states={len(ss)}",
            f"fibers={qr.fiber_count}",
            "lumpable=1",
            f"distortion={qr.distortion}",
            f"distortion_decimal={qr.distortion_decimal}",
        ]
        for fi, fiber in enumerate(fp.fibers):
            rep = ",".join(map(str, vectors[reps[fi]]))
            lines.append(
                f"fiber{fi}=size:{len(fiber)};rep:{rep};mass:{mass[fi]};inc_mass:{inc[fi]}"
            )
    else:
        lines = [
            f"graph: {args.graph} ({g.num_vertices} vertices, {len(g.edges)} edges)",
            f"group order: {len(group)}",
            f"states: {len(ss)}",
            f"fibers: {qr.fiber_count}",
            "lumpable: yes",
            f"quotient D(G) = {qr.distortion} = {qr.distortion_decimal}",
            "fiber table (index, size, representative, stationary mass, increment mass):",
        ]
        for fi, fiber in enumerate(fp.fibers):
            rep = " ".join(map(str, vectors[reps[fi]]))
            lines.append(
                f"  {fi}: size {len(fiber)} rep ({rep}) mass {mass[fi]} inc-mass {inc[fi]}"
            )
    _emit(lines)
    return 0


def _cmd_rd(args: argparse.Namespace) -> int:
    m = args.alphabet
    if m < 2:
        raise SourceError("alphabet size must be at least 2")
    if m > 65536:
        raise SourceError("alphabet size must be at most 65536")
    probs = [1.0 / m] * m
    point = blahut(probs, args.rate)
    check = hamming_rd_closed_form(m, args.rate)
    diff = abs(point.distortion - check)
    if args.porcelain:
        lines = [
            f"alphabet={m}",
            f"rate={point.rate!r}",
            f"distortion={point.distortion!r}",
            f"slope={point.slope!r}",
            f"closed_form={check!r}",
            f"difference={diff!r}",
        ]
    else:
        lines = [
            f"alphabet size: {m} (uniform source)",
            f"rate: {point.rate!r}",
            f"D(R) = {point.distortion!r}",
            f"slope: {point.slope!r}",
            f"closed-form check: {check!r} (difference {diff!r})",
        ]
    _emit(lines)
    return 0


def _cmd_gen_debruijn(args: argparse.Namespace) -> int:
    if args.builtin is not None:
        if args.builtin != "paper-example":
            raise _UsageError(f"unknown builtin {args.builtin!r}")
        g = debruijn8_demo()
    else:
        if args.order is None or args.labels is None:
            raise _UsageError("need either --builtin or both --order and --labels")
        labels = tuple(tok.strip() for tok in args.labels.split(","))
        g = de_bruijn(args.order, labels)
    text = serialize_graph(g)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    if not args.sequence.strip():
        raise _UsageError("--sequence is empty")
    xs = tuple(tok.strip() for tok in args.sequence.split(","))
    for x in xs:
        if x not in g.symbol_index:
            raise _UsageError(
                f"--sequence symbol {x!r} is not in the alphabet {' '.join(g.alphabet)}"
            )
    result = encode(g, xs)
    bf = brute_force_min(g, xs) if args.brute_force else None
    if args.porcelain:
        lines = [
            f"length={len(xs)}",
            f"distortion={result.total_distortion}",
            "path=" + ",".join(str(e) for e in result.path),
            "labels=" + ",".join(result.labels),
        ]
        if bf is not None:
            lines.append(f"brute_force={bf}")
    else:
        lines = [
            "sequence: " + " ".join(xs),
            f"distortion: {result.total_distortion}",
            "path edges: " + " ".join(str(e) for e in result.path),
            "labels: " + " ".join(result.labels),
        ]
        if bf is not None:
            lines.append(f"brute-force check: {bf}")
    _emit(lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcq",
        description="Exact distortion analysis of graph-defined trellis quantizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_max_states(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-states",
            type=_positive_int,
            default=10**6,
            metavar="N",
            help="fail once the state space exceeds N states (default 10^6)",
        )

    def add_common(p: argparse.ArgumentParser, source: bool = True) -> None:
        p.add_argument("--graph", required=True, help="graph description file")
        if source:
            p.add_argument(
                "--source",
                default="uniform",
                help="'uniform' or comma list symbol:rational",
            )
        p.add_argument(
            "--porcelain", action="store_true", help="emit key=value lines"
        )

    p = sub.add_parser("analyze", help="exact per-step distortion of a graph code")
    add_common(p)
    p.add_argument("--with-rd", action="store_true", help="compare against D(R)")
    add_max_states(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="dump the state space and arc table")
    p.add_argument("--graph", required=True)
    add_max_states(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the distortion")
    add_common(p)
    p.add_argument(
        "--n", type=_positive_int, required=True, help="number of source symbols"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--parallel",
        type=_positive_int,
        default=1,
        metavar="WORKERS",
        help="split the stream into WORKERS ranges, each walked from the zero"
        " state in this process; results depend on (seed, n, WORKERS)",
    )
    p.add_argument(
        "--exact", action="store_true", help="also compute the exact value and z-score"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("quotient", help="lump the chain by a symmetry group")
    add_common(p)
    p.add_argument("--group", required=True, help="permutation file")
    add_max_states(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("rd", help="distortion-rate point of a uniform source")
    p.add_argument("--alphabet", type=int, required=True, help="alphabet size")
    p.add_argument("--rate", type=float, required=True, help="target rate in bits")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_rd)

    p = sub.add_parser("gen-debruijn", help="emit a labelled de Bruijn graph file")
    p.add_argument("--builtin", help="named built-in graph (paper-example)")
    p.add_argument("--order", type=int, help="shift-register length m")
    p.add_argument("--labels", help="comma list of 2^(m+1) edge labels")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen_debruijn)

    p = sub.add_parser("encode", help="Viterbi-encode one symbol sequence")
    p.add_argument("--graph", required=True)
    p.add_argument("--sequence", required=True, help="comma list of source symbols")
    p.add_argument(
        "--brute-force", action="store_true", help="cross-check by path enumeration"
    )
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_encode)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # an exact D(G) can run past Python's default cap of 4,300 digits for
    # str() of an int (a cap Python releases before 3.10.7 lack); lift it
    # for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except Error as exc:
        sys.stderr.write(f"error ({exc.stage}): {exc}\n")
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
