from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

from conftest import EXPECTED_DIR, GRAPH_DIR, REPO_ROOT
from tcq import SourceError, SourceModel, analyze, de_bruijn, serialize_graph
from tcq.cli import main

DB8 = "graphs/debruijn8.g"
G3 = "graphs/g3.g"
PERM = "graphs/debruijn8_translations.perm"


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_shipped_example(capsys):
    code, out, err = run_cli(capsys, "analyze", "--graph", DB8, "--source", "uniform")
    assert code == 0 and err == ""
    assert "D(G) = 452/1809 = 0.2498618021" in out
    assert "states: 107" in out
    assert "exact-path constant: 3" in out
    assert "closed classes: 1" in out
    assert out.endswith("\n")


def test_analyze_g3_with_explicit_source(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--graph", G3, "--source", "a:1/2,b:1/2")
    assert code == 0
    assert "D(G) = 1/6 = 0.1666666667" in out


def test_analyze_porcelain_keys(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--graph", DB8, "--porcelain")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["states"] == "107"
    assert fields["k"] == "3"
    assert fields["classes"] == "1"
    assert fields["unique"] == "1"
    assert fields["distortion"] == "452/1809"
    assert fields["distortion_decimal"] == "0.2498618021"
    assert fields["rate"] == "1"


def test_analyze_prints_a_distortion_past_4300_digits(capsys, tmp_path):
    g = de_bruijn(2, tuple("acbdbdca"))
    big = 2**1500 + 13
    probs = [Fraction(big // 5, big), Fraction(big // 3, big), Fraction(big // 7, big)]
    src = SourceModel(g.alphabet, (*probs, 1 - sum(probs)))
    path = tmp_path / "wide.g"
    path.write_text(serialize_graph(g), encoding="utf-8")
    spec = ",".join(f"{s}:{p}" for s, p in zip(src.alphabet, src.probabilities))
    expected = analyze(g, src).distortion
    assert expected.denominator > 10**4300  # past Python's default cap for str(int)
    limit = sys.get_int_max_str_digits()
    for flags, prefix in ((["--porcelain"], "distortion="), ([], "D(G) = ")):
        code, out, err = run_cli(capsys, "analyze", "--graph", str(path), "--source", spec, *flags)
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit  # the CLI puts the cap back
        (line,) = [line for line in out.splitlines() if line.startswith(prefix)]
        # Decimal parses digit strings past the cap that int() refuses
        num, den = line[len(prefix) :].split(" ")[0].split("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == expected


def test_a_huge_group_entry_fails_fast(capsys, tmp_path):
    # int() of a 2,000,000-digit token takes tens of seconds once main lifts
    # Python's int-string cap; the parser refuses it by its length instead
    group = tmp_path / "huge.perm"
    group.write_text("9" * 2_000_000 + " 0\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "quotient", "--graph", DB8, "--group", str(group))
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err == "error (graph): permutation line 1: not a permutation of 0..7\n"


def test_a_group_too_large_to_list_fails_fast(capsys, tmp_path):
    # a transposition and a 16-cycle generate all 16! (about 2e13)
    # permutations of an order-4 de Bruijn graph's vertices
    graph, group = tmp_path / "db4.g", tmp_path / "s16.perm"
    labels = ",".join("ab" * 16)
    code, _, _ = run_cli(
        capsys, "gen-debruijn", "--order", "4", "--labels", labels, "--out", str(graph)
    )
    assert code == 0
    swap, cycle = [1, 0, *range(2, 16)], [*range(1, 16), 0]
    lines = (" ".join(map(str, p)) + "\n" for p in (swap, cycle))
    group.write_text("".join(lines), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "quotient", "--graph", str(graph), "--group", str(group))
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("error (graph): the generators give a group of more than 65,536")
    assert err.count("\n") == 1


def test_analyze_with_rd(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--graph", DB8, "--with-rd", "--porcelain")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert abs(float(fields["rd_distortion"]) - 0.1893) < 1e-3
    assert float(fields["gap"]) > 0.06
    assert fields["bound_ok"] == "1"


def test_analyze_with_rd_above_the_source_entropy(capsys):
    # rate 1 exceeds H(1/4, 3/4) = 0.811 bits, where D(R) = 0
    args = ("analyze", "--graph", "graphs/perfect2.g", "--source", "a:1/4,b:3/4", "--with-rd")
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    assert out.endswith("D(R) at R = 1.0: 0.0\ngap: 0.0\nbound D(G) >= D(R): holds\n")
    code, out, err = run_cli(capsys, *args, "--porcelain")
    assert code == 0 and err == ""
    assert out.endswith("rd_rate=1.0\nrd_distortion=0.0\ngap=0.0\nbound_ok=1\n")


def test_outputs_are_byte_identical_across_runs(capsys):
    runs = [
        run_cli(capsys, "analyze", "--graph", DB8)[1],
        run_cli(capsys, "analyze", "--graph", DB8)[1],
    ]
    assert runs[0] == runs[1]
    sims = [
        run_cli(capsys, "simulate", "--graph", G3, "--n", "2000", "--seed", "5")[1]
        for _ in range(2)
    ]
    assert sims[0] == sims[1]


EXPECTED_CASES = [
    (("analyze", "--graph", DB8), "debruijn8_analyze.txt"),
    (("analyze", "--graph", DB8, "--porcelain"), "debruijn8_analyze_porcelain.txt"),
    (("enumerate", "--graph", DB8), "debruijn8_enumerate.txt"),
    (("quotient", "--graph", DB8, "--group", PERM), "debruijn8_quotient.txt"),
    (("analyze", "--graph", G3), "g3_analyze.txt"),
    (("analyze", "--graph", "graphs/perfect2.g"), "perfect2_analyze.txt"),
    (("analyze", "--graph", "graphs/selfloop_ab.g"), "selfloop_ab_analyze.txt"),
    (
        ("simulate", "--graph", G3, "--n", "1000", "--seed", "1", "--exact"),
        "g3_simulate_n1000_seed1.txt",
    ),
]


@pytest.mark.parametrize("argv,expected_name", EXPECTED_CASES)
def test_shipped_expected_outputs_match(capsys, argv, expected_name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (EXPECTED_DIR / expected_name).read_text(encoding="utf-8")


def test_every_shipped_graph_analyzes(capsys):
    graph_files = sorted(GRAPH_DIR.glob("*.g"))
    assert graph_files
    for path in graph_files:
        code, out, err = run_cli(capsys, "analyze", "--graph", str(path))
        assert code == 0 and err == "", path
        assert "D(G) = " in out


def test_enumerate_format(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--graph", G3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices: 2"
    assert "arcs:" in lines
    arc_lines = lines[lines.index("arcs:") + 1 :]
    assert arc_lines == ["0 a 0 0", "0 b 1 0", "1 a 0 0", "1 b 0 1"]


def test_simulate_porcelain_with_exact(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--graph", G3, "--n", "4000", "--seed", "2",
        "--parallel", "2", "--exact", "--porcelain",
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["n"] == "4000"
    assert fields["workers"] == "2"
    assert fields["exact"] == "1/6"
    assert abs(float(fields["z"])) < 6
    assert float(fields["stderr"]) > 0


def test_quotient_reports_fibers(capsys):
    code, out, _ = run_cli(
        capsys, "quotient", "--graph", DB8, "--group", PERM, "--porcelain"
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["fibers"] == "16"
    assert fields["lumpable"] == "1"
    assert fields["distortion"] == "452/1809"
    assert fields["group_order"] == "8"


def test_quotient_rejects_non_symmetry(capsys, tmp_path):
    bad = tmp_path / "bad.perm"
    bad.write_text("1 0 2 3 4 5 6 7\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "quotient", "--graph", DB8, "--group", str(bad))
    assert code == 1
    assert err.startswith("error (quotient):")


def test_rd_command(capsys):
    code, out, _ = run_cli(capsys, "rd", "--alphabet", "4", "--rate", "1")
    assert code == 0
    assert "D(R) = 0.189" in out
    code, out, _ = run_cli(capsys, "rd", "--alphabet", "4", "--rate", "1", "--porcelain")
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert abs(float(fields["distortion"]) - 0.1893) < 1e-3
    assert float(fields["difference"]) < 1e-6


@pytest.mark.parametrize(
    "exponent",
    ["-100000000", "1000000", "-4301", "+" + "9" * 10**6, "_".join("0" * 10**5) + "4301"],
)
def test_an_oversized_exponent_is_refused_at_once(capsys, exponent):
    """Fraction would build 10**exponent, and the CLI, which lifts Python's
    cap on the digits of an int, would then print the sum in full."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "--graph", G3, "--source", f"a:1e{exponent},b:1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error (source): probability of 'a' has an exponent past 4300\n"
    # the cap itself: 0 times 10**4300 is a probability
    assert SourceModel.parse("a:0e4300,b:1", ("a", "b")).probabilities == (0, 1)
    with pytest.raises(SourceError, match="exponent past 4300"):
        SourceModel.parse("a:0e4301,b:1", ("a", "b"))


def test_rd_errors(capsys):
    code, _, err = run_cli(capsys, "rd", "--alphabet", "4", "--rate", "9")
    assert code == 1 and err.startswith("error (rd):")
    code, _, err = run_cli(capsys, "rd", "--alphabet", "1", "--rate", "0")
    assert code == 1 and err.startswith("error (source):")


def test_gen_debruijn_builtin_matches_shipped_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen-debruijn", "--builtin", "paper-example")
    assert code == 0
    assert out == (GRAPH_DIR / "debruijn8.g").read_text(encoding="utf-8")
    target = tmp_path / "dump.g"
    code, out, _ = run_cli(
        capsys, "gen-debruijn", "--builtin", "paper-example", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == (GRAPH_DIR / "debruijn8.g").read_text(
        encoding="utf-8"
    )


def test_gen_debruijn_order1(capsys):
    code, out, _ = run_cli(capsys, "gen-debruijn", "--order", "1", "--labels", "a,b,a,b")
    assert code == 0
    assert out.splitlines() == [
        "alphabet a b",
        "edge 0 0 a",
        "edge 0 1 b",
        "edge 1 0 a",
        "edge 1 1 b",
    ]


def test_gen_debruijn_bad_label_count(capsys):
    code, _, err = run_cli(
        capsys, "gen-debruijn", "--order", "3",
        "--labels", ",".join(["a"] * 15),
    )
    assert code == 1
    assert err.startswith("error (graph):")
    assert "expected 16 labels" in err


@pytest.mark.parametrize("order", ["100000000000", "1000000000"])
def test_gen_debruijn_huge_order_fails_fast(capsys, order):
    """An order whose 2^(order + 1) labels could not be counted, let alone
    given, is refused without computing that number."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gen-debruijn", "--order", order, "--labels", "a,b")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == f"error (graph): expected 2^{int(order) + 1} labels for order {order}, got 2\n"


@pytest.mark.parametrize(
    "labels,name",
    [
        ("a b,c,a b,c", "'a b'"),
        ("a,b,a,", "''"),
        ("a,b#,a,b#", "'b#'"),
        ("a,b\tc,a,b\tc", "'b\\tc'"),
    ],
)
def test_gen_debruijn_refuses_labels_the_format_cannot_hold(capsys, tmp_path, labels, name):
    """A label that the graph format would not read back as one token is
    refused, and no file is written."""
    out_file = tmp_path / "g.g"
    argv = ("gen-debruijn", "--order", "1", "--labels", labels, "--out", str(out_file))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error (graph): symbol {name} is not one token of the graph format")
    assert not out_file.exists()


def test_gen_debruijn_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gen-debruijn", "--builtin", "nope")
    assert code == 2 and "usage error" in err
    code, _, err = run_cli(capsys, "gen-debruijn")
    assert code == 2 and "usage error" in err


def test_encode_command(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--graph", G3, "--sequence", "b,b", "--brute-force"
    )
    assert code == 0
    lines = out.splitlines()
    assert "distortion: 1" in lines
    assert "labels: b a" in lines
    assert "brute-force check: 1" in lines
    code, out, _ = run_cli(
        capsys, "encode", "--graph", G3, "--sequence", "b,a,b", "--porcelain"
    )
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["distortion"] == "0"
    assert fields["labels"] == "b,a,b"


def test_domain_errors_exit_1(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", "--graph", "graphs/missing.g")
    assert code == 1 and out == ""
    assert err.startswith("error (graph):")
    bad = tmp_path / "bad.g"
    bad.write_text("alphabet a\nedge v w a\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--graph", str(bad))
    assert code == 1 and err.startswith("error (graph):")
    code, _, err = run_cli(
        capsys, "analyze", "--graph", G3, "--source", "a:1/2,b:1/3"
    )
    assert code == 1 and err.startswith("error (source):")
    # periodic graph: no state space
    per = tmp_path / "per.g"
    per.write_text("alphabet a\nedge v w a\nedge w v a\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "enumerate", "--graph", str(per))
    assert code == 1 and err.startswith("error (graph):")


def test_simulate_past_physical_memory_exits_1(capsys):
    # one byte of increments per step: 10 TB, refused before allocating
    code, out, err = run_cli(capsys, "simulate", "--graph", G3, "--n", "10000000000000")
    assert code == 1 and out == ""
    assert err.startswith("error (simulate): a walk of 10,000,000,000,000 steps needs")
    assert err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "analyze")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "simulate", "--graph", G3)[0] == 2  # missing --n


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--graph", G3, "--n", "0"), "argument --n: must be at least 1"),
        (
            ("simulate", "--graph", G3, "--n", "10", "--parallel", "0"),
            "argument --parallel: must be at least 1",
        ),
        (("encode", "--graph", G3, "--sequence", "a,z"), "symbol 'z' is not in"),
        (("encode", "--graph", G3, "--sequence", ""), "--sequence is empty"),
        # D(R) runs at one fixed precision: no tolerance flags
        (("analyze", "--graph", G3, "--rd-tol", "1e-9"), "unrecognized arguments: --rd-tol"),
        (
            ("rd", "--alphabet", "4", "--rate", "1", "--tol", "1e-9"),
            "unrecognized arguments: --tol",
        ),
    ],
    ids=["n-zero", "parallel-zero", "unknown-symbol", "empty-sequence", "rd-tol", "tol"],
)
def test_bad_input_exits_2_without_traceback(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ("analyze", "--graph", "TMP/latin1.g"),
            "error (graph): cannot read TMP/latin1.g: not UTF-8 text",
        ),
        (
            ("quotient", "--graph", DB8, "--group", "TMP/latin1.perm"),
            "error (graph): cannot read TMP/latin1.perm: not UTF-8 text",
        ),
        (
            ("gen-debruijn", "--builtin", "paper-example", "--out", "TMP/missing/x.g"),
            "error (graph): cannot write TMP/missing/x.g: No such file or directory",
        ),
        (
            ("gen-debruijn", "--builtin", "paper-example", "--out", "TMP"),
            "error (graph): cannot write TMP: Is a directory",
        ),
        (
            ("simulate", "--graph", "TMP/sourceless.g", "--n", "10"),
            "error (graph): vertex 'v' has no incoming edge; the walk needs one per vertex",
        ),
        (
            ("rd", "--alphabet", "4", "--rate", "nan"),
            "error (rd): rate nan outside [0, 2.0] for this source",
        ),
        (
            ("rd", "--alphabet", "1000000000", "--rate", "1"),
            "error (source): alphabet size must be at most 65536",
        ),
    ],
    ids=[
        "undecodable-graph", "undecodable-group", "no-such-dir", "out-is-dir", "sourceless",
        "rate-nan", "alphabet-too-large",
    ],
)
def test_bad_input_exits_1_without_traceback(capsys, tmp_path, argv, line):
    (tmp_path / "latin1.g").write_bytes(b"alphabet a b\nedge v w caf\xe9\n")
    (tmp_path / "latin1.perm").write_bytes(b"1 0 \xe9\n")
    (tmp_path / "sourceless.g").write_text("alphabet a b\nedge v w a\nedge w w b\n")
    code, out, err = run_cli(capsys, *(arg.replace("TMP", str(tmp_path)) for arg in argv))
    assert code == 1 and out == ""
    assert err == line.replace("TMP", str(tmp_path)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--graph", DB8),
        ("enumerate", "--graph", DB8),
        ("quotient", "--graph", DB8, "--group", PERM),
    ],
    ids=["analyze", "enumerate", "quotient"],
)
def test_max_states_caps_the_space(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--max-states", "106")
    assert code == 1 and out == ""
    assert err == "error (enumerate): more than 106 states; raise max_states to continue\n"
    code, out, err = run_cli(capsys, *argv, "--max-states", "107")  # debruijn8 has 107
    assert code == 0 and err == ""
    assert out == run_cli(capsys, *argv)[1]
    code, out, err = run_cli(capsys, *argv, "--max-states", "0")
    assert code == 2 and out == ""
    assert "argument --max-states: must be at least 1" in err.splitlines()[-1]


def _check_tcq_command(command, env=None):
    proc = subprocess.run(
        [*command, "analyze", "--graph", str(GRAPH_DIR / "debruijn8.g")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "D(G) = 452/1809 = 0.2498618021" in proc.stdout, proc.stderr


def test_console_script_entry_point():
    """The `tcq` command declared in [project.scripts] runs `analyze`.

    The declared target is started the way pip's console-script wrapper
    starts it, so the check needs no install; a `tcq` script found on the
    PATH is run as well and must pass the same checks.
    """
    exe = shutil.which("tcq")
    if tomllib is None and exe is None:
        pytest.skip("tomllib needs Python 3.11+ and no tcq script is on the PATH")
    if tomllib is not None:
        pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        module, func = pyproject["project"]["scripts"]["tcq"].split(":")
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'tcq'; sys.exit({func}())"
        )
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        _check_tcq_command([sys.executable, "-c", wrapper], env=env)
    if exe is not None:
        _check_tcq_command([exe])


def test_module_invocation_matches_script():
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "tcq.cli", "rd", "--alphabet", "2", "--rate", "0.5"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert "D(R) = " in proc.stdout


# scripts/debruijn8_report.py's stdout without Monte Carlo
REPORT_LINES = [
    "states: 107  (exact-path constant 3)",
    "D(G) = 452/1809 = 0.2498618021",
    "",
    "translation quotient: 16 fibers, D = 452/1809",
    "       rep size mass*1809  inc",
    "  01112211    8       268  1/2",
    "  01101111    4       212    0",
    "  00000011    4       198    0",
    "  01212222    8       194  1/2",
    "  01213322    8       194  1/2",
    "  00111101    8       194    0",
    "  01111111    8       128  1/2",
    "  01101122    8       112    0",
    "  00001111    2        99    0",
    "  01112222    8        64  1/2",
    "  01212211    8        56  1/2",
    "  00110110    8        32    0",
    "  00011100    8        28    0",
    "  00012211    8        16    0",
    "  00011111    8        14    0",
    "  00000000    1         0    0",
    "",
    "D(R=1) baseline: 0.189289624915",
    "gap D(G) - D(R): 0.060572177185  (bound holds)",
]


def test_debruijn8_report_script():
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "debruijn8_report.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == REPORT_LINES
