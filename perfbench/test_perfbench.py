"""Self-tests of the benchmark's own code:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tcq  # noqa: E402

import corpus  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, certify  # noqa: E402
from tracing import Tracer  # noqa: E402

DATA = corpus.load_corpus()


def _tcq_names() -> dict[tuple[str, str], object]:
    return {
        (mod_name, key): value
        for mod_name, mod in sys.modules.items()
        if mod_name == "tcq" or mod_name.startswith("tcq.")
        for key, value in vars(mod).items()
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    assert corpus.select(name, 7, DATA) == corpus.select(name, 7, DATA)
    build = workloads.WORKLOADS[name]
    a, b = build(7, DATA), build(7, DATA)
    assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
    kinds = {tuple(op.kind for op in build(seed, DATA).ops) for seed in range(8)}
    assert len(kinds) > 1, "the seed does not change the inputs"


def test_random_pools_are_gap_survey_draws(monkeypatch):
    spec = importlib.util.spec_from_file_location("gap_survey", ROOT / "scripts" / "gap_survey.py")
    gap_survey = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "gap_survey", gap_survey)
    spec.loader.exec_module(gap_survey)
    cfg = gap_survey.SurveyConfig(order=3, alphabet_size=4)
    theirs, ours = random.Random(0), random.Random(0)
    draws = set()
    for _ in range(1500):
        g = gap_survey.random_labelled_graph(cfg, theirs)
        labels = corpus.gap_survey_labels(ours, 3, 4)
        assert tuple(e.label for e in g.edges) == tuple(labels)
        draws.add(labels)
    assert {e["labels"] for e in DATA["order3"]} <= draws


def test_every_xor_family_graph_lumps():
    group = tcq.xor_translation_group(4)
    assert [e["fibers"] for e in DATA["xor4"]] == [61]
    for e in DATA["xor4"]:
        assert e["labels"] == corpus.xor_labels(4, *e["mask"])
        g = tcq.de_bruijn(4, tuple(e["labels"]))
        ss = tcq.enumerate_states(g)
        fp = tcq.induced_fibers(ss, group)
        qc = tcq.quotient(ss, tcq.SourceModel.uniform(g.alphabet), fp)
        assert (len(ss), len(qc)) == (e["states"], e["fibers"])


def test_certificate_rejects_a_perturbed_law():
    g = tcq.debruijn8_demo()
    mc = tcq.build_chain(tcq.enumerate_states(g), tcq.SourceModel.uniform(g.alphabet))
    q = list(tcq.stationary(mc).q)
    certify(mc, q, Fraction(452, 1809))
    i = next(i for i, x in enumerate(q) if x > 0)
    j = next(j for j in range(len(q)) if j != i)
    eps = Fraction(1, 10**9)
    q[i] -= eps
    q[j] += eps  # still a probability vector, no longer stationary
    with pytest.raises(CheckFailed):
        certify(mc, q, Fraction(452, 1809))
    with pytest.raises(CheckFailed):
        certify(mc, tcq.stationary(mc).q, Fraction(452, 1808))


def test_tracer_patches_callers_and_restores_every_name():
    before = _tcq_names()
    g = tcq.debruijn8_demo()
    tracer = Tracer()
    with tracer.installed():
        assert tcq.chain.stationary is not before[("tcq.chain", "stationary")]
        tcq.analyze(g)
    after = _tcq_names()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    by_id = {sp.id: sp for sp in tracer.spans}
    stationary = [sp for sp in tracer.spans if sp.name == "chain.stationary"]
    assert len(stationary) == 1 and by_id[stationary[0].parent].name == "chain.analyze"
    [enum] = [sp for sp in tracer.spans if sp.name == "statespace.enumerate"]
    assert sum(tracer.leaf_calls.values()) == enum.facts["arcs"] == 107 * 4
    self_t = tracer.self_times()
    total = sum(sp.duration for sp in tracer.spans if sp.parent is None)
    assert sum(self_t.values()) == pytest.approx(total)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_once_ops_pass(name):
    for op in workloads.WORKLOADS[name](1, DATA).once:
        op.check(op.run())
