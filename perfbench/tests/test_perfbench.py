"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

IN_PROCESS = ("complexes", "embeddings", "long_words")


def _signature(jobs):
    return [(j.label, repr(j.inputs)) for j in jobs]


@pytest.mark.parametrize("name", IN_PROCESS)
def test_job_lists_are_deterministic_per_seed(name):
    setup = wl.SETUPS[name]
    first = _signature(setup(3, {}))
    assert first == _signature(setup(3, {}))
    assert first != _signature(setup(4, {}))


def _cheapest(jobs, prefix):
    return next(j for j in jobs if j.label.startswith(prefix))


def test_corrupted_reference_counts_as_failure():
    ref = wl.load_ref("long_words.json")
    job = _cheapest(wl.setup_long_words(0, {"long_words_ref": ref}), "C6 cyclic")
    assert run.run_pass([job]).failures == []
    bad = dict(ref, **{job.label: "0" * 16})
    job = _cheapest(wl.setup_long_words(0, {"long_words_ref": bad}), "C6 cyclic")
    p = run.run_pass([job])
    assert [label for label, _ in p.failures] == [job.label]


def test_raising_job_is_counted_not_fatal():
    def boom():
        raise ValueError("boom")
    jobs = [wl.Job("raises", boom, lambda v: None),
            wl.Job("fine", lambda: 1, lambda v: None)]
    p = run.run_pass(jobs)
    assert len(p.latencies) == 2
    assert [label for label, _ in p.failures] == ["raises"]


def test_must_fail_fixtures_fail_as_recorded():
    jobs = [j for j in wl.setup_embeddings(0, {}) if j.must_fail]
    jobs += [j for j in wl.setup_complexes(0, {}) if j.must_fail]
    assert sorted(j.label for j in jobs) == ["bad1", "bad2", "hollow corner"]
    assert run.run_pass(jobs).failures == []
    # the recorded outcomes are failures of the program's checks
    assert wl.load_ref("embeddings.json")["bad1"][1:3] == [True, False]
    assert wl.load_ref("embeddings.json")["bad2"][1] is False
    assert wl.load_ref("complexes.json")["hollow_corner"] == ["npc", False,
                                                              [0, 0, 0]]


def test_normal_form_check_rejects_non_normal_words():
    gp = wl.fresh_import()
    alpha = wl.Alphabet(wl.long_word_specs(gp)["P7opp"])
    # a and c commute in the opposite of the path a-b-c-...
    assert alpha.normal_form_error((("a", 1), ("c", 1))) is None
    assert alpha.normal_form_error((("c", 1), ("a", 1))) is not None
    assert alpha.normal_form_error((("a", 1), ("c", 1), ("a", 1))) is not None
    assert alpha.cyclic_error((("a", 1), ("b", 1), ("a", -1))) is not None


def _bindings(gp):
    out = {}
    for layer in wl.LAYERS:
        mod = getattr(gp, layer)
        out.update({(layer, k): v for k, v in vars(mod).items()})
    out["apply"] = vars(gp.embeddings.HomomorphismSpec)["apply"]
    return out


def test_weak_chordality_is_recomputed_from_graph6():
    gp = wl.fresh_import()
    g6 = gp.graphs.write_graph6
    cases = {"C5": (gp.catalog.cycle(5), False), "C6": (gp.catalog.cycle(6), False),
             "C4": (gp.catalog.cycle(4), True), "P6": (gp.catalog.path(6), True),
             "antihole C6": (gp.graphs.opposite(gp.catalog.cycle(6)), False)}
    for name, (g, want) in cases.items():
        adj = wl.graph6_adjacency(g6(g))
        assert sum(map(len, adj)) // 2 == len(g.edges), name
        assert wl.weakly_chordal(adj) is want, name


def test_wrappers_catch_internal_calls_and_restore_originals():
    gp = wl.fresh_import()
    before = _bindings(gp)
    t = tr.Tracer()
    t.install()
    try:
        assert gp.classify.find_hole is not before[("graphs", "find_hole")]
        assert gp.embeddings.multiply is not before[("words", "multiply")]
        gp.classify.racg_surface_subgroup(gp.catalog.cycle(5))
        X = gp.complexes.build_z0(gp.words.GroupSpec(gp.catalog.cycle(4), 2))
        gp.complexes.is_npc(X)
    finally:
        t.uninstall()
    after = _bindings(gp)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    s = t.summary()
    assert s["under"][("classify.racg_surface_subgroup", "graphs.find_hole")] >= 1
    assert s["functions"]["complexes.vertex_link"]["calls"] == 16
    assert s["counts"]["complexes.points"] == 0  # no stats_line call
    # self times add up to the time of the top-level spans
    assert sum(s["layers"].values()) == pytest.approx(s["top_level_s"])


def test_spans_round_trip(tmp_path):
    gp = wl.fresh_import()
    t = tr.Tracer()
    t.install()
    try:
        gp.words.normalize(gp.words.Word(
            gp.words.GroupSpec(gp.catalog.path(3), 2), (("a", 1), ("c", 1))))
    finally:
        t.uninstall()
    t.dump(tmp_path / "spans.bin")
    back = tr.Tracer.load(tmp_path / "spans.bin")
    assert back.summary() == t.summary()


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.SETUPS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "complexes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
