"""The benchmark's own tests: span arithmetic, metric names, and a
tiny-size smoke of every workload.

    python3 -m pytest pipebench -q
"""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert spans.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_children_once():
    # algo [0,10] with net.run [1,3] and kw [4,9]; kw holds net.run [5,8]
    log = [
        ["core.run_algorithm", 0.0, 10.0, -1],
        ["simulator.run", 1.0, 3.0, 0],
        ["core.kw_reduction", 4.0, 9.0, 0],
        ["simulator.run", 5.0, 8.0, 2],
    ]
    assert spans.exclusive_s(log, "core.run_algorithm") == 10 - 2 - 5
    assert spans.exclusive_s(log, "core.run_algorithm", {"simulator.run"}) == 10 - 2 - 3
    assert spans.exclusive_s(log, "core.kw_reduction", {"simulator.run"}) == 2
    assert spans.total_s(log, "simulator.run") == 5
    assert spans.count(log, "simulator.run") == 2


def test_nested_same_name_spans_count_once():
    log = [["graphs.csr", 0.0, 4.0, -1], ["graphs.csr", 1.0, 2.0, 0]]
    assert spans.total_s(log, "graphs.csr") == 4
    assert spans.exclusive_s(log, "graphs.csr") == 3


def test_fallbacks_are_column_spans_with_an_event_child():
    log = [
        ["simulator.column.execute", 0.0, 3.0, -1],
        ["simulator.event.execute", 0.5, 2.5, 0],
        ["simulator.column.execute", 4.0, 5.0, -1],
    ]
    assert spans.fallbacks(log, "simulator.column.execute", "simulator.event.execute") == 1
    layers = spans.layer_metrics(log)
    assert layers["simulator.column.kernel_frac"] == 0.5
    assert layers["simulator.column.execute_s"] == 3 - 2 + 1


def test_recorder_nests_spans_by_call_stack():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: 1)
    outer = rec.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    assert [(s[0], s[3]) for s in rec.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s[1] <= s[2] for s in rec.spans)


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_metric_names_match_the_benchmark_file():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    units = lambda key: {m["name"]: m["unit"] for m in bench[key]}  # noqa: E731
    assert units("end_to_end") == run.END_TO_END
    assert units("per_layer") == spans.LAYER_METRICS
    assert set(workloads.PREDICTIONS) == set(spans.LAYER_METRICS)


# ----------------------------------------------------------------------
# workloads at tiny size
# ----------------------------------------------------------------------
def test_inputs_come_from_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 3) == workloads.make_inputs(w, 3)
        assert workloads.make_inputs(w, 3) != workloads.make_inputs(w, 4)
    with pytest.raises(ValueError):
        workloads.make_inputs("nope", 1)


def _pass(workload, traced, tmp_path):
    probe = spans.Probe(traced=traced).install()
    try:
        return probe, workloads.run_pass(
            workloads.make_inputs(workload, 7, tiny=True), probe, str(tmp_path)
        )
    finally:
        probe.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_traced_and_untraced_agree(workload, tmp_path):
    _, plain = _pass(workload, False, tmp_path)
    probe, traced = _pass(workload, True, tmp_path)
    assert plain["trials"] and all(t["ok"] for t in plain["trials"])
    counts = lambda rec: [[t[k] for k in run.COUNTS] for t in rec["trials"]]  # noqa: E731
    assert counts(plain) == counts(traced)
    assert plain["first"] <= plain["end"]
    layers = spans.layer_metrics(probe.recorder.spans, traced.get("sweep"))
    run_level = {
        "pipeline.scaling_slope", "trace.overhead_frac", "host.wall_s", "host.ref_s",
    }
    assert set(layers) | run_level == set(spans.LAYER_METRICS)
    assert layers["simulator.runs"] > 0
    assert layers["verify.check_s"] > 0
    assert not list(tmp_path.iterdir())  # the sweep cache is removed


def test_probe_uninstall_restores_every_binding():
    from repro.experiments import registry
    from repro.graphs.graph import Graph
    from repro.simulator.network import SynchronousNetwork

    before = (
        SynchronousNetwork.__dict__["run"],
        Graph.__dict__["from_arrays"],
        dict(registry.ALGORITHMS),
        dict(registry.FAMILIES),
        registry.check_legal_coloring,
    )
    spans.Probe(traced=True).install().uninstall()
    after = (
        SynchronousNetwork.__dict__["run"],
        Graph.__dict__["from_arrays"],
        dict(registry.ALGORITHMS),
        dict(registry.FAMILIES),
        registry.check_legal_coloring,
    )
    assert before == after


# ----------------------------------------------------------------------
# trial checks
# ----------------------------------------------------------------------
def _sweep_result(alg, scheduler, rounds):
    trial = SimpleNamespace(
        family="tree", family_params={"n": 9}, algorithm=alg, seed=1,
        scheduler=scheduler, label=lambda: f"tree/{alg}",
    )
    metrics = {"kind": "coloring", "colors": 3, "rounds": rounds, "verified": True}
    return SimpleNamespace(trial=trial, metrics=metrics, cached=False)


def test_column_and_event_cells_must_agree():
    sweep = SimpleNamespace(results=[
        _sweep_result("cor46", "", 5), _sweep_result("cor46", "column", 5),
    ])
    log = [("cor46", "event", 10), ("cor46", "column", 10)]
    assert all(t["ok"] for t in workloads.sweep_trials(sweep, log))
    sweep.results[1] = _sweep_result("cor46", "column", 6)
    assert not any(t["ok"] for t in workloads.sweep_trials(sweep, log))
    log[1] = ("cor46", "column", 11)
    sweep.results[1] = _sweep_result("cor46", "column", 5)
    assert not any(t["ok"] for t in workloads.sweep_trials(sweep, log))


def test_count_mismatch_between_passes_fails_the_trial():
    trial = {"label": "x", "ok": True, "rounds": 3, "messages": 9, "outputs": 2}
    passes = [{"trials": [trial]}, {"trials": [dict(trial)]}]
    assert run.check_trials(passes)[:2] == (2, 0)
    passes.append({"trials": [dict(trial, messages=10)]})
    assert run.check_trials(passes)[:2] == (3, 1)
    passes.append({"trials": [dict(trial, ok=False, error="boom")]})
    assert run.check_trials(passes)[:2] == (4, 2)


def test_child_pass_reports_a_record():
    rec = run.run_child(workloads.make_inputs("legal-ladder", 1, tiny=True), False)
    assert rec["setup_s"] > 0 and rec["wall_s"] > 0 and rec["peak_rss_mb"] > 0
    assert len(rec["trials"]) == 2 and all(t["ok"] for t in rec["trials"])


def test_times_are_rescaled_to_the_reference_speed():
    nominal = run.REF_NOMINAL_S
    passes = [
        {"wall_s": 4.0, "ref_s": 2 * nominal},  # slow host: halved
        {"wall_s": 1.0, "ref_s": nominal},
        {"wall_s": 3.0, "ref_s": nominal},
    ]
    assert run.scaled(passes, "wall_s") == 2.0
    assert run.reference_s() > 0
