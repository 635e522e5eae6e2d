"""Tests of the benchmark itself: workload generation, the checks, tracing.

    python3 -m pytest perfbench

Everything here runs the workloads at their tiny size (a few simulated
seconds), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.require_program()

import famtarsim  # noqa: E402
from famtarsim import engine as engine_mod  # noqa: E402
from famtarsim import model, routing, scenario  # noqa: E402

import pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def test_mesh_churn_is_a_function_of_the_seed():
    assert workloads.mesh_churn(7) == workloads.mesh_churn(7)
    assert workloads.mesh_churn(7) != workloads.mesh_churn(8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mesh_churn_is_a_valid_scenario_failing_only_core_links(seed):
    raw = workloads.mesh_churn(seed)
    spec = scenario.ScenarioSpec.from_dict(raw)
    topo = spec.build_topology()
    assert len(topo.routers()) == 36 and len(topo.hosts()) == 8
    assert len(spec.data["failures"]) > 300
    down_until = {}
    for failure in spec.data["failures"]:
        link = topo.link_by_id[failure["link"]]
        assert topo.nodes[link.endpoint_a].kind == model.ROUTER
        assert topo.nodes[link.endpoint_b].kind == model.ROUTER
        # a link fails again only after its repair
        assert down_until.get(link.link_id, -1.0) < failure["down_at_s"]
        down_until[link.link_id] = failure.get("up_at_s", float("inf"))


@pytest.mark.parametrize("name", NAMES)
def test_pipeline_runs_the_same_simulation_as_run_scenario(name):
    raw = workloads.WORKLOADS[name](3, True)
    rep = pipeline.run_repetition(raw)
    assert pipeline.problems(rep) == []
    reference = scenario.run_scenario(scenario.ScenarioSpec.from_dict(raw))
    assert rep.result.event_log_hash == reference.event_log_hash
    assert rep.report.scalars() == reference.report().scalars()


def test_expected_statistics_catch_a_changed_value():
    rep = pipeline.run_repetition(workloads.WORKLOADS["elastic-k4-ip"](1, True))
    stats = pipeline.statistics(rep)
    assert pipeline.diff_statistics(stats, json.loads(json.dumps(stats))) == []
    changed = json.loads(json.dumps(stats))
    changed["log_counts"]["emit"] += 1
    changed["scalars"]["delay_avg_ms"] *= 1.001
    assert len(pipeline.diff_statistics(stats, changed)) == 2


def test_expected_file_covers_every_workload():
    recorded = json.loads(run.EXPECTED.read_text())
    assert sorted(recorded) == sorted(NAMES)


def test_tracer_restores_every_wrapped_name():
    before = (engine_mod.spf, engine_mod.heapq, famtarsim.collect,
              model.Packet.__init__, routing.LinkStateDb.__dict__["from_topology"])
    with tracing.Tracer():
        assert engine_mod.spf.__wrapped__ is before[0]
    after = (engine_mod.spf, engine_mod.heapq, famtarsim.collect,
             model.Packet.__init__, routing.LinkStateDb.__dict__["from_topology"])
    assert after == before


def _traced(raw):
    with tracing.Tracer() as tracer:
        rep = pipeline.run_repetition(raw)
    return rep, tracing.layer_metrics(tracer)


def test_traced_counts_repeat_and_tracing_changes_nothing():
    raw = workloads.mesh_churn(5, True)
    plain = pipeline.run_repetition(raw)
    rep_a, layers_a = _traced(raw)
    rep_b, layers_b = _traced(raw)
    assert rep_a.result.event_log_hash == plain.result.event_log_hash
    assert rep_b.result.event_log_hash == plain.result.event_log_hash
    counts = {k: v for k, (v, unit) in layers_a.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in layers_b.items() if unit == "count"}
    assert counts["routing.spf_runs"] > 0 and counts["flowtable.purged"] > 0


def test_ip_workload_bypasses_flowtable_and_routing():
    _, layers = _traced(workloads.WORKLOADS["elastic-k4-ip"](1, True))
    for name in ("flowtable.lookups", "flowtable.inserts", "routing.spf_runs",
                 "routing.flood_plans"):
        assert layers[name][0] == 0, name
    assert layers["router.decisions"][0] > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_every_workload_prints_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seed", "1", "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = json.loads(lines[-1])
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert sorted(results) == sorted(NAMES)
    for name, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
        row = next(line for line in lines if line.startswith(f"{name} seed=1 "))
        for metric, unit in wanted.items():
            assert f" {metric}=" in row and f" {unit}" in row
        assert "error_rate=0 ratio" in row


def test_refuses_to_run_without_the_program_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "mesh-churn", "--seed", "1", "--trace", "0"])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""
