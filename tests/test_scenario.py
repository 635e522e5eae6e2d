import copy
import functools
import importlib.resources
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from famtarsim import scenario as scenario_mod
from famtarsim.model import TopologyError, seconds
from famtarsim.router import FamtarConfig
from famtarsim.routing import RoutingConfig
from famtarsim.scenario import (SCENARIO_SCHEMA, ScenarioError, ScenarioSpec,
                                build_parallel_paths_topology,
                                bundled_scenario_names, load_bundled,
                                run_experiment, run_scenario)
from famtarsim.traffic import (ParetoBatch, elastic_batch_workload,
                               single_cbr_workload, voip_vs_waves_workload)


def base_doc(**over):
    doc = {
        "version": 1,
        "name": "tiny",
        "duration_s": 2.0,
        "topology": {"builder": "parallel_paths", "paths": 1},
        "workload": {"kind": "single_cbr", "rate_bps": 800_000.0,
                     "packet_size_bytes": 1000},
    }
    doc.update(over)
    return doc


# -- schema and normalization -------------------------------------------------

@pytest.mark.parametrize("mutate", [
    lambda d: d.update(bogus=1),
    lambda d: d.update(version=2),
    lambda d: d.pop("workload"),
    lambda d: d.update(famtar={"threshold": 0.5}),
    lambda d: d.update(famtar={"fft_buckets": 1024}),             # a removed key
    lambda d: d.update(routing={"symmetric_escalation": True}),  # a removed key
    lambda d: d["topology"].update(paths=5),
    lambda d: d.update(failures=[{"link": "R1-R2"}]),  # down_at_s required
])
def test_schema_rejects(mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict(doc)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^R"},              # a keyword it does not know
    {"type": "object", "additionalProperties": False,
     "properties": {"id": {"type": "string", "format": "ipv4"}}},
    {"type": ["string", "null"]},
    {"const": [1]},                                    # a constant it cannot compare
    {"enum": ["host", None]},
    {"type": "number", "minimum": float("-inf")},
    {"minimum": 0},                                    # takes any type unchecked
    {"type": "object"},                                # an object left open
    {"type": "array"},                                 # an array of anything
    {"type": "string", "items": {"type": "string"}},    # a keyword for another type
    {"type": "integer", "minLength": 1},
    {"enum": ["host", "router"], "required": ["id"]},
])
def test_compiler_refuses_what_it_cannot_check(schema):
    with pytest.raises(ValueError, match="cannot compile|schema"):
        scenario_mod._compile(schema)


def test_a_rejection_jsonschema_cannot_name_is_still_an_error(monkeypatch):
    monkeypatch.setattr(scenario_mod, "_ACCEPTS", lambda raw: False)
    with pytest.raises(ScenarioError, match="jsonschema names no fault"):
        ScenarioSpec.from_dict(base_doc())


def test_compiled_check_takes_no_integral_float_for_an_integer():
    assert ScenarioSpec.from_dict(base_doc(repetitions=2)).repetitions == 2
    with pytest.raises(ScenarioError,
                       match=r"^schema violation at repetitions: 2.0 is not of type"):
        ScenarioSpec.from_dict(base_doc(repetitions=2.0))


# -- schema mutations ------------------------------------------------------------
#
# Every bundled document and a small mesh document, each mutated once.  The
# compiled check must agree with jsonschema and _non_finite on every one, and a
# document either fails with a scenario or topology error or parses into a
# spec that round-trips through YAML.

def mesh_doc() -> dict:
    """A 2 x 3 router grid with a host at each end and flapping core links."""
    grid = [[f"R{r}{c}" for c in range(3)] for r in range(2)]
    core = [(grid[r][c], grid[r][c + 1]) for r in range(2) for c in range(2)]
    core += [(grid[0][c], grid[1][c]) for c in range(3)]
    links = [{"id": f"{a}-{b}", "a": a, "b": b, "capacity_bps": 10_000_000,
              "cost": 5 + 3 * i % 7} for i, (a, b) in enumerate(core)]
    links += [{"id": "H1-R00", "a": "H1", "b": "R00", "capacity_bps": 100_000_000,
               "delay_ms": 0.1},
              {"id": "H2-R12", "a": "H2", "b": "R12", "capacity_bps": 100_000_000}]
    failures = [{"link": links[i]["id"], "down_at_s": 0.2 * i + 0.1,
                 **({"up_at_s": 0.2 * i + 0.5} if i % 2 else {})} for i in range(5)]
    return {"version": 1, "name": "mesh", "seed": 4, "duration_s": 2.0,
            "topology": {"nodes": [{"id": rid, "kind": "router"}
                                   for row in grid for rid in row]
                         + [{"id": "H1", "kind": "host"}, {"id": "H2", "kind": "host"}],
                         "links": links},
            "workload": {"kind": "custom", "flows": [
                {"src": "H1", "dst": "H2", "rate_bps": 400_000.0,
                 "packet_size_bytes": 500, "start_s": 0.0},
                {"src": "H2", "dst": "H1", "rate_bps": 200_000, "packet_size_bytes": 250,
                 "start_s": 0.5, "stop_s": 1.5, "label": "back", "ttl": 16}]},
            "routing": {"spf_delay_ms": 2.0},
            "famtar": {"enabled": True, "congest_threshold": 0.8},
            "failures": failures}


def bundled_text(name: str) -> str:
    path = importlib.resources.files("famtarsim") / "scenarios" / f"{name}.yaml"
    return path.read_text(encoding="utf-8")


MUTATION_STARTS = [yaml.safe_load(bundled_text(name))
                   for name in bundled_scenario_names()] + [mesh_doc()]
ODD_VALUES = [True, False, None, 0, -1, 2**63, 0.5, 2.0, -0.0, math.inf, -math.inf,
              math.nan, "", [], {}]


def positions(node, path=()):
    """(key path, value) for every value of a document, the root included."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        yield from positions(value, (*path, key))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(MUTATION_STARTS)))
    every = list(positions(doc))
    how = draw(st.sampled_from(["drop a key", "add an unknown key", "set a leaf"]))
    if how == "set a leaf":
        path = draw(st.sampled_from([p for p, v in every
                                     if p and not isinstance(v, (dict, list))]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    elif how == "drop a key":
        mapping = draw(st.sampled_from([v for _, v in every if isinstance(v, dict) and v]))
        del mapping[draw(st.sampled_from(sorted(mapping)))]
    else:
        draw(st.sampled_from([v for _, v in every if isinstance(v, dict)]))["bogus"] = 1
    return doc


@functools.cache
def accepted_mutations() -> tuple[dict, ...]:
    """Checks 1,000 mutated documents and returns the normalized documents
    of those that parse."""
    accepted = []

    @settings(max_examples=1000, deadline=None)
    @given(mutated_documents())
    def check(doc):
        fault_free = (next(scenario_mod._VALIDATOR.iter_errors(doc), None) is None
                      and scenario_mod._non_finite(doc) is None)
        assert scenario_mod._ACCEPTS(doc) == fault_free
        try:
            spec = ScenarioSpec.from_dict(doc)
        except (ScenarioError, TopologyError):
            return
        assert fault_free
        text = spec.to_yaml()
        assert ScenarioSpec.from_yaml(text) == spec
        assert ScenarioSpec.from_yaml(text).to_yaml() == text
        accepted.append(spec.to_dict())

    check()
    return tuple(accepted)


def test_mutated_documents_are_rejected_cleanly_or_round_trip():
    assert len(accepted_mutations()) > 100


# Runs each document cut to 0.2 s, with the failures after the cut dropped
# and repairs after it left out, and prints a line for each run that
# conserves; the first that does not ends it with a traceback.
RUN_CUT_SHORT = """
import json, sys
from famtarsim.model import seconds
from famtarsim.scenario import ScenarioSpec, run_scenario

cut = seconds(0.2)
for data in json.load(sys.stdin):
    failures = [{k: v for k, v in f.items() if k != "up_at_s" or seconds(v) < cut}
                for f in data["failures"] if seconds(f["down_at_s"]) < cut]
    engine = run_scenario(ScenarioSpec({**data, "duration_s": 0.2,
                                        "failures": failures}))
    assert engine.conserved(), (data, engine.conservation())
    print("conserved", flush=True)
"""


def test_accepted_mutations_run_cut_short_and_conserve():
    docs = accepted_mutations()
    package_root = str(Path(scenario_mod.__file__).parents[1])  # this famtarsim
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    # a hang fails the test; all the runs together take a few seconds
    done = subprocess.run([sys.executable, "-c", RUN_CUT_SHORT], input=json.dumps(docs),
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["conserved"] * len(docs)


def test_defaults_are_filled_in():
    spec = ScenarioSpec.from_dict(base_doc())
    d = spec.to_dict()
    assert d["seed"] == 1 and d["repetitions"] == 1
    assert d["measurement_window_s"] == [0, 2]
    assert d["famtar"] == {"enabled": True, "flow_timeout_s": 10.0,
                           "block_duration_s": 5.0, "monitor_period_s": 1.0,
                           "congest_threshold": 0.9, "clear_threshold": 0.7}
    assert d["routing"]["high_cost"] == 10_000
    assert d["topology"]["transits_per_path"] == [1]
    assert d["topology"]["path_costs"] == [10]
    assert d["failures"] == []
    assert spec.window == (0, 2)


# what a section holding only its kind (or only ``paths``) normalizes to:
# key order, value and type, since to_yaml writes 1000 and 1000.0 apart
PINNED_DEFAULTS = {
    "pareto_batch": {"kind": "pareto_batch", "src": "H1", "dst": "H2",
                     "flows": 500, "flow_rate_bytes_per_s": 100_000.0,
                     "packet_size_bytes": 1000, "size_mean_bytes": 1_000_000.0,
                     "size_shape": 1.25, "size_cap_bytes": 100_000_000.0,
                     "inter_start_mean_s": 0.5},
    "voip_waves": {"kind": "voip_waves", "src": "H1", "dst": "H2",
                   "voip_rate_bps": 50_000.0, "voip_packet_bytes": 125,
                   "wave_rate_bps": 100_000.0, "wave_packet_bytes": 1000,
                   "first_wave": 50, "first_wave_start_s": 6.0,
                   "second_wave": 150, "second_wave_start_s": 25.0,
                   "second_wave_stop_s": 70.0, "spacing_s": 0.2},
    "single_cbr": {"kind": "single_cbr", "src": "H1", "dst": "H2",
                   "rate_bps": 2_840_000.0, "packet_size_bytes": 64,
                   "start_s": 0.0},
}
WORKLOAD_FUNCTIONS = {"pareto_batch": elastic_batch_workload,
                      "voip_waves": voip_vs_waves_workload,
                      "single_cbr": single_cbr_workload}


def typed_items(d: dict) -> list:
    return [(k, v, type(v)) for k, v in d.items()]


@pytest.mark.parametrize("kind", sorted(PINNED_DEFAULTS))
def test_workload_kind_defaults_are_pinned(kind):
    spec = ScenarioSpec.from_dict(base_doc(workload={"kind": kind}))
    assert typed_items(spec.data["workload"]) == typed_items(PINNED_DEFAULTS[kind])


def test_builder_defaults_are_pinned():
    spec = ScenarioSpec.from_dict(base_doc(topology={"builder": "parallel_paths",
                                                     "paths": 2}))
    assert typed_items(spec.data["topology"]) == typed_items({
        "builder": "parallel_paths", "paths": 2,
        "core_capacity_bps": 10_000_000, "host_capacity_bps": 100_000_000,
        "core_delay_ms": 1.0, "host_delay_ms": 0.1, "base_cost": 10,
        "queue_capacity": 100, "transits_per_path": [1, 1],
        "path_costs": [10, 10]})


@pytest.mark.parametrize("kind", sorted(WORKLOAD_FUNCTIONS))
def test_workload_schema_keys_are_the_function_parameters(kind):
    schemas = SCENARIO_SCHEMA["properties"]["workload"]["oneOf"]
    schema = next(s for s in schemas if s["properties"]["kind"] == {"const": kind})
    params = inspect.signature(WORKLOAD_FUNCTIONS[kind]).parameters
    assert list(schema["properties"]) == ["kind", *params]


def test_absent_sections_give_the_config_defaults():
    spec = ScenarioSpec.from_dict(base_doc())
    assert spec.routing_config() == RoutingConfig()
    assert spec.famtar_config() == FamtarConfig()


def test_parse_serialize_parse_is_identity():
    spec = ScenarioSpec.from_dict(base_doc(seed=7))
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert ScenarioSpec.from_yaml(spec.to_yaml()) == spec
    assert spec != ScenarioSpec.from_dict(base_doc(seed=8))


def test_from_dict_does_not_alias_input():
    doc = base_doc()
    spec = ScenarioSpec.from_dict(doc)
    doc["duration_s"] = 99.0
    assert spec.duration_s == 2.0


def test_nested_lists_are_copied_in_and_out():
    doc = {**mesh_doc(), "measurement_window_s": [0, 2]}
    spec = ScenarioSpec.from_dict(doc)
    before = spec.to_yaml()
    for outside in (doc, spec.to_dict()):
        outside["failures"].pop()
        outside["failures"][0]["down_at_s"] = 1.5
        outside["topology"]["nodes"].pop()
        outside["topology"]["nodes"][0]["kind"] = "host"
        outside["measurement_window_s"][1] = 1
        assert spec.to_yaml() == before


def test_from_yaml_rejects_non_mapping():
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_yaml("- just\n- a list\n")


# -- semantic checks ----------------------------------------------------------

@pytest.mark.parametrize("over", [
    {"measurement_window_s": [0, 3]},
    {"measurement_window_s": [1, 1]},
    {"famtar": {"congest_threshold": 0.8, "clear_threshold": 0.8}},
    {"workload": {"kind": "single_cbr", "src": "H9"}},
    {"workload": {"kind": "single_cbr", "src": "R1"}},
    {"failures": [{"link": "nope", "down_at_s": 1.0}]},
    {"failures": [{"link": "H1-R1", "down_at_s": 1.0}]},
    {"failures": [{"link": "R1-R2", "down_at_s": 5.0}]},
    {"failures": [{"link": "R1-R2", "down_at_s": 1.0, "up_at_s": 1.0}]},
])
def test_semantic_rejects(over):
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict(base_doc(**over))


# times that differ in seconds but round to the same microsecond
@pytest.mark.parametrize("failure", [
    {"link": "R1-R2", "down_at_s": 1.9999996},               # == the 2 s end
    {"link": "R1-R2", "down_at_s": 1.0, "up_at_s": 1.0000004},  # == the failure
])
def test_failure_times_are_checked_in_microseconds(failure):
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict(base_doc(failures=[failure]))


def test_voip_waves_flow_count_is_checked_before_the_flows_are_built():
    doc = base_doc(workload={"kind": "voip_waves", "first_wave": 300_000})
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError,
                           match=r"^300151 flows, but source ports stop at 65535$"):
            ScenarioSpec.from_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_from_yaml_wraps_parser_errors():
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_yaml("version: [1\n")
    # libyaml words the problem its own way but marks the same place
    with pytest.raises(ScenarioError, match=r"^not a YAML document \(line 2, column 5\): "):
        ScenarioSpec.from_yaml("version: [1\nname: x\n")


def test_explicit_topology_errors_surface():
    doc = base_doc(topology={
        "nodes": [{"id": "H1", "kind": "host"}, {"id": "H2", "kind": "host"},
                  {"id": "R1", "kind": "router"}],
        "links": [{"id": "L1", "a": "H1", "b": "R1", "capacity_bps": 1000},
                  {"id": "L2", "a": "H1", "b": "R1", "capacity_bps": 1000},
                  {"id": "L3", "a": "R1", "b": "H2", "capacity_bps": 1000}],
    })
    with pytest.raises(TopologyError):
        ScenarioSpec.from_dict(doc)   # multihomed host: H1 has two links


# -- parallel-paths builder ---------------------------------------------------

@pytest.mark.parametrize("paths", [0, 5])
def test_builder_rejects_path_count(paths):
    with pytest.raises(ValueError):
        build_parallel_paths_topology(paths)


def test_builder_rejects_bad_per_path_lists():
    with pytest.raises(ValueError):
        build_parallel_paths_topology(2, transits_per_path=[1, 1, 1])
    with pytest.raises(ValueError):
        build_parallel_paths_topology(2, path_costs=[5])
    with pytest.raises(ValueError):
        build_parallel_paths_topology(1, transits_per_path=9)


def test_builder_shapes():
    topo = build_parallel_paths_topology(2)
    assert sorted(topo.nodes) == ["H1", "H2", "R1", "R2", "R3", "R4"]
    assert "R2-R4" in topo.link_by_id and "R3-R4" in topo.link_by_id

    topo = build_parallel_paths_topology(2, transits_per_path=[2, 1])
    assert sorted(topo.nodes) == ["H1", "H2", "R1", "R2", "R2B", "R3", "R4"]
    assert sorted(topo.link_by_id) == ["H1-R1", "R1-R2", "R1-R3", "R2-R2B",
                                       "R2B-R4", "R3-R4", "R4-H2"]

    topo = build_parallel_paths_topology(4)
    assert {"R2", "R3", "R5", "R6"} <= set(topo.nodes)


def test_builder_applies_per_path_costs():
    topo = build_parallel_paths_topology(2, transits_per_path=[2, 1],
                                         path_costs=[5, 10])
    for link_id in ("R1-R2", "R2-R2B", "R2B-R4"):
        assert topo.link_by_id[link_id].base_cost == 5
    assert topo.link_by_id["R1-R3"].base_cost == 10
    assert topo.link_by_id["R3-R4"].base_cost == 10
    assert topo.link_by_id["H1-R1"].base_cost == 10  # host links keep base cost


def test_builder_link_parameters():
    topo = build_parallel_paths_topology(1, core_capacity_bps=5_000_000,
                                         core_delay_ms=2.0, queue_capacity=10)
    core = topo.link_by_id["R1-R2"]
    assert core.capacity == 5_000_000
    assert core.propagation_delay == 2000
    assert core.queue_capacity == 10
    assert topo.link_by_id["H1-R1"].capacity == 100_000_000


# -- workload construction ----------------------------------------------------

def test_pareto_workload():
    spec = ScenarioSpec.from_dict(base_doc(workload={
        "kind": "pareto_batch", "flows": 7, "flow_rate_bytes_per_s": 50_000,
        "inter_start_mean_s": 0.115}))
    wl = spec.workload()
    assert wl.flows == []
    assert isinstance(wl.batch, ParetoBatch)
    assert wl.batch.count == 7
    assert wl.batch.rate_bps == 400_000           # bytes/s quoted, bits/s used
    assert wl.batch.inter_start_mean == seconds(0.115)
    assert wl.batch.size_mean == 1_000_000.0      # defaults still apply


def test_voip_waves_workload_via_scenario():
    spec = ScenarioSpec.from_dict(base_doc(duration_s=110.0,
                                           workload={"kind": "voip_waves"}))
    flows = spec.workload().flows
    assert len(flows) == 201
    assert flows[0].label == "voip" and flows[0].stop is None
    first = flows[1:51]
    assert [f.start for f in first] == [seconds(6.0 + 0.2 * i) for i in range(50)]
    assert all(f.stop is None for f in first)
    second = flows[51:]
    assert second[0].start == seconds(25.0) and second[0].stop == seconds(70.0)
    assert second[-1].stop == seconds(70.0 + 0.2 * 149)
    assert {f.rate_bps for f in flows[1:]} == {100_000.0}


def test_custom_workload_defaults():
    spec = ScenarioSpec.from_dict(base_doc(workload={
        "kind": "custom",
        "flows": [{"src": "H1", "dst": "H2", "rate_bps": 1000.0,
                   "packet_size_bytes": 100, "start_s": 0.5},
                  {"src": "H2", "dst": "H1", "rate_bps": 1000.0,
                   "packet_size_bytes": 100, "start_s": 0.0,
                   "label": "back", "ttl": 8, "stop_s": 1.5}]}))
    flows = spec.workload().flows
    assert flows[0].label == "udp" and flows[0].ttl_initial == 64
    assert flows[0].start == seconds(0.5) and flows[0].stop is None
    assert flows[1].label == "back" and flows[1].ttl_initial == 8
    assert flows[1].stop == seconds(1.5)


def test_famtar_config_override():
    spec = ScenarioSpec.from_dict(base_doc(famtar={"enabled": True,
                                                   "congest_threshold": 0.95}))
    assert spec.famtar_config().enabled
    assert spec.famtar_config().congest_threshold == 0.95
    assert not spec.famtar_config(enabled=False).enabled
    assert spec.famtar_config(enabled=False).congest_threshold == 0.95


# -- running ------------------------------------------------------------------

def test_run_scenario_micro():
    spec = ScenarioSpec.from_dict(base_doc())
    result = run_scenario(spec)
    assert result.name == "tiny"
    assert result.seed == 1
    assert result.default_window == (0, 2)
    assert result.conserved()
    report = result.report()
    assert report.generated > 0 and report.drop_ratio == 0.0


def test_run_experiment_seeds_and_determinism():
    spec = ScenarioSpec.from_dict(base_doc(seed=40))
    exp = run_experiment(spec, repetitions=3)
    assert exp.seeds == [40, 41, 42]
    # the workload has no random part, so every repetition is identical
    assert len({r.event_log_hash for r in exp.reports}) == 1
    per_rep = [r.scalars() for r in exp.reports]
    assert per_rep[0] == per_rep[1] == per_rep[2]
    for mean, std in exp.aggregate().values():
        assert std == pytest.approx(0.0, abs=1e-9)   # fp noise of mean() only
    with pytest.raises(ValueError):
        run_experiment(spec, repetitions=0)


def test_run_experiment_workers_match_serial():
    doc = base_doc(duration_s=3.0,
                   measurement_window_s=[0, 3],
                   workload={"kind": "pareto_batch", "flows": 10,
                             "inter_start_mean_s": 0.2})
    spec = ScenarioSpec.from_dict(doc)
    serial = run_experiment(spec, repetitions=2, workers=1)
    pooled = run_experiment(spec, repetitions=2, workers=2)
    assert serial.to_json_dict() == pooled.to_json_dict()
    # different seeds draw different elastic batches
    assert serial.reports[0].event_log_hash != serial.reports[1].event_log_hash


def test_run_experiment_writes_each_repetitions_events(tmp_path):
    doc = base_doc(workload={"kind": "pareto_batch", "flows": 5,
                             "inter_start_mean_s": 0.2})
    spec = ScenarioSpec.from_dict(doc)
    serial = run_experiment(spec, repetitions=2, events_dir=tmp_path / "serial")
    pooled = run_experiment(spec, repetitions=2, workers=2,
                            events_dir=tmp_path / "pooled")
    assert serial.to_json_dict() == pooled.to_json_dict()
    plain = run_experiment(spec, repetitions=2)
    assert serial.to_json_dict() == plain.to_json_dict()
    for i in range(2):
        text = (tmp_path / "serial" / f"rep{i}" / "events.jsonl").read_text()
        assert text == (tmp_path / "pooled" / f"rep{i}" / "events.jsonl").read_text()
        assert text.count("\n") == sum(run_scenario(spec, seed=1 + i).log.counts.values())


def test_run_experiment_famtar_override():
    spec = ScenarioSpec.from_dict(base_doc())
    assert spec.famtar_enabled
    exp = run_experiment(spec, famtar=False)
    assert not exp.famtar_enabled
    assert not exp.reports[0].famtar_enabled


# -- bundled scenarios --------------------------------------------------------

def test_bundled_scenario_names():
    assert bundled_scenario_names() == [
        "scenario1-k1.famtar", "scenario1-k1.ip",
        "scenario1-k2.famtar", "scenario1-k2.ip",
        "scenario1-k3.famtar", "scenario1-k3.ip",
        "scenario1-k4.famtar", "scenario1-k4.ip",
        "scenario3.famtar", "scenario3.ip",
        "scenario4.famtar", "scenario4.ip",
    ]


def test_bundled_scenarios_parse():
    for name in bundled_scenario_names():
        spec = load_bundled(name)
        assert spec.name == name
        assert spec.famtar_enabled == name.endswith(".famtar")


def test_bundled_scenarios_parse_alike_under_both_yaml_loaders():
    for name in bundled_scenario_names():
        text = bundled_text(name)
        assert (yaml.load(text, Loader=scenario_mod._LOADER)
                == yaml.load(text, Loader=yaml.SafeLoader)), name


def test_accepted_documents_never_reach_jsonschema(monkeypatch):
    def fail(*_):
        raise AssertionError("jsonschema ran on an accepted document")
    # the validator's class is scenario's own extension of Draft7Validator
    monkeypatch.setattr(type(scenario_mod._VALIDATOR), "iter_errors", fail)
    for name in bundled_scenario_names():
        assert load_bundled(name).name == name
    with pytest.raises(AssertionError, match="jsonschema ran"):
        ScenarioSpec.from_dict(base_doc(version=2))


def test_load_bundled_unknown():
    with pytest.raises(ScenarioError, match="no bundled scenario"):
        load_bundled("scenario9")
