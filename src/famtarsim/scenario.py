"""Declarative scenario files, topology builders and experiment running.

A scenario is a versioned YAML document validated against
:data:`SCENARIO_SCHEMA` (unknown keys are rejected).  Parsing normalizes the
document — defaults filled in, scalar shorthands expanded — so that
parse → serialize → parse is the identity.

Time units in files: scenario-level times in seconds, link and protocol
delays in milliseconds, capacities and rates in bit/s (except the elastic
batch's per-flow rate, which is bytes/s as commonly quoted for transfers).
"""

from __future__ import annotations

import copy
import importlib.resources
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import jsonschema
import yaml

from . import metrics as metrics_mod
from .engine import Engine, RunResult
from .model import Link, SimTime, Topology, seconds, to_seconds
from .router import FamtarConfig
from .routing import RoutingConfig
from .traffic import (FlowSpec, ParetoBatch, WorkloadSpec, materialize)


class ScenarioError(ValueError):
    """Scenario document rejected (schema violation or semantic check)."""


_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_NUM = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "exclusiveMinimum": 0}
_NODE_ID = {"type": "string", "minLength": 1}

_BUILDER_TOPOLOGY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["builder", "paths"],
    "properties": {
        "builder": {"const": "parallel_paths"},
        "paths": {"type": "integer", "minimum": 1, "maximum": 4},
        "transits_per_path": {
            "oneOf": [{"type": "integer", "minimum": 1, "maximum": 8},
                      {"type": "array", "minItems": 1,
                       "items": {"type": "integer", "minimum": 1, "maximum": 8}}]},
        "path_costs": {
            "oneOf": [_POS_INT,
                      {"type": "array", "minItems": 1, "items": _POS_INT}]},
        "core_capacity_bps": _POS_INT,
        "host_capacity_bps": _POS_INT,
        "core_delay_ms": _NONNEG_NUM,
        "host_delay_ms": _NONNEG_NUM,
        "base_cost": _POS_INT,
        "queue_capacity": _POS_INT,
    },
}

_EXPLICIT_TOPOLOGY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["nodes", "links"],
    "properties": {
        "nodes": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["id", "kind"],
                "properties": {"id": _NODE_ID,
                               "kind": {"enum": ["host", "router"]}},
            }},
        "links": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["id", "a", "b", "capacity_bps"],
                "properties": {
                    "id": _NODE_ID, "a": _NODE_ID, "b": _NODE_ID,
                    "capacity_bps": _POS_INT,
                    "delay_ms": _NONNEG_NUM,
                    "cost": _POS_INT,
                    "queue": _POS_INT,
                }},
        },
    },
}

_WORKLOAD_PARETO = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"const": "pareto_batch"},
        "src": _NODE_ID, "dst": _NODE_ID,
        "flows": _POS_INT,
        "flow_rate_bytes_per_s": _POS_NUM,
        "packet_size_bytes": _POS_INT,
        "size_mean_bytes": _POS_NUM,
        "size_shape": {"type": "number", "exclusiveMinimum": 1},
        "size_cap_bytes": _POS_NUM,
        "inter_start_mean_s": _POS_NUM,
    },
}

_WORKLOAD_VOIP_WAVES = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"const": "voip_waves"},
        "src": _NODE_ID, "dst": _NODE_ID,
        "voip_rate_bps": _POS_NUM, "voip_packet_bytes": _POS_INT,
        "wave_rate_bps": _POS_NUM, "wave_packet_bytes": _POS_INT,
        "first_wave": {"type": "integer", "minimum": 0},
        "first_wave_start_s": _NONNEG_NUM,
        "second_wave": {"type": "integer", "minimum": 0},
        "second_wave_start_s": _NONNEG_NUM,
        "second_wave_stop_s": _POS_NUM,
        "spacing_s": _POS_NUM,
    },
}

_WORKLOAD_SINGLE_CBR = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"const": "single_cbr"},
        "src": _NODE_ID, "dst": _NODE_ID,
        "rate_bps": _POS_NUM,
        "packet_size_bytes": _POS_INT,
        "start_s": _NONNEG_NUM,
    },
}

_WORKLOAD_CUSTOM = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "flows"],
    "properties": {
        "kind": {"const": "custom"},
        "flows": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["src", "dst", "rate_bps", "packet_size_bytes",
                             "start_s"],
                "properties": {
                    "src": _NODE_ID, "dst": _NODE_ID,
                    "rate_bps": _POS_NUM,
                    "packet_size_bytes": _POS_INT,
                    "start_s": _NONNEG_NUM,
                    "size_bytes": _POS_INT,
                    "stop_s": _POS_NUM,
                    "label": {"type": "string"},
                    "ttl": {"type": "integer", "minimum": 1, "maximum": 255},
                }},
        },
    },
}

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "name", "duration_s", "topology", "workload"],
    "properties": {
        "version": {"const": 1},
        "name": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "repetitions": {"type": "integer", "minimum": 1},
        "duration_s": _POS_NUM,
        "measurement_window_s": {
            "type": "array", "minItems": 2, "maxItems": 2,
            "items": {"type": "integer", "minimum": 0}},
        "topology": {"oneOf": [_BUILDER_TOPOLOGY, _EXPLICIT_TOPOLOGY]},
        "workload": {"oneOf": [_WORKLOAD_PARETO, _WORKLOAD_VOIP_WAVES,
                               _WORKLOAD_SINGLE_CBR, _WORKLOAD_CUSTOM]},
        "routing": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "flood_hop_delay_ms": _NONNEG_NUM,
                "spf_delay_ms": _NONNEG_NUM,
                "high_cost": _POS_INT,
                "symmetric_escalation": {"type": "boolean"},
            }},
        "famtar": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "flow_timeout_s": _POS_NUM,
                "block_duration_s": _POS_NUM,
                "monitor_period_s": _POS_NUM,
                "congest_threshold": {"type": "number", "exclusiveMinimum": 0,
                                      "maximum": 1},
                "clear_threshold": {"type": "number", "exclusiveMinimum": 0,
                                    "maximum": 1},
                "fft_buckets": _POS_INT,
            }},
        "failures": {
            "type": "array",
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["link", "down_at_s"],
                "properties": {
                    "link": _NODE_ID,
                    "down_at_s": _NONNEG_NUM,
                    "up_at_s": _POS_NUM,
                }},
        },
    },
}

# the file form of RoutingConfig() and FamtarConfig(): milliseconds, seconds
_ROUTING = RoutingConfig()
_ROUTING_DEFAULTS = {"flood_hop_delay_ms": _ROUTING.flood_hop_delay / 1000,
                     "spf_delay_ms": _ROUTING.spf_delay / 1000,
                     "high_cost": _ROUTING.high_cost,
                     "symmetric_escalation": _ROUTING.symmetric_escalation}
_FAMTAR = FamtarConfig()
_FAMTAR_DEFAULTS = {"enabled": _FAMTAR.enabled,
                    "flow_timeout_s": to_seconds(_FAMTAR.flow_timeout),
                    "block_duration_s": to_seconds(_FAMTAR.block_duration),
                    "monitor_period_s": to_seconds(_FAMTAR.monitor_period),
                    "congest_threshold": _FAMTAR.congest_threshold,
                    "clear_threshold": _FAMTAR.clear_threshold,
                    "fft_buckets": _FAMTAR.fft_buckets}
_BUILDER_DEFAULTS = {"core_capacity_bps": 10_000_000,
                     "host_capacity_bps": 100_000_000,
                     "core_delay_ms": 1.0, "host_delay_ms": 0.1,
                     "base_cost": 10, "queue_capacity": 100}
_LINK_DEFAULTS = {"delay_ms": 1.0, "cost": 10, "queue": 100}
_PARETO_DEFAULTS = {"src": "H1", "dst": "H2", "flows": 500,
                    "flow_rate_bytes_per_s": 100_000.0,
                    "packet_size_bytes": 1000, "size_mean_bytes": 1_000_000.0,
                    "size_shape": 1.25, "size_cap_bytes": 100_000_000.0,
                    "inter_start_mean_s": 0.5}
_VOIP_WAVES_DEFAULTS = {"src": "H1", "dst": "H2", "voip_rate_bps": 50_000.0,
                        "voip_packet_bytes": 125, "wave_rate_bps": 100_000.0,
                        "wave_packet_bytes": 1000, "first_wave": 50,
                        "first_wave_start_s": 6.0, "second_wave": 150,
                        "second_wave_start_s": 25.0,
                        "second_wave_stop_s": 70.0, "spacing_s": 0.2}
_SINGLE_CBR_DEFAULTS = {"src": "H1", "dst": "H2", "rate_bps": 2_840_000.0,
                        "packet_size_bytes": 64, "start_s": 0.0}
_CUSTOM_FLOW_DEFAULTS = {"label": "udp", "ttl": 64}


def _filled(data: dict, defaults: dict) -> dict:
    out = dict(data)
    for key, value in defaults.items():
        out.setdefault(key, value)
    return out


class ScenarioSpec:
    """A validated, normalized scenario document.

    Construct through :meth:`from_dict` / :meth:`from_yaml` / :meth:`load`;
    the raw constructor trusts its input (used by worker processes that
    re-hydrate an already-normalized dict).
    """

    def __init__(self, data: dict):
        self.data = data

    # -- parsing ---------------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        try:
            jsonschema.validate(raw, SCENARIO_SCHEMA)
        except jsonschema.ValidationError as exc:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            raise ScenarioError(f"schema violation at {path}: {exc.message}") from exc
        spec = cls(cls._normalize(raw))
        spec._semantic_checks()
        return spec

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioSpec":
        raw = yaml.safe_load(text)
        if not isinstance(raw, dict):
            raise ScenarioError("scenario document must be a mapping")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_yaml(fh.read())

    @staticmethod
    def _normalize(raw: dict) -> dict:
        data = copy.deepcopy(raw)
        data.setdefault("seed", 1)
        data.setdefault("repetitions", 1)
        data.setdefault("measurement_window_s", [0, int(data["duration_s"])])
        data["routing"] = _filled(data.get("routing", {}), _ROUTING_DEFAULTS)
        data["famtar"] = _filled(data.get("famtar", {}), _FAMTAR_DEFAULTS)
        data.setdefault("failures", [])

        topo = data["topology"]
        if "builder" in topo:
            topo = _filled(topo, _BUILDER_DEFAULTS)
            k = topo["paths"]
            transits = topo.get("transits_per_path", 1)
            if isinstance(transits, int):
                transits = [transits] * k
            topo["transits_per_path"] = transits
            costs = topo.get("path_costs", topo["base_cost"])
            if isinstance(costs, int):
                costs = [costs] * k
            topo["path_costs"] = costs
        else:
            topo = dict(topo)
            topo["links"] = [_filled(l, _LINK_DEFAULTS) for l in topo["links"]]
        data["topology"] = topo

        wl = data["workload"]
        kind = wl["kind"]
        if kind == "pareto_batch":
            wl = _filled(wl, _PARETO_DEFAULTS)
        elif kind == "voip_waves":
            wl = _filled(wl, _VOIP_WAVES_DEFAULTS)
        elif kind == "single_cbr":
            wl = _filled(wl, _SINGLE_CBR_DEFAULTS)
        else:  # custom
            wl = dict(wl)
            wl["flows"] = [_filled(f, _CUSTOM_FLOW_DEFAULTS) for f in wl["flows"]]
        data["workload"] = wl
        return data

    def _semantic_checks(self) -> None:
        d = self.data
        start, end = d["measurement_window_s"]
        if not start < end <= d["duration_s"]:
            raise ScenarioError(f"measurement window [{start}, {end}) must lie "
                                f"within the {d['duration_s']} s run")
        topo = self.build_topology()  # raises TopologyError on bad graphs
        fam = d["famtar"]
        if not fam["clear_threshold"] < fam["congest_threshold"]:
            raise ScenarioError("clear threshold must be below congest threshold")
        for endpoint in self._workload_endpoints():
            if endpoint not in topo.nodes:
                raise ScenarioError(f"workload endpoint {endpoint} not in topology")
            if topo.nodes[endpoint].kind != "host":
                raise ScenarioError(f"workload endpoint {endpoint} is not a host")
        for failure in d["failures"]:
            link = topo.link_by_id.get(failure["link"])
            if link is None:
                raise ScenarioError(f"failure references unknown link "
                                    f"{failure['link']!r}")
            for end in (link.endpoint_a, link.endpoint_b):
                if topo.nodes[end].kind != "router":
                    raise ScenarioError(f"failures are limited to router-router "
                                        f"links, {failure['link']} touches {end}")
            if not 0 <= failure["down_at_s"] < d["duration_s"]:
                raise ScenarioError("failure time outside run duration")
            if "up_at_s" in failure and failure["up_at_s"] <= failure["down_at_s"]:
                raise ScenarioError("repair must come after the failure")

    def _workload_endpoints(self) -> list[str]:
        wl = self.data["workload"]
        if wl["kind"] == "custom":
            ends = []
            for f in wl["flows"]:
                ends.extend((f["src"], f["dst"]))
            return ends
        return [wl["src"], wl["dst"]]

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.data, sort_keys=False)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_yaml())

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioSpec) and self.data == other.data

    # -- accessors ----------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def repetitions(self) -> int:
        return self.data["repetitions"]

    @property
    def duration_s(self) -> float:
        return self.data["duration_s"]

    @property
    def window(self) -> tuple[int, int]:
        start, end = self.data["measurement_window_s"]
        return (start, end)

    @property
    def famtar_enabled(self) -> bool:
        return self.data["famtar"]["enabled"]

    # -- builders -----------------------------------------------------------------

    def build_topology(self) -> Topology:
        topo = self.data["topology"]
        if "builder" in topo:
            return build_parallel_paths_topology(
                topo["paths"],
                transits_per_path=topo["transits_per_path"],
                path_costs=topo["path_costs"],
                core_capacity=topo["core_capacity_bps"],
                host_capacity=topo["host_capacity_bps"],
                core_delay=seconds(topo["core_delay_ms"] / 1000.0),
                host_delay=seconds(topo["host_delay_ms"] / 1000.0),
                base_cost=topo["base_cost"],
                queue_capacity=topo["queue_capacity"])
        nodes = {n["id"]: n["kind"] for n in topo["nodes"]}
        if len(nodes) != len(topo["nodes"]):
            raise ScenarioError("duplicate node ids in topology")
        links = [Link(l["id"], l["a"], l["b"], l["capacity_bps"],
                      seconds(l["delay_ms"] / 1000.0), l["cost"], l["queue"])
                 for l in topo["links"]]
        return Topology(nodes, links)

    def routing_config(self) -> RoutingConfig:
        r = self.data["routing"]
        return RoutingConfig(
            flood_hop_delay=seconds(r["flood_hop_delay_ms"] / 1000.0),
            spf_delay=seconds(r["spf_delay_ms"] / 1000.0),
            high_cost=r["high_cost"],
            symmetric_escalation=r["symmetric_escalation"])

    def famtar_config(self, enabled=None) -> FamtarConfig:
        f = self.data["famtar"]
        return FamtarConfig(
            enabled=f["enabled"] if enabled is None else enabled,
            flow_timeout=seconds(f["flow_timeout_s"]),
            block_duration=seconds(f["block_duration_s"]),
            monitor_period=seconds(f["monitor_period_s"]),
            congest_threshold=f["congest_threshold"],
            clear_threshold=f["clear_threshold"],
            fft_buckets=f["fft_buckets"])

    def workload(self) -> WorkloadSpec:
        wl = self.data["workload"]
        kind = wl["kind"]
        if kind == "pareto_batch":
            return WorkloadSpec(batch=ParetoBatch(
                count=wl["flows"], rate_bps=wl["flow_rate_bytes_per_s"] * 8,
                packet_size=wl["packet_size_bytes"],
                size_mean=wl["size_mean_bytes"], size_shape=wl["size_shape"],
                size_cap=wl["size_cap_bytes"],
                inter_start_mean=seconds(wl["inter_start_mean_s"]),
                src=wl["src"], dst=wl["dst"]))
        if kind == "voip_waves":
            flows = [FlowSpec(src=wl["src"], dst=wl["dst"],
                              rate_bps=wl["voip_rate_bps"],
                              packet_size=wl["voip_packet_bytes"],
                              start=0, label="voip")]
            spacing = seconds(wl["spacing_s"])
            for i in range(wl["first_wave"]):
                flows.append(FlowSpec(
                    src=wl["src"], dst=wl["dst"], rate_bps=wl["wave_rate_bps"],
                    packet_size=wl["wave_packet_bytes"],
                    start=seconds(wl["first_wave_start_s"]) + i * spacing))
            for i in range(wl["second_wave"]):
                flows.append(FlowSpec(
                    src=wl["src"], dst=wl["dst"], rate_bps=wl["wave_rate_bps"],
                    packet_size=wl["wave_packet_bytes"],
                    start=seconds(wl["second_wave_start_s"]) + i * spacing,
                    stop=seconds(wl["second_wave_stop_s"]) + i * spacing))
            return WorkloadSpec(flows=flows)
        if kind == "single_cbr":
            return WorkloadSpec(flows=[FlowSpec(
                src=wl["src"], dst=wl["dst"], rate_bps=wl["rate_bps"],
                packet_size=wl["packet_size_bytes"],
                start=seconds(wl["start_s"]))])
        flows = [FlowSpec(src=f["src"], dst=f["dst"], rate_bps=f["rate_bps"],
                          packet_size=f["packet_size_bytes"],
                          start=seconds(f["start_s"]),
                          size_bytes=f.get("size_bytes"),
                          stop=seconds(f["stop_s"]) if "stop_s" in f else None,
                          label=f["label"], ttl_initial=f["ttl"])
                 for f in wl["flows"]]
        return WorkloadSpec(flows=flows)


# --------------------------------------------------------------------------
# Topology builder
# --------------------------------------------------------------------------

_TRANSIT_NAMES = ("R2", "R3", "R5", "R6")
_TRANSIT_SUFFIXES = "BCDEFGH"


def build_parallel_paths_topology(paths: int, *, transits_per_path=1,
                                  path_costs=None,
                                  core_capacity: int = 10_000_000,
                                  host_capacity: int = 100_000_000,
                                  core_delay: SimTime = 1000,
                                  host_delay: SimTime = 100,
                                  base_cost: int = 10,
                                  queue_capacity: int = 100) -> Topology:
    """Two hosts behind border routers R1/R4 joined by disjoint paths.

    Path ``p`` runs R1 → transit(s) → R4; single transits are named R2, R3,
    R5, R6 and extra transits on the same path get letter suffixes (R2B…).
    ``transits_per_path`` and ``path_costs`` (cost per link of a path) take
    either one value for all paths or a per-path list.
    """
    if not 1 <= paths <= len(_TRANSIT_NAMES):
        raise ValueError(f"paths must be in [1, {len(_TRANSIT_NAMES)}], got {paths}")
    if isinstance(transits_per_path, int):
        transits_per_path = [transits_per_path] * paths
    if path_costs is None:
        path_costs = base_cost
    if isinstance(path_costs, int):
        path_costs = [path_costs] * paths
    if len(transits_per_path) != paths or len(path_costs) != paths:
        raise ValueError("per-path parameter lists must have one entry per path")
    if any(n < 1 or n > 1 + len(_TRANSIT_SUFFIXES) for n in transits_per_path):
        raise ValueError("transits per path must be in [1, 8]")

    nodes = {"H1": "host", "H2": "host", "R1": "router", "R4": "router"}
    links = [Link("H1-R1", "H1", "R1", host_capacity, host_delay, base_cost,
                  queue_capacity)]
    for p in range(paths):
        names = [_TRANSIT_NAMES[p] + ("" if j == 0 else _TRANSIT_SUFFIXES[j - 1])
                 for j in range(transits_per_path[p])]
        for name in names:
            nodes[name] = "router"
        chain = ["R1"] + names + ["R4"]
        for a, b in zip(chain, chain[1:]):
            links.append(Link(f"{a}-{b}", a, b, core_capacity, core_delay,
                              path_costs[p], queue_capacity))
    links.append(Link("R4-H2", "R4", "H2", host_capacity, host_delay, base_cost,
                      queue_capacity))
    return Topology(nodes, links)


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------

def run_scenario(spec: ScenarioSpec, *, seed=None, famtar=None,
                 record_paths: bool = False, keep_log: bool = False,
                 log_stream=None) -> RunResult:
    """Run one repetition of a scenario; returns the full engine result."""
    used_seed = spec.seed if seed is None else seed
    topo = spec.build_topology()
    flows = materialize(spec.workload(), used_seed)
    engine = Engine(topo, flows, seconds(spec.duration_s),
                    routing_cfg=spec.routing_config(),
                    famtar_cfg=spec.famtar_config(famtar),
                    record_paths=record_paths, keep_log=keep_log,
                    log_stream=log_stream, name=spec.name, seed=used_seed)
    for failure in spec.data["failures"]:
        up = failure.get("up_at_s")
        engine.inject_link_failure(failure["link"], seconds(failure["down_at_s"]),
                                   None if up is None else seconds(up))
    result = engine.run()
    result.default_window = spec.window
    return result


def _run_repetition(args) -> "metrics_mod.MetricsReport":
    data, seed, famtar = args
    result = run_scenario(ScenarioSpec(data), seed=seed, famtar=famtar)
    return metrics_mod.collect(result)


@dataclass
class ExperimentResult:
    """Per-repetition reports of one scenario plus aggregate statistics."""

    name: str
    famtar_enabled: bool
    seeds: list[int]
    reports: list["metrics_mod.MetricsReport"]

    @property
    def repetitions(self) -> int:
        return len(self.reports)

    def aggregate(self) -> dict[str, tuple[float, float]]:
        """Mean and sample standard deviation of every scalar metric."""
        out = {}
        for key in self.reports[0].scalars():
            values = [r.scalars()[key] for r in self.reports
                      if r.scalars()[key] is not None]
            if values:
                out[key] = metrics_mod.mean_std(values)
        return out

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "famtar_enabled": self.famtar_enabled,
            "repetitions": self.repetitions,
            "seeds": self.seeds,
            "window": list(self.reports[0].window),
            "aggregate": {k: {"mean": m, "std": s}
                          for k, (m, s) in sorted(self.aggregate().items())},
            "per_rep": [r.scalars() for r in self.reports],
            "event_log_hashes": [r.event_log_hash for r in self.reports],
            "conserved": all(r.conserved for r in self.reports),
        }


def run_experiment(spec: ScenarioSpec, *, repetitions=None, seed_base=None,
                   famtar=None, workers: int = 1) -> ExperimentResult:
    """Run ``repetitions`` seeded repetitions (seed_base + i for the i-th).

    With ``workers > 1`` repetitions run in isolated worker processes; the
    per-repetition reports are identical either way.
    """
    reps = spec.repetitions if repetitions is None else repetitions
    if reps < 1:
        raise ValueError("need at least one repetition")
    base = spec.seed if seed_base is None else seed_base
    seeds = [base + i for i in range(reps)]
    jobs = [(spec.to_dict(), s, famtar) for s in seeds]
    if workers > 1 and reps > 1:
        with ProcessPoolExecutor(max_workers=min(workers, reps)) as pool:
            reports = list(pool.map(_run_repetition, jobs))
    else:
        reports = [_run_repetition(job) for job in jobs]
    enabled = spec.famtar_enabled if famtar is None else famtar
    return ExperimentResult(name=spec.name, famtar_enabled=enabled,
                            seeds=seeds, reports=reports)


# --------------------------------------------------------------------------
# Summary tables and report comparison
# --------------------------------------------------------------------------

# +1: an increase is an improvement; -1: a decrease is.  Differences and
# relative gains are reported so that positive numbers always mean the
# adaptive configuration did better.
_METRIC_DIRECTION = {
    "generated": +1, "delivered": +1, "bytes_received": +1,
    "avg_bitrate_bps": +1, "dropped": -1, "drop_ratio": -1,
    "delay_min_ms": -1, "delay_avg_ms": -1, "delay_max_ms": -1,
}

_SUMMARY_METRICS = ("delivered", "dropped", "drop_ratio", "avg_bitrate_bps",
                    "delay_avg_ms", "delay_max_ms")


def pair_root(name: str) -> str:
    stem, dot, suffix = name.rpartition(".")
    return stem if suffix in ("ip", "famtar") and stem else name


def emit_summary(baseline: ExperimentResult, adaptive: ExperimentResult,
                 metrics=None) -> str:
    """Side-by-side table of two experiments in the familiar four columns.

    The signed difference is ``(adaptive - baseline)`` for higher-is-better
    metrics and ``(baseline - adaptive)`` for lower-is-better ones, and the
    relative gain is that difference over the baseline mean.
    """
    if pair_root(baseline.name) != pair_root(adaptive.name):
        raise ValueError(f"cannot pair {baseline.name!r} with {adaptive.name!r}: "
                         "different scenarios")
    metrics = _SUMMARY_METRICS if metrics is None else metrics
    base_agg = baseline.aggregate()
    adap_agg = adaptive.aggregate()

    rows = [("Metric", "Without FAMTAR", "With FAMTAR",
             "Average difference", "Relative gain")]
    for key in metrics:
        if key not in base_agg or key not in adap_agg:
            continue
        bm, bs = base_agg[key]
        am, as_ = adap_agg[key]
        diff = (am - bm) * _METRIC_DIRECTION.get(key, +1)
        gain = f"{100.0 * diff / abs(bm):+.1f}%" if bm else "n/a"
        rows.append((key, f"{bm:.1f} ± {bs:.1f}", f"{am:.1f} ± {as_:.1f}",
                     f"{diff:+.1f}", gain))

    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def diff_report_dicts(a: dict, b: dict, *, rel_tol: float = 0.05,
                      abs_tol: float = 1e-9) -> list[str]:
    """Compare two experiment report dicts; returns violation messages."""
    violations = []
    if a.get("name") != b.get("name"):
        violations.append(f"name: {a.get('name')!r} != {b.get('name')!r}")
    agg_a = a.get("aggregate", {})
    agg_b = b.get("aggregate", {})
    for key in sorted(set(agg_a) | set(agg_b)):
        if key not in agg_a or key not in agg_b:
            violations.append(f"{key}: present in only one report")
            continue
        ma, mb = agg_a[key]["mean"], agg_b[key]["mean"]
        tol = abs_tol + rel_tol * max(abs(ma), abs(mb))
        if abs(ma - mb) > tol:
            violations.append(f"{key}: {ma:.6g} vs {mb:.6g} "
                              f"(|diff| {abs(ma - mb):.6g} > tol {tol:.6g})")
    return violations


# --------------------------------------------------------------------------
# Bundled scenarios
# --------------------------------------------------------------------------

def bundled_scenario_names() -> list[str]:
    root = importlib.resources.files("famtarsim") / "scenarios"
    return sorted(p.name[:-len(".yaml")] for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def load_bundled(name: str) -> ScenarioSpec:
    root = importlib.resources.files("famtarsim") / "scenarios"
    path = root / f"{name}.yaml"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        known = ", ".join(bundled_scenario_names())
        raise ScenarioError(f"no bundled scenario {name!r} (known: {known})")
    return ScenarioSpec.from_yaml(text)
