"""Declarative scenario files, topology builders and experiment running.

A scenario is a versioned YAML document validated against
:data:`SCENARIO_SCHEMA` (unknown keys are rejected).  Every number must be
finite, and an ``integer`` key takes an int only, not an integral float such
as 2.0.  The schema is compiled once, at import, into plain predicates that
check every document; jsonschema runs only on a rejected one, to name its
fault.  Files are parsed by libyaml when PyYAML has it.  Parsing normalizes
the document — defaults filled in, scalar shorthands expanded — so that
parse → serialize → parse is the identity.

Time units in files: scenario-level times in seconds, link and protocol
delays in milliseconds, capacities and rates in bit/s (except the elastic
batch's per-flow rate, which is bytes/s as commonly quoted for transfers).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib.resources
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import jsonschema
import yaml

from . import metrics as metrics_mod
from .engine import Engine, check_flow_endpoints, check_link_failure
from .model import Link, SimTime, Topology, seconds, to_seconds
from .router import FamtarConfig
from .routing import RoutingConfig
from .traffic import (FlowSpec, WorkloadSpec, check_flow_count,
                      elastic_batch_workload, materialize, single_cbr_workload,
                      voip_vs_waves_workload)


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

# Each workload kind is built by a function whose keyword parameters are the
# kind's file keys; this table holds that function and the keys' schemas.
_WORKLOAD_KINDS = {
    "pareto_batch": (elastic_batch_workload, {
        "flows": _POS_INT,
        "flow_rate_bytes_per_s": _POS_NUM,
        "packet_size_bytes": _POS_INT,
        "size_mean_bytes": _POS_NUM,
        "size_shape": {"type": "number", "exclusiveMinimum": 1},
        "size_cap_bytes": _POS_NUM,
        "inter_start_mean_s": _POS_NUM,
    }),
    "voip_waves": (voip_vs_waves_workload, {
        "voip_rate_bps": _POS_NUM, "voip_packet_bytes": _POS_INT,
        "wave_rate_bps": _POS_NUM, "wave_packet_bytes": _POS_INT,
        "first_wave": {"type": "integer", "minimum": 0},
        "first_wave_start_s": _NONNEG_NUM,
        "second_wave": {"type": "integer", "minimum": 0},
        "second_wave_start_s": _NONNEG_NUM,
        "second_wave_stop_s": _POS_NUM,
        "spacing_s": _POS_NUM,
    }),
    "single_cbr": (single_cbr_workload, {
        "rate_bps": _POS_NUM,
        "packet_size_bytes": _POS_INT,
        "start_s": _NONNEG_NUM,
    }),
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
        "workload": {"oneOf": [
            {"type": "object", "additionalProperties": False,
             "required": ["kind"],
             "properties": {"kind": {"const": kind}, "src": _NODE_ID,
                            "dst": _NODE_ID, **keys}}
            for kind, (_, keys) in _WORKLOAD_KINDS.items()] + [_WORKLOAD_CUSTOM]},
        "routing": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "flood_hop_delay_ms": _NONNEG_NUM,
                "spf_delay_ms": _NONNEG_NUM,
                "high_cost": _POS_INT,
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """What draft 7 compares as a number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON Schema's ``integer`` also takes an integral float such as 2.0, which
# the builders downstream cannot use as a count; here it is an int only.
jsonschema.Draft7Validator.check_schema(SCENARIO_SCHEMA)
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: _is_int(value)))(SCENARIO_SCHEMA)


# -- the compiled schema check -------------------------------------------------
#
# Walking a document through jsonschema's draft-7 machinery is most of the
# set-up of a large document, so SCENARIO_SCHEMA is compiled once into nested
# predicates that only tell whether a document is valid.  jsonschema runs only
# on a rejected document, to name its fault.  A predicate holds a document to
# exactly what _VALIDATOR and _non_finite hold it to together: a ``number`` is
# finite, and every node must check the type of what it takes and close its
# objects and arrays, so that no value of an accepted document goes unchecked.

_TYPE_TESTS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "integer": _is_int,
    "number": lambda value: _is_int(value) or (isinstance(value, float)
                                               and math.isfinite(value)),
}
# A bound tests compare(bound, value) and a size compare(size, len(value)).
_BOUNDS = {"minimum": operator.le, "maximum": operator.ge,
           "exclusiveMinimum": operator.lt}
_SIZES = {"minLength": operator.le, "minItems": operator.le, "maxItems": operator.ge}
# Draft 7 applies these keywords to values of one type and passes any other
# value; compiled, they need a node that declares that type.
_TYPED_KEYWORDS = {**dict.fromkeys(_BOUNDS, "number"), "minLength": "string",
                   "minItems": "array", "maxItems": "array", "items": "array",
                   "required": "object", "properties": "object",
                   "additionalProperties": "object"}
_KEYWORDS = {"$schema", "type", "const", "enum", "oneOf", *_TYPED_KEYWORDS}


def _equals(constant):
    """Draft-7 equality with ``constant``, for the constants compiled here."""
    if isinstance(constant, str):
        return lambda value: isinstance(value, str) and value == constant
    if _is_real(constant) and math.isfinite(constant):
        return lambda value: _is_real(value) and value == constant
    raise ValueError(f"cannot compile a comparison with {constant!r}")


def _all(tests):
    if len(tests) == 1:
        return tests[0]

    def check(value):
        for test in tests:
            if not test(value):
                return False
        return True
    return check


def _compile(schema: dict):
    """A predicate that accepts exactly the documents ``schema`` accepts."""
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"cannot compile schema keywords {sorted(unknown)}")
    kind = schema.get("type")
    if kind is not None and (not isinstance(kind, str) or kind not in _TYPE_TESTS):
        raise ValueError(f"cannot compile type {kind!r}")
    if kind is None and not schema.keys() & {"const", "enum", "oneOf"}:
        raise ValueError(f"schema {schema!r} does not check the type of its value")
    declared = "number" if kind == "integer" else kind
    if any(_TYPED_KEYWORDS.get(keyword, declared) != declared for keyword in schema):
        raise ValueError(f"schema {schema!r} uses a keyword for another type")
    if kind == "object" and schema.get("additionalProperties") is not False:
        raise ValueError(f"schema {schema!r} must close its objects")
    if kind == "array" and "items" not in schema:
        raise ValueError(f"schema {schema!r} must give its arrays items")

    tests = [] if kind is None else [_TYPE_TESTS[kind]]
    if "const" in schema:
        tests.append(_equals(schema["const"]))
    if "enum" in schema:
        options = [_equals(c) for c in schema["enum"]]
        tests.append(lambda value: any(option(value) for option in options))
    for keyword, compare in _BOUNDS.items():
        if keyword in schema:
            bound = schema[keyword]
            if not (_is_real(bound) and math.isfinite(bound)):
                raise ValueError(f"cannot compile {keyword} {bound!r}")
            tests.append(functools.partial(compare, bound))
    for keyword, compare in _SIZES.items():
        if keyword in schema:
            tests.append(lambda value, compare=compare, size=schema[keyword]:
                         compare(size, len(value)))
    if "items" in schema:
        item = _compile(schema["items"])
        tests.append(lambda value: all(map(item, value)))
    if "required" in schema:
        required = frozenset(schema["required"])
        tests.append(lambda value: value.keys() >= required)
    if kind == "object":
        properties = {key: _compile(sub)
                      for key, sub in schema.get("properties", {}).items()}

        def closed(value):
            for key, item in value.items():
                test = properties.get(key)
                if test is None or not test(item):
                    return False
            return True
        tests.append(closed)
    if "oneOf" in schema:
        branches = [_compile(sub) for sub in schema["oneOf"]]
        tests.append(lambda value: sum(1 for branch in branches if branch(value)) == 1)
    return _all(tests)


_ACCEPTS = _compile(SCENARIO_SCHEMA)

# libyaml's parser when PyYAML was built with it: the same documents, parsed
# about three times faster than by the pure-Python SafeLoader
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _non_finite(node) -> Optional[list]:
    """The key path to the first ±inf or NaN in a parsed document, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else []
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        path = _non_finite(value)
        if path is not None:
            return [key, *path]
    return None


# a function's keyword-only parameters with their defaults, in order
_WORKLOAD_DEFAULTS = {kind: dict(fn.__kwdefaults__)
                      for kind, (fn, _) in _WORKLOAD_KINDS.items()}
_CUSTOM_FLOW_DEFAULTS = {"label": FlowSpec.label, "ttl": FlowSpec.ttl_initial}
_LINK_DEFAULTS = {"delay_ms": 1.0, "cost": 10, "queue": 100}

# The file form of each config: a field that holds microseconds is written
# in the unit its file key ends with, every other field as it is.
_UNITS = {"_s": (to_seconds, seconds),
          "_ms": (lambda us: us / 1000, lambda ms: seconds(ms / 1000.0))}
_FILE_UNITS = {RoutingConfig: {"flood_hop_delay": "_ms", "spf_delay": "_ms"},
               FamtarConfig: {"flow_timeout": "_s", "block_duration": "_s",
                              "monitor_period": "_s"}}


def _file_fields(cls) -> list[tuple]:
    """(file key, field, to file, from file) for each field of a config class."""
    units = _FILE_UNITS[cls]
    same = (lambda v: v, lambda v: v)
    return [(f.name + units.get(f.name, ""), f.name,
             *_UNITS.get(units.get(f.name), same))
            for f in dataclasses.fields(cls)]


def _file_defaults(cls) -> dict:
    default = cls()
    return {key: to_file(getattr(default, name))
            for key, name, to_file, _ in _file_fields(cls)}


def _config_args(cls, section: dict) -> dict:
    return {name: from_file(section[key])
            for key, name, _, from_file in _file_fields(cls)}


def _copied(doc):
    """A copy of a parsed document: new dicts and lists, the same scalars."""
    if isinstance(doc, dict):
        return {key: _copied(value) for key, value in doc.items()}
    return [_copied(value) for value in doc] if isinstance(doc, list) else doc


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
        if not _ACCEPTS(raw):  # name the fault as jsonschema words it
            error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
            if error is not None:
                path = "/".join(str(p) for p in error.absolute_path) or "<root>"
                raise ScenarioError(f"schema violation at {path}: {error.message}")
            # minimum and exclusiveMinimum let ±inf pass, and NaN fails no comparison
            bad = _non_finite(raw)
            if bad is not None:
                raise ScenarioError(f"number at {'/'.join(map(str, bad))} is not finite")
            raise ScenarioError("document rejected by the compiled schema check, "
                                "although jsonschema names no fault in it")
        spec = cls(cls._normalize(raw))
        spec._semantic_checks()
        return spec

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioSpec":
        try:
            raw = yaml.load(text, Loader=_LOADER)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
            raise ScenarioError(f"not a YAML document{where}: "
                                f"{getattr(exc, 'problem', exc)}") from exc
        if not isinstance(raw, dict):
            raise ScenarioError("scenario document must be a mapping")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_yaml(fh.read())

    @staticmethod
    def _normalize(raw: dict) -> dict:
        data = _copied(raw)
        data.setdefault("seed", 1)
        data.setdefault("repetitions", 1)
        data.setdefault("measurement_window_s", [0, int(data["duration_s"])])
        data["routing"] = _filled(data.get("routing", {}),
                                  _file_defaults(RoutingConfig))
        data["famtar"] = _filled(data.get("famtar", {}),
                                 _file_defaults(FamtarConfig))
        data.setdefault("failures", [])

        topo = data["topology"]
        if "builder" in topo:
            topo = _filled(topo, _BUILDER_DEFAULTS)
            topo["transits_per_path"], topo["path_costs"] = _per_path_lists(
                topo["paths"], topo["transits_per_path"], topo["path_costs"],
                topo["base_cost"])
        else:
            topo = dict(topo)
            topo["links"] = [_filled(l, _LINK_DEFAULTS) for l in topo["links"]]
        data["topology"] = topo

        wl = data["workload"]
        if wl["kind"] == "custom":
            wl = dict(wl)
            wl["flows"] = [_filled(f, _CUSTOM_FLOW_DEFAULTS) for f in wl["flows"]]
        else:
            wl = _filled(wl, _WORKLOAD_DEFAULTS[wl["kind"]])
        data["workload"] = wl
        return data

    def _semantic_checks(self) -> None:
        d = self.data
        start, end = d["measurement_window_s"]
        if not start < end <= d["duration_s"]:
            raise ScenarioError(f"measurement window [{start}, {end}) must lie "
                                f"within the {d['duration_s']} s run")
        topo = self.build_topology()  # raises TopologyError on bad graphs
        wl = d["workload"]
        try:  # every constructor check, e.g. clear < congest in FamtarConfig
            self.famtar_config()
            self.routing_config()
            workload = self.workload()
            check_flow_count(len(workload.flows)
                             + (workload.batch.count if workload.batch else 0))
            for failure in self.failures():
                check_link_failure(topo, *failure, seconds(d["duration_s"]))
            for flow in wl["flows"] if wl["kind"] == "custom" else [wl]:
                check_flow_endpoints(topo, flow["src"], flow["dst"])
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return _copied(self.data)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.data, sort_keys=False)

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

    def failures(self) -> list[tuple[str, SimTime, Optional[SimTime]]]:
        """(link id, failure time, repair time or None), times in microseconds."""
        return [(f["link"], seconds(f["down_at_s"]),
                 seconds(f["up_at_s"]) if "up_at_s" in f else None)
                for f in self.data["failures"]]

    def build_topology(self) -> Topology:
        topo = self.data["topology"]
        if "builder" in topo:
            return build_parallel_paths_topology(
                **{k: v for k, v in topo.items() if k != "builder"})
        nodes = {n["id"]: n["kind"] for n in topo["nodes"]}
        if len(nodes) != len(topo["nodes"]):
            raise ScenarioError("duplicate node ids in topology")
        links = [Link(l["id"], l["a"], l["b"], l["capacity_bps"],
                      seconds(l["delay_ms"] / 1000.0), l["cost"], l["queue"])
                 for l in topo["links"]]
        return Topology(nodes, links)

    def routing_config(self) -> RoutingConfig:
        return RoutingConfig(**_config_args(RoutingConfig, self.data["routing"]))

    def famtar_config(self, enabled=None) -> FamtarConfig:
        args = _config_args(FamtarConfig, self.data["famtar"])
        if enabled is not None:
            args["enabled"] = enabled
        return FamtarConfig(**args)

    def workload(self) -> WorkloadSpec:
        wl = self.data["workload"]
        if wl["kind"] != "custom":
            return _WORKLOAD_KINDS[wl["kind"]][0](
                **{k: v for k, v in wl.items() if k != "kind"})
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


def _per_path_lists(paths: int, transits_per_path, path_costs,
                    base_cost: int) -> tuple[list, list]:
    """Expand one-value-for-all-paths shorthands (``path_costs`` None: the
    base cost) into per-path lists."""
    def per_path(value):
        return [value] * paths if isinstance(value, int) else value
    return (per_path(transits_per_path),
            per_path(base_cost if path_costs is None else path_costs))


def build_parallel_paths_topology(paths: int, *,
                                  core_capacity_bps: int = 10_000_000,
                                  host_capacity_bps: int = 100_000_000,
                                  core_delay_ms: float = 1.0,
                                  host_delay_ms: float = 0.1,
                                  base_cost: int = 10,
                                  queue_capacity: int = 100,
                                  transits_per_path=1,
                                  path_costs=None) -> Topology:
    """Two hosts behind border routers R1/R4 joined by disjoint paths.

    Path ``p`` runs R1 → transit(s) → R4; single transits are named R2, R3,
    R5, R6 and extra transits on the same path get letter suffixes (R2B…).
    ``transits_per_path`` and ``path_costs`` (cost per link of a path) take
    either one value for all paths or a per-path list.  The keywords and
    their defaults are those of a ``parallel_paths`` topology in a scenario
    file.
    """
    if not 1 <= paths <= len(_TRANSIT_NAMES):
        raise ValueError(f"paths must be in [1, {len(_TRANSIT_NAMES)}], got {paths}")
    transits_per_path, path_costs = _per_path_lists(
        paths, transits_per_path, path_costs, base_cost)
    core_delay = seconds(core_delay_ms / 1000.0)
    host_delay = seconds(host_delay_ms / 1000.0)
    if len(transits_per_path) != paths or len(path_costs) != paths:
        raise ValueError("per-path parameter lists must have one entry per path")
    if any(n < 1 or n > 1 + len(_TRANSIT_SUFFIXES) for n in transits_per_path):
        raise ValueError("transits per path must be in [1, 8]")

    nodes = {"H1": "host", "H2": "host", "R1": "router", "R4": "router"}
    links = [Link("H1-R1", "H1", "R1", host_capacity_bps, host_delay, base_cost,
                  queue_capacity)]
    for p in range(paths):
        names = [_TRANSIT_NAMES[p] + ("" if j == 0 else _TRANSIT_SUFFIXES[j - 1])
                 for j in range(transits_per_path[p])]
        for name in names:
            nodes[name] = "router"
        chain = ["R1"] + names + ["R4"]
        for a, b in zip(chain, chain[1:]):
            links.append(Link(f"{a}-{b}", a, b, core_capacity_bps, core_delay,
                              path_costs[p], queue_capacity))
    links.append(Link("R4-H2", "R4", "H2", host_capacity_bps, host_delay,
                      base_cost, queue_capacity))
    return Topology(nodes, links)


_BUILDER_DEFAULTS = dict(build_parallel_paths_topology.__kwdefaults__)


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------

def _engine(spec: ScenarioSpec, seed, famtar, log_stream=None) -> Engine:
    """An engine ready to run one repetition, failures scheduled."""
    used_seed = spec.seed if seed is None else seed
    engine = Engine(spec.build_topology(),
                    materialize(spec.workload(), used_seed),
                    seconds(spec.duration_s),
                    routing_cfg=spec.routing_config(),
                    famtar_cfg=spec.famtar_config(famtar),
                    name=spec.name, seed=used_seed, log_stream=log_stream)
    for failure in spec.failures():
        engine.inject_link_failure(*failure)
    return engine


def run_scenario(spec: ScenarioSpec, *, seed=None, famtar=None) -> Engine:
    """Run one repetition of a scenario; returns the finished engine."""
    engine = _engine(spec, seed, famtar)
    engine.default_window = spec.window
    return engine.run()


def _run_repetition(args) -> "metrics_mod.MetricsReport":
    data, seed, famtar, events_path = args
    spec = ScenarioSpec(data)
    with (contextlib.nullcontext() if events_path is None
          else open(events_path, "w", encoding="utf-8")) as stream:
        result = _engine(spec, seed, famtar, log_stream=stream).run()
    return metrics_mod.collect(result, spec.window)


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
                   famtar=None, workers: int = 1,
                   events_dir=None) -> ExperimentResult:
    """Run ``repetitions`` seeded repetitions (seed_base + i for the i-th).

    With ``workers > 1`` repetitions run in isolated worker processes; the
    per-repetition reports are identical either way.  With ``events_dir``
    the i-th repetition streams its event log to
    ``events_dir/rep<i>/events.jsonl``.
    """
    reps = spec.repetitions if repetitions is None else repetitions
    if reps < 1:
        raise ValueError("need at least one repetition")
    base = spec.seed if seed_base is None else seed_base
    seeds = [base + i for i in range(reps)]
    events = [None] * reps
    if events_dir is not None:
        events = [Path(events_dir) / f"rep{i}" / "events.jsonl" for i in range(reps)]
        for path in events:
            path.parent.mkdir(parents=True, exist_ok=True)
    jobs = [(spec.to_dict(), s, famtar, e) for s, e in zip(seeds, events)]
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

# The rows of the summary table, each with +1 when an increase is an
# improvement and -1 when a decrease is.  Differences and relative gains are
# reported so that positive numbers always mean the adaptive configuration
# did better.
_SUMMARY_METRICS = {"delivered": +1, "dropped": -1, "drop_ratio": -1,
                    "avg_bitrate_bps": +1, "delay_avg_ms": -1,
                    "delay_max_ms": -1}


def pair_root(name: str) -> str:
    stem, dot, suffix = name.rpartition(".")
    return stem if suffix in ("ip", "famtar") and stem else name


def emit_summary(baseline: ExperimentResult, adaptive: ExperimentResult) -> str:
    """Side-by-side table of two experiments in the familiar four columns.

    The signed difference is ``(adaptive - baseline)`` for higher-is-better
    metrics and ``(baseline - adaptive)`` for lower-is-better ones, and the
    relative gain is that difference over the baseline mean.
    """
    if pair_root(baseline.name) != pair_root(adaptive.name):
        raise ValueError(f"cannot pair {baseline.name!r} with {adaptive.name!r}: "
                         "different scenarios")
    base_agg = baseline.aggregate()
    adap_agg = adaptive.aggregate()

    rows = [("Metric", "Without FAMTAR", "With FAMTAR",
             "Average difference", "Relative gain")]
    for key, direction in _SUMMARY_METRICS.items():
        if key not in base_agg or key not in adap_agg:
            continue
        bm, bs = base_agg[key]
        am, as_ = adap_agg[key]
        diff = (am - bm) * direction
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

_BUNDLED = importlib.resources.files("famtarsim") / "scenarios"


def bundled_scenario_names() -> list[str]:
    return sorted(p.name[:-len(".yaml")] for p in _BUNDLED.iterdir()
                  if p.name.endswith(".yaml"))


def load_bundled(name: str) -> ScenarioSpec:
    path = _BUNDLED / f"{name}.yaml"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        known = ", ".join(bundled_scenario_names())
        raise ScenarioError(f"no bundled scenario {name!r} (known: {known})")
    return ScenarioSpec.from_yaml(text)
