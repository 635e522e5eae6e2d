"""One repetition of a workload, timed by phase, and its correctness checks.

A repetition goes from the scenario dict to a ``MetricsReport`` and its four
rendered outputs, all in memory.  The program is called only through its
public API, and always through module attributes, so that the wrappers of a
traced run see every call.
"""

from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import dataclass

from famtarsim import engine as engine_mod
from famtarsim import metrics as metrics_mod
from famtarsim import scenario as scenario_mod
from famtarsim import traffic as traffic_mod
from famtarsim.model import seconds

clock = time.perf_counter


def setup(raw: dict):
    """Scenario dict to a ready ``Engine``: validate, build, materialize."""
    spec = scenario_mod.ScenarioSpec.from_dict(raw)
    topo = spec.build_topology()
    flows = traffic_mod.materialize(spec.workload(), spec.seed)
    engine = engine_mod.Engine(topo, flows, seconds(spec.duration_s),
                               routing_cfg=spec.routing_config(),
                               famtar_cfg=spec.famtar_config(),
                               name=spec.name, seed=spec.seed)
    for failure in spec.data["failures"]:
        up = failure.get("up_at_s")
        engine.inject_link_failure(failure["link"], seconds(failure["down_at_s"]),
                                   None if up is None else seconds(up))
    return spec, engine


@dataclass
class Repetition:
    run_s: float
    wall_s: float
    result: object
    report: object
    outputs: dict


def run_repetition(raw: dict) -> Repetition:
    """Time one repetition, after a full garbage collection outside the timing."""
    gc.collect()
    t0 = clock()
    spec, engine = setup(raw)
    t1 = clock()
    result = engine.run()
    t2 = clock()
    report = metrics_mod.collect(result, spec.window)
    outputs = {"report.json": metrics_mod.report_json(report),
               "metrics.csv": metrics_mod.metrics_csv(report),
               "flows.csv": metrics_mod.flows_csv(report),
               "links.csv": metrics_mod.links_csv(report)}
    t3 = clock()
    return Repetition(t2 - t1, t3 - t0, result, report, outputs)


def time_setup(raw: dict) -> float:
    gc.collect()
    t0 = clock()
    setup(raw)
    return clock() - t0


# -- correctness --------------------------------------------------------------

def statistics(rep: Repetition) -> dict:
    """The simulated statistics a speed-up must leave identical."""
    r = rep.result
    return {"generated": r.generated, "delivered": r.delivered,
            "in_flight": r.in_flight, "drops": dict(sorted(r.drops.items())),
            "log_counts": dict(sorted(r.log.counts.items())),
            "congestion_events": len(r.congestion_events),
            "scalars": rep.report.scalars()}


def problems(rep: Repetition) -> list[str]:
    """Checks that hold for every repetition, whatever the seed."""
    r = rep.result
    found = []
    dropped = sum(r.drops.values())
    if r.generated != r.delivered + dropped + r.in_flight:
        found.append(f"conservation: {r.generated} generated != {r.delivered} "
                     f"delivered + {dropped} dropped + {r.in_flight} in flight")
    counts = r.log.counts
    for kind, want in (("emit", r.generated), ("deliver", r.delivered),
                       ("drop", dropped)):
        if counts.get(kind, 0) != want:
            found.append(f"log has {counts.get(kind, 0)} {kind} records, "
                         f"counters say {want}")
    if r.generated == 0:
        found.append("no packets generated")
    doc = json.loads(rep.outputs["report.json"])
    if doc["event_log_hash"] != r.event_log_hash or not doc["conserved"]:
        found.append("report.json disagrees with the run")
    for name, text in rep.outputs.items():
        if text.count("\n") < 2:
            found.append(f"{name} is empty")
    return found


def diff_statistics(got: dict, want: dict, path: str = "") -> list[str]:
    """Differences between two statistics dicts; floats match to 1e-9."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                out.append(f"{path}{key}: only in {'run' if key in got else 'expected'}")
            else:
                out.extend(diff_statistics(got[key], want[key], f"{path}{key}."))
        return out
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            return []
    elif got == want:
        return []
    return [f"{path.rstrip('.')}: {got!r} != expected {want!r}"]
