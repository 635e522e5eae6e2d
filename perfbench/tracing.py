"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions and methods of each layer with
wrappers that time every call, and puts the originals back on ``close``.
Spans are aggregated in memory by (name, parent), which keeps the cost flat
over the tens of millions of calls a traced repetition makes.  A layer's self
time is its spans' duration minus the time their child spans cover.

A few wrappers also look at results: FFT hits, blocked inserts, stale LSAs,
purged entries and the peak FFT size.  The ``heapq`` functions the engine
calls and the traffic accessors called once per packet are counted but not
timed, because they are too small to time without swamping the run.
"""

from __future__ import annotations

import heapq
import sys
import time
import types
from collections import Counter

from famtarsim import engine as engine_mod
from famtarsim import flowtable, metrics, model, router, routing, scenario, traffic

ROOT = "<root>"

# (module, class name or None for module functions, names; None = every
# public method defined on the class)
TIMED = (
    (scenario, "ScenarioSpec", ("from_dict", "build_topology", "workload",
                                "routing_config", "famtar_config")),
    (traffic, None, ("materialize",)),
    (model, "Packet", ("__init__",)),
    (engine_mod, "Engine", ("__init__", "run")),
    (engine_mod, "EventLog", None),
    (router, "Router", None),
    (flowtable, "FlowTable", None),
    (routing, "LinkStateDb", None),
    (routing, None, ("spf", "flood_plan")),
    (metrics, "MetricsCollector", None),
    (metrics, None, ("collect", "report_json", "metrics_csv", "flows_csv",
                     "links_csv")),
)
COUNTED = (
    (traffic, "FlowSpec", ("emission_time", "interval_us", "n_packets")),
)


class Tracer:
    """Installs wrappers on construction; ``close`` restores the program.

    With ``layers`` false only the engine's heap calls are counted, which is
    what an untraced run needs for its event count.
    """

    def __init__(self, layers: bool = True):
        self.stats: dict[tuple[str, str], list] = {}  # -> [count, total, self]
        self.counts: Counter = Counter()
        self.stack: list[list] = [[ROOT, 0.0]]
        self._undo: list[tuple[object, str, object]] = []
        self.peak_entries = 0
        self.stale_lsas = 0
        self.fft_hits = 0
        self.blocked_inserts = 0
        self.purged = 0
        observers = {"FlowTable.lookup": self._on_lookup,
                     "FlowTable.insert": self._on_insert,
                     "FlowTable.purge_interface": self._on_purge,
                     "LinkStateDb.apply_update": self._on_apply_update}
        try:
            if layers:
                for module, cls_name, names in TIMED:
                    self._wrap_all(module, cls_name, names, self._timed, observers)
                for module, cls_name, names in COUNTED:
                    self._wrap_all(module, cls_name, names, self._counted, {})
            self._wrap_engine_heapq()
        except BaseException:
            self.close()
            raise

    # -- installing and removing wrappers ----------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_all(self, module, cls_name, names, make, observers) -> None:
        if cls_name is None:
            for name in names:
                original = getattr(module, name)
                wrapper = make(name, original, observers.get(name))
                # also replace the name wherever another famtarsim module
                # imported it, e.g. ``spf`` inside famtarsim.engine
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("famtarsim")
                            and mod.__dict__.get(name) is original):
                        self._set(mod, name, wrapper)
            return
        cls = getattr(module, cls_name)
        if names is None:
            names = [n for n, v in vars(cls).items()
                     if not n.startswith("_") and isinstance(v, (types.FunctionType,
                                                                 classmethod))]
        for name in names:
            raw = cls.__dict__[name]
            label = f"{cls_name}.{name}"
            observe = observers.get(label)
            if isinstance(raw, classmethod):
                new = classmethod(make(label, raw.__func__, observe))
            elif isinstance(raw, property):
                new = property(make(label, raw.fget, observe))
            else:
                new = make(label, raw, observe)
            self._set(cls, name, new)

    def _wrap_engine_heapq(self) -> None:
        """Count the heap calls of famtarsim.engine, however it imported them."""
        proxy = types.ModuleType("heapq")
        for name in dir(heapq):
            fn = getattr(heapq, name)
            if name.startswith("_") or not callable(fn):
                continue
            wrapper = self._counted(f"heapq.{name}", fn, None)
            setattr(proxy, name, wrapper)
            for attr, value in list(vars(engine_mod).items()):
                if value is fn:
                    self._set(engine_mod, attr, wrapper)
        if vars(engine_mod).get("heapq") is heapq:
            self._set(engine_mod, "heapq", proxy)

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wrappers -------------------------------------------------------------------

    def _timed(self, name: str, fn, observe):
        stack = self.stack
        stats = self.stats
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (name, parent[0])
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _counted(self, name: str, fn, observe):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_lookup(self, args, entry) -> None:
        if entry is not None:
            self.fft_hits += 1

    def _on_insert(self, args, admitted) -> None:
        if admitted:
            self.peak_entries = max(self.peak_entries, args[0].entry_count)
        else:
            self.blocked_inserts += 1

    def _on_purge(self, args, removed) -> None:
        self.purged += removed

    def _on_apply_update(self, args, applied) -> None:
        if not applied:
            self.stale_lsas += 1

    # -- results ------------------------------------------------------------------

    def count(self, name: str, parent: str = "") -> int:
        """Calls of ``name``, only those made directly from ``parent`` if given."""
        return (self.counts[name]
                + sum(e[0] for (n, p), e in self.stats.items()
                      if n == name and parent in ("", p)))

    def self_s(self, *names: str, prefix: str = "", parent: str = "") -> float:
        return sum((e[2] for (n, p), e in self.stats.items()
                    if (n in names or (prefix and n.startswith(prefix)))
                    and parent in ("", p)), 0.0)

    def calls(self) -> int:
        return sum(self.counts.values()) + sum(e[0] for e in self.stats.values())

    def table(self) -> list[str]:
        """The aggregated spans, heaviest self time first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':34} {'parent':30} {'count':>10} {'total_s':>10} {'self_s':>10}"]
        for (name, parent), (n, total, own) in rows:
            lines.append(f"{name:34} {parent:30} {n:10d} {total:10.4f} {own:10.4f}")
        for name, n in sorted(self.counts.items()):
            lines.append(f"{name:34} {'(counted only)':30} {n:10d}")
        return lines


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced repetition, as (value, unit)."""
    decisions = tr.count("Router.process_packet")
    lookups = tr.count("FlowTable.lookup")
    inserts = tr.count("FlowTable.insert")
    packets = tr.count("Packet.__init__")
    records = ("MetricsCollector.record_emit", "MetricsCollector.record_deliver",
               "MetricsCollector.record_drop", "MetricsCollector.record_link_bytes")
    traffic_calls = sum(tr.counts[f"FlowSpec.{n}"]
                        for n in ("emission_time", "interval_us", "n_packets"))
    return {
        "engine.events": (tr.counts["heapq.heappop"], "count"),
        "engine.heap_pushes": (tr.counts["heapq.heappush"], "count"),
        "engine.self_s": (tr.self_s("Engine.run"), "s"),
        "engine.log_records": (tr.count("EventLog.emit"), "count"),
        "engine.log_emit_s": (tr.self_s("EventLog.emit"), "s"),
        "router.decisions": (decisions, "count"),
        "router.process_s": (tr.self_s("Router.process_packet"), "s"),
        "router.fft_hit_ratio": (_ratio(tr.fft_hits, lookups), "ratio"),
        "router.loop_resolutions": (tr.count("Router.resolve_loop"), "count"),
        "router.monitor_s": (tr.self_s("Router.monitor_tick"), "s"),
        "flowtable.lookups": (lookups, "count"),
        "flowtable.lookups_per_decision": (_ratio(lookups, decisions), "ratio"),
        "flowtable.s": (tr.self_s(prefix="FlowTable."), "s"),
        "flowtable.peak_entries": (tr.peak_entries, "count"),
        "flowtable.inserts": (inserts, "count"),
        "flowtable.blocked_ratio": (_ratio(tr.blocked_inserts, inserts), "ratio"),
        "flowtable.updates": (tr.count("FlowTable.update_entry"), "count"),
        "flowtable.purged": (tr.purged, "count"),
        # recomputations only: the boot tables Engine() computes are set-up
        "routing.spf_runs": (tr.count("spf", parent="Engine.run"), "count"),
        "routing.spf_s": (tr.self_s("spf", parent="Engine.run"), "s"),
        "routing.flood_plans": (tr.count("flood_plan"), "count"),
        "routing.flood_s": (tr.self_s("flood_plan"), "s"),
        "routing.lsa_stale_ratio": (_ratio(tr.stale_lsas,
                                           tr.count("LinkStateDb.apply_update")),
                                    "ratio"),
        "metrics.record_calls": (sum(tr.count(n) for n in records), "count"),
        "metrics.record_s": (tr.self_s(*records), "s"),
        "metrics.collect_s": (tr.self_s("collect"), "s"),
        "metrics.emit_s": (tr.self_s("report_json", "metrics_csv", "flows_csv",
                                     "links_csv"), "s"),
        "traffic.materialize_s": (tr.self_s("materialize"), "s"),
        "traffic.calls_per_packet": (_ratio(traffic_calls, packets), "ratio"),
        "model.packets": (packets, "count"),
        "model.packet_init_s": (tr.self_s("Packet.__init__"), "s"),
        "scenario.parse_s": (tr.self_s("ScenarioSpec.from_dict"), "s"),
        "scenario.topology_s": (tr.self_s("ScenarioSpec.build_topology"), "s"),
    }
