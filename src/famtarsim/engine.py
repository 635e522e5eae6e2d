"""Deterministic discrete-event simulation engine.

Events are ordered by (timestamp, insertion sequence), so equal-time events
run in the order they were scheduled and two runs of the same scenario are
bit-identical.  All randomness lives in workload materialization; the engine
itself draws nothing.

Link model: one drop-tail queue per direction, serialization at link
capacity, fixed propagation delay.  A link failure takes both directions
down at once; queued and in-flight packets are lost (reason ``link_down``)
and each router endpoint floods the failure immediately.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import Counter, deque
from typing import Optional

from . import metrics as metrics_mod
from .model import (DROP_LINK_DOWN, DROP_QUEUE_FULL, DROP_UNREACHABLE, HOST,
                    ROUTER, US_PER_S, DirectedLink, FlowKey, Packet, SimTime,
                    Topology)
from .router import FORWARD, FamtarConfig, Router
from .routing import (LinkStateDb, RoutingConfig, fingerprint_lines,
                      flood_plan, spf, table_fingerprint)
from .traffic import FlowSpec, check_flow_count

# event kinds, in no particular priority (time + insertion order decide)
EV_EMIT = 0
EV_ARRIVAL = 1
EV_TX_DONE = 2
EV_MONITOR = 3
EV_LSA = 4
EV_SPF = 5
EV_LINK_DOWN = 6
EV_LINK_UP = 7
EV_END = 8

# serialization takes ceil(size * _BIT_US / capacity) microseconds
_BIT_US = 8 * US_PER_S
# records hashed per sha256 update; chunking hashes the very same bytes.  A
# chunk is briefly held three times (records, joined text, encoded bytes), so
# chunks stay small.
HASH_CHUNK = 512


def check_link_failure(topo: Topology, link_id: str, t_down: SimTime,
                       t_up: Optional[SimTime], duration: SimTime) -> None:
    """Raise ValueError unless ``link_id`` may fail at ``t_down`` (and come
    back at ``t_up``) in a run of ``duration``; all times in microseconds."""
    link = topo.link_by_id.get(link_id)
    if link is None:
        raise ValueError(f"unknown link {link_id!r}")
    for end in (link.endpoint_a, link.endpoint_b):
        if topo.nodes[end].kind != ROUTER:
            raise ValueError(f"failures are limited to router-router links, "
                             f"{link_id} touches {end}")
    if not 0 <= t_down < duration:
        raise ValueError("failure time outside run duration")
    if t_up is not None and t_up <= t_down:
        raise ValueError("repair must come after the failure")


def check_flow_endpoints(topo: Topology, src: str, dst: str) -> None:
    """Raise ValueError unless a flow may run from ``src`` to ``dst``: both
    endpoints must be hosts of ``topo``."""
    for end in (src, dst):
        if end not in topo.nodes:
            raise ValueError(f"workload endpoint {end} not in topology")
        if topo.nodes[end].kind != HOST:
            raise ValueError(f"workload endpoint {end} is not a host")


class LinkRuntime:
    """Shared up/down state of one physical link.

    ``generation`` increments on every failure; packets in flight carry the
    generation they were sent under, so anything serialized before a failure
    is recognisably lost.
    """

    __slots__ = ("up", "generation", "directed_indexes")

    def __init__(self, directed_indexes: tuple[int, int]):
        self.up = True
        self.generation = 0
        self.directed_indexes = directed_indexes


class IfaceRuntime:
    """One egress interface: drop-tail queue plus transmit bookkeeping.

    A packet of ``size`` bytes occupies the interface for
    ``ceil(size * 8 s / capacity)``; the engine computes this inline.
    """

    __slots__ = ("dl", "link_rt", "queue", "queue_capacity", "busy_until",
                 "capacity", "prop", "bytes_window", "congested", "original_cost")

    def __init__(self, dl: DirectedLink, link_rt: LinkRuntime):
        self.dl = dl
        self.link_rt = link_rt
        self.queue: deque[Packet] = deque()
        self.queue_capacity = dl.link.queue_capacity
        self.busy_until: SimTime = 0
        self.capacity = dl.link.capacity
        self.prop = dl.link.propagation_delay
        self.bytes_window = 0             # monitor window byte counter
        self.congested = False
        self.original_cost = dl.link.base_cost


class EventLog:
    """Append-only structured log; every record feeds a running SHA-256.

    Records are counted by kind and, given a ``stream``, written to it as
    JSONL; nothing else is retained, so two runs compare by digest alone.
    Formatted records wait in a pending list and are hashed ``HASH_CHUNK``
    at a time; :meth:`hexdigest` hashes the remainder first.
    """

    __slots__ = ("counts", "_hasher", "_pending", "_stream")

    def __init__(self, stream=None):
        self.counts: Counter = Counter()
        self._hasher = hashlib.sha256()
        self._pending: list[str] = []
        self._stream = stream

    def emit(self, t: SimTime, kind: str, data: tuple) -> None:
        pending = self._pending
        pending.append(f"{t}|{kind}|{data!r}\n")
        if len(pending) >= HASH_CHUNK:
            self._flush()
        self.counts[kind] += 1
        if self._stream is not None:
            json.dump({"t": t, "kind": kind, "data": list(data)}, self._stream)
            self._stream.write("\n")

    def _flush(self) -> None:
        self._hasher.update("".join(self._pending).encode())
        self._pending.clear()

    def hexdigest(self) -> str:
        self._flush()
        return self._hasher.hexdigest()


class Engine:
    """Builds runtime state from a topology + flow list and runs to the end.

    A finished engine is the run's result: :meth:`run` returns the engine
    itself, and reports and checks read its counters, event log, collector
    and routers.
    """

    def __init__(self, topo: Topology, flows: list[FlowSpec], duration: SimTime,
                 *, routing_cfg: Optional[RoutingConfig] = None,
                 famtar_cfg: Optional[FamtarConfig] = None,
                 log_stream=None, name: str = "", seed: int = 0):
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.topo = topo
        self.duration = duration
        self.name = name
        self.seed = seed
        self.routing_cfg = routing_cfg or RoutingConfig()
        self.famtar_cfg = famtar_cfg or FamtarConfig()
        self.log = EventLog(log_stream)

        self._heap: list = []
        self._seq = 0

        # link and interface runtimes; directed[2i] and [2i + 1] are links[i]
        self.link_rt: dict[str, LinkRuntime] = {}
        self.iface_rt: list[IfaceRuntime] = []
        for fwd, rev in zip(topo.directed[::2], topo.directed[1::2]):
            lrt = LinkRuntime((fwd.index, rev.index))
            self.link_rt[fwd.link.link_id] = lrt
            self.iface_rt += (IfaceRuntime(fwd, lrt), IfaceRuntime(rev, lrt))

        # routers boot with a converged view of the configured topology
        self._lsa_versions = [0] * len(topo.directed)  # last flooded, per link
        self.routers: dict[str, Router] = {}
        for rid in topo.routers():
            ifaces = [self.iface_rt[dl.index] for dl in topo.out_links[rid]]
            router = Router(rid, LinkStateDb.from_topology(topo), self.famtar_cfg,
                            self.routing_cfg, ifaces, topo.node_of_addr, self.log)
            router.table = spf(router.db, rid, topo)
            self.routers[rid] = router

        check_flow_count(len(flows))
        self.flows = flows
        for flow in flows:
            check_flow_endpoints(topo, flow.src, flow.dst)

        # counters
        self.generated = 0
        self.delivered = 0
        self.drops: dict[str, int] = {}
        self.congestion_events: list[tuple[int, SimTime, bool]] = []
        self.default_window = (0, duration // US_PER_S)  # what report() reduces
        self.collector = metrics_mod.MetricsCollector(
            duration_s=-(-duration // US_PER_S), flows=flows,
            n_directed=len(topo.directed))
        self._failures: list[tuple[str, SimTime, Optional[SimTime]]] = []
        self._ran = False

    # -- scheduling ------------------------------------------------------------

    def _push(self, t: SimTime, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, payload))

    def inject_link_failure(self, link_id: str, t_down: SimTime,
                            t_up: Optional[SimTime] = None) -> None:
        """Schedule a failure (and optional repair) of a router-router link."""
        if self._ran:
            raise RuntimeError("engine instances are single-use: inject "
                               "failures before run()")
        check_link_failure(self.topo, link_id, t_down, t_up, self.duration)
        self._failures.append((link_id, t_down, t_up))

    # -- run loop ---------------------------------------------------------------

    def run(self) -> Engine:
        if self._ran:
            raise RuntimeError("engine instances are single-use")
        self._ran = True

        # each router's last computed table, its spf_install fingerprint and
        # the fingerprint's lines
        self._last_spf = {}
        for rid, router in self.routers.items():
            lines = fingerprint_lines(router.table)
            self._last_spf[rid] = (router.table, table_fingerprint(lines), lines)
        # each flow's fixed emission parameters, read once per packet
        topo = self.topo
        self._schedule = []
        for idx, flow in enumerate(self.flows):
            budget = flow.n_packets
            end = self.duration if flow.stop is None else min(flow.stop, self.duration)
            self._schedule.append((
                FlowKey((topo.addr_of[flow.src], topo.addr_of[flow.dst],
                         20_000 + idx, 9000, 17)),
                flow.packet_size, flow.ttl_initial,
                self.iface_rt[topo.out_links[flow.src][0].index], flow.start,
                flow.interval_us, math.inf if budget is None else budget, end))
            if flow.start < self.duration:  # packet 0 leaves at the start
                self._push(flow.start, EV_EMIT, (idx, 0))
        if self.famtar_cfg.enabled:  # every router runs the same config
            self._push(0, EV_MONITOR, None)
        for link_id, t_down, t_up in self._failures:
            self._push(t_down, EV_LINK_DOWN, link_id)
            if t_up is not None and t_up < self.duration:
                self._push(t_up, EV_LINK_UP, link_id)
        self._push(self.duration, EV_END, None)

        heap = self._heap
        heappop = heapq.heappop
        on_arrival, on_tx_done, on_emit = (self._on_arrival, self._on_tx_done,
                                           self._on_emit)
        while heap:
            t, _seq, kind, payload = heappop(heap)
            if kind == EV_ARRIVAL:
                on_arrival(t, payload)
            elif kind == EV_TX_DONE:
                on_tx_done(t, payload)
            elif kind == EV_EMIT:
                on_emit(t, payload)
            elif kind == EV_MONITOR:
                self._on_monitor(t)
            elif kind == EV_LSA:
                self._on_lsa(t, payload)
            elif kind == EV_SPF:
                self._on_spf_install(t, payload)
            elif kind == EV_LINK_DOWN:
                self._on_link_down(t, payload)
            elif kind == EV_LINK_UP:
                self._on_link_up(t, payload)
            else:  # EV_END
                break

        self.in_flight = sum(len(ifr.queue) for ifr in self.iface_rt)
        for entry in heap:
            if entry[2] in (EV_ARRIVAL, EV_TX_DONE):
                self.in_flight += 1
        self.event_log_hash = self.log.hexdigest()
        return self

    @property
    def famtar_enabled(self) -> bool:
        return self.famtar_cfg.enabled

    def conservation(self) -> dict[str, int]:
        return {"generated": self.generated, "delivered": self.delivered,
                "dropped": sum(self.drops.values()), "in_flight": self.in_flight}

    def conserved(self) -> bool:
        c = self.conservation()
        return c["generated"] == c["delivered"] + c["dropped"] + c["in_flight"]

    def report(self, window: Optional[tuple[int, int]] = None) -> "metrics_mod.MetricsReport":
        return metrics_mod.collect(self, window)

    # -- handlers ---------------------------------------------------------------

    def _on_emit(self, now: SimTime, payload) -> None:
        flow_idx, seq = payload
        key, size, ttl, ifr, start, interval, budget, end = self._schedule[flow_idx]
        pkt = Packet(key, size, ttl, now, flow_idx, seq)
        self.generated += 1
        self.collector.record_emit(flow_idx, now)
        self.log.emit(now, "emit", payload)
        self.enqueue_for_transmit(ifr, pkt, now)

        nxt = seq + 1
        if nxt < budget:
            t_next = start + round(nxt * interval)  # FlowSpec.emission_time
            if t_next < end:
                self._seq = order = self._seq + 1
                heapq.heappush(self._heap, (t_next, order, EV_EMIT, (flow_idx, nxt)))

    def _on_arrival(self, now: SimTime, payload) -> None:
        node, pkt, dl_index, gen = payload
        if gen != self.iface_rt[dl_index].link_rt.generation:
            self._drop(node, pkt, DROP_LINK_DOWN, now)  # was in flight at failure
            return
        router = self.routers.get(node)
        if router is None:  # host: deliver or nothing — hosts never forward
            if self.topo.addr_of[node] == pkt.key[1]:  # the destination address
                self._deliver(node, pkt, now)
            else:
                self._drop(node, pkt, DROP_UNREACHABLE, now)
            return
        action, arg = router.process_packet(pkt, now)
        if action == FORWARD:
            self.enqueue_for_transmit(router.ifaces[arg], pkt, now)
        else:
            self._drop(node, pkt, arg, now)

    def enqueue_for_transmit(self, ifr: IfaceRuntime, pkt: Packet,
                             now: SimTime) -> None:
        """Queue ``pkt`` on an egress interface, transmitting at once if idle."""
        link_rt = ifr.link_rt
        if not link_rt.up:
            self._drop(ifr.dl.src, pkt, DROP_LINK_DOWN, now)
        elif ifr.busy_until <= now:
            cap = ifr.capacity
            ifr.busy_until = t_done = now + (pkt.size * _BIT_US + cap - 1) // cap
            self._seq = order = self._seq + 1
            heapq.heappush(self._heap, (t_done, order, EV_TX_DONE,
                                        (ifr.dl.index, pkt, link_rt.generation)))
        elif len(ifr.queue) >= ifr.queue_capacity:
            self._drop(ifr.dl.src, pkt, DROP_QUEUE_FULL, now)
        else:
            ifr.queue.append(pkt)

    def _on_tx_done(self, now: SimTime, payload) -> None:
        dl_index, pkt, gen = payload
        ifr = self.iface_rt[dl_index]
        if gen != ifr.link_rt.generation:  # link failed while serializing
            self._drop(ifr.dl.src, pkt, DROP_LINK_DOWN, now)
            return
        size = pkt.size
        ifr.bytes_window += size
        self.collector.record_link_bytes(dl_index, now, size)
        heap = self._heap
        order = self._seq + 1
        heapq.heappush(heap, (now + ifr.prop, order, EV_ARRIVAL,
                              (ifr.dl.dst, pkt, dl_index, gen)))
        if ifr.queue:
            nxt = ifr.queue.popleft()
            cap = ifr.capacity
            ifr.busy_until = t_done = now + (nxt.size * _BIT_US + cap - 1) // cap
            order += 1
            heapq.heappush(heap, (t_done, order, EV_TX_DONE, (dl_index, nxt, gen)))
        self._seq = order

    def _deliver(self, node: str, pkt: Packet, now: SimTime) -> None:
        self.delivered += 1
        delay = now - pkt.created_at
        self.collector.record_deliver(pkt.flow_id, now, delay, pkt.size)
        self.log.emit(now, "deliver", (node, pkt.flow_id, pkt.flow_seq, delay))

    def _drop(self, node: str, pkt: Packet, reason: str, now: SimTime) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1
        self.collector.record_drop(pkt.flow_id, now)
        self.log.emit(now, "drop", (node, reason, pkt.flow_id, pkt.flow_seq))

    # -- monitor and routing control -------------------------------------------

    def _on_monitor(self, now: SimTime) -> None:
        for rid, router in self.routers.items():  # in sorted id order
            for ifr, new_cost, escalate in router.monitor_tick(now):
                dl = ifr.dl
                kind = "escalate" if escalate else "restore"
                self.log.emit(now, kind, (rid, dl.link.link_id, dl.dst, new_cost))
                self.congestion_events.append((dl.index, now, escalate))
                self._flood(rid, dl.index, new_cost, True, now)
        nxt = now + self.famtar_cfg.monitor_period
        if nxt < self.duration:
            self._push(nxt, EV_MONITOR, None)

    def _flood(self, origin: str, dl_index: int, cost: int, up: bool,
               now: SimTime) -> None:
        """Apply a cost/status change at its origin and flood it outwards."""
        versions = self._lsa_versions
        versions[dl_index] = version = versions[dl_index] + 1
        self._apply_update(origin, dl_index, cost, up, version, now)
        plan = flood_plan(self.topo, origin, now, self.routing_cfg.flood_hop_delay,
                          lambda link: self.link_rt[link.link_id].up)
        for router_id, at in plan:
            self._push(at, EV_LSA, (router_id, dl_index, cost, up, version))

    def _on_lsa(self, now: SimTime, payload) -> None:
        router_id, dl_index, cost, up, version = payload
        if self._apply_update(router_id, dl_index, cost, up, version, now):
            self.log.emit(now, "lsa", (router_id, dl_index, cost, up, version))

    def _apply_update(self, router_id: str, dl_index: int, cost: int, up: bool,
                      version: int, now: SimTime) -> bool:
        """Apply an update to one router's db and schedule its table install.

        Stale versions change nothing (returns False).  ``spf`` repairs the
        router's last computed table, and when it returns that table itself
        the table and its fingerprint are installed again.
        """
        db = self.routers[router_id].db
        record = db.records[dl_index]
        old_cost, old_up = record.cost, record.up
        if not db.apply_update(dl_index, cost, up, version):
            return False
        last, fingerprint, lines = self._last_spf[router_id]
        table = spf(db, router_id, self.topo, last, (dl_index, old_cost, old_up))
        if table is not last:
            lines = fingerprint_lines(table, last, lines)
            fingerprint = table_fingerprint(lines)
            self._last_spf[router_id] = (table, fingerprint, lines)
        self._push(now + self.routing_cfg.spf_delay, EV_SPF,
                   (router_id, table, fingerprint))
        return True

    def _on_spf_install(self, now: SimTime, payload) -> None:
        router_id, table, fingerprint = payload
        self.routers[router_id].table = table  # shared with _last_spf, never written
        self.log.emit(now, "spf_install", (router_id, fingerprint))

    # -- link failures ------------------------------------------------------------

    def _on_link_down(self, now: SimTime, link_id: str) -> None:
        link_rt = self.link_rt[link_id]
        if not link_rt.up:
            return
        link_rt.up = False
        link_rt.generation += 1
        self.log.emit(now, "link_down", (link_id,))
        for dl_index in link_rt.directed_indexes:
            ifr = self.iface_rt[dl_index]
            while ifr.queue:
                self._drop(ifr.dl.src, ifr.queue.popleft(), DROP_LINK_DOWN, now)
            ifr.busy_until = now
        for dl_index in link_rt.directed_indexes:  # both ends are routers
            ifr = self.iface_rt[dl_index]
            router = self.routers[ifr.dl.src]
            router.on_link_down(ifr, now)
            record = router.db.records[dl_index]
            self._flood(ifr.dl.src, dl_index, record.cost, False, now)

    def _on_link_up(self, now: SimTime, link_id: str) -> None:
        link_rt = self.link_rt[link_id]
        if link_rt.up:
            return
        link_rt.up = True
        self.log.emit(now, "link_up", (link_id,))
        # the failure left both interfaces empty, idle and uncongested
        for dl_index in link_rt.directed_indexes:
            dl = self.topo.directed[dl_index]
            self._flood(dl.src, dl_index, dl.link.base_cost, True, now)
