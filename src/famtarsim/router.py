"""Per-router forwarding pipeline and congestion monitor.

A router only forwards: every flow runs between two hosts, and a host
delivers what reaches it.  The pipeline order for every arriving packet is:

1. TTL decrement — a packet reaching 0 is dropped silently (no error
   packet is generated);
2. flow-table hit: loop check against the stored TTL, then forward along
   the pinned egress;
3. flow-table miss: resolve via the routing table, forward, and try to
   pin the flow (an admission block on the egress suppresses only the
   pinning, never the forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass

from .flowtable import DEFAULT_FLOW_TIMEOUT, FlowTable
from .model import (DROP_TTL_EXPIRED, DROP_UNREACHABLE, US_PER_S, FlowValue,
                    Packet, SimTime, seconds)
from .routing import LinkStateDb, Route, RoutingConfig

# process_packet action codes
DROP = 1
FORWARD = 2


@dataclass
class FamtarConfig:
    """Flow-table and congestion-monitor knobs (per router, usually global)."""

    enabled: bool = True
    flow_timeout: SimTime = DEFAULT_FLOW_TIMEOUT
    block_duration: SimTime = seconds(5.0)
    monitor_period: SimTime = seconds(1.0)
    congest_threshold: float = 0.90
    clear_threshold: float = 0.70

    def __post_init__(self) -> None:
        if not 0 < self.clear_threshold < self.congest_threshold <= 1:
            raise ValueError("thresholds must satisfy 0 < clear < congest <= 1")
        if self.monitor_period <= 0:
            raise ValueError("monitor period must be positive")
        if self.flow_timeout <= 0 or self.block_duration <= 0:
            raise ValueError("flow timeout and block duration must be positive")


class Router:
    """Forwarding and monitoring state of one router."""

    __slots__ = ("node_id", "db", "table", "fft", "cfg", "routing_cfg",
                 "ifaces", "node_of_addr", "log")

    def __init__(self, node_id: str, db: LinkStateDb, cfg: FamtarConfig,
                 routing_cfg: RoutingConfig, ifaces: list,
                 node_of_addr: dict[int, str], log):
        self.node_id = node_id
        self.db = db
        self.cfg = cfg
        self.routing_cfg = routing_cfg
        self.ifaces = ifaces  # IfaceRuntime objects owned by the engine
        self.node_of_addr = node_of_addr
        self.log = log
        self.table: dict[str, Route] = {}
        self.fft = FlowTable(cfg.flow_timeout) if cfg.enabled else None

    # -- forwarding -----------------------------------------------------------

    def process_packet(self, pkt: Packet, now: SimTime):
        """Forwarding decision for one arriving packet.

        Returns ``(DROP, reason)`` or ``(FORWARD, egress_iface_index)``.
        """
        key = pkt.key
        ttl = pkt.ttl - 1
        pkt.ttl = ttl
        if ttl <= 0:
            return (DROP, DROP_TTL_EXPIRED)

        fft = self.fft
        if fft is not None:
            entry = fft.lookup(key, now)
            if entry is not None:
                if ttl == entry.ttl:
                    entry.ts = now  # a live hit refreshes the idle timer
                    return (FORWARD, entry.port)
                return self.resolve_loop(pkt, entry, now)

        route = self.table.get(self.node_of_addr.get(key[1]))
        if route is None:
            return (DROP, DROP_UNREACHABLE)
        if fft is not None:
            value = FlowValue(now, route.iface, route.next_hop_addr, ttl)
            if fft.insert(key, value, now):
                self.log.emit(now, "fft_insert",
                              (self.node_id, pkt.flow_id, route.iface))
            else:
                self.log.emit(now, "fft_blocked",
                              (self.node_id, pkt.flow_id, route.iface))
        return (FORWARD, route.iface)

    def resolve_loop(self, pkt: Packet, entry: FlowValue, now: SimTime):
        """Handle a flow-table hit whose packet TTL disagrees with the entry.

        A strictly lower TTL means the packet already crossed more routers
        than the entry's author — it is revisiting (or the upstream path
        grew), so the entry is re-resolved from the current routing table,
        even if that table still points at the looping egress.  A higher TTL
        means the upstream path got shorter; the entry adopts the larger TTL
        and keeps its route.
        """
        fft = self.fft
        ttl = pkt.ttl
        if ttl > entry.ttl:
            fft.update_entry(pkt.key, entry.port, entry.gateway, ttl, now)
            self.log.emit(now, "fft_ttl_raise", (self.node_id, pkt.flow_id, ttl))
            return (FORWARD, entry.port)

        route = self.table.get(self.node_of_addr.get(pkt.key[1]))
        if route is None:
            return (DROP, DROP_UNREACHABLE)
        old_port = entry.port
        fft.update_entry(pkt.key, route.iface, route.next_hop_addr, ttl, now)
        self.log.emit(now, "fft_rewrite",
                      (self.node_id, pkt.flow_id, old_port, route.iface))
        return (FORWARD, route.iface)

    # -- congestion monitor ------------------------------------------------

    def monitor_tick(self, now: SimTime):
        """Sample per-interface load and decide cost changes.

        Load is the fraction of capacity actually sent (post-queue) during
        the elapsed period.  Returns a list of ``(iface, new_cost,
        escalate)`` actions; escalations and restorations alternate per
        interface by construction.
        """
        actions = []
        cfg = self.cfg
        period = cfg.monitor_period
        for ifr in self.ifaces:
            sent_bits = ifr.bytes_window * 8
            ifr.bytes_window = 0
            if not ifr.link_rt.up:
                continue
            load = sent_bits * US_PER_S / (period * ifr.capacity)
            if not ifr.congested and load >= cfg.congest_threshold:
                ifr.congested = True
                ifr.original_cost = self.db.records[ifr.dl.index].cost
                actions.append((ifr, self.routing_cfg.high_cost, True))
            elif ifr.congested and load <= cfg.clear_threshold:
                ifr.congested = False
                actions.append((ifr, ifr.original_cost, False))
        return actions

    # -- failure handling ---------------------------------------------------

    def on_link_down(self, ifr, now: SimTime) -> None:
        """Local reaction to a failed attached link.

        Flows pinned to the dead interface are purged and the interface
        refuses new pinnings for the configured block duration (packets are
        still forwarded via the routing table meanwhile); a repair does not
        lift the block.  The cost flood is issued by the engine.
        """
        if self.fft is not None:
            purged = self.fft.purge_interface(ifr.dl.iface_index)
            self.fft.block_interface(ifr.dl.iface_index, now, self.cfg.block_duration)
            self.log.emit(now, "fft_purge",
                          (self.node_id, ifr.dl.iface_index, purged))
        ifr.congested = False
        ifr.bytes_window = 0
