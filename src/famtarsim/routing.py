"""Link-state routing model.

Each router keeps its own cost/status database over all *directed* links.
Cost changes are flooded as versioned updates that reach other routers after
a per-hop propagation delay.  Every accepted update schedules a table install
a fixed SPF delay later: a fresh :func:`spf`, or the router's last computed
table again when :func:`spf_unaffected` shows the update cannot change it.
During a run the engine is the only writer of a router's database and makes
that choice after every write, so the last computed table always matches the
database.  A computed table is installed as it is: nothing writes an
installed table, so a router and the engine share it.  :func:`spf` runs
over the topology's adjacency, built once on first use, and each install
logs a fixed-size :func:`table_fingerprint` of the table, computed once per
computed table.  Costs are symmetric at configuration time but maintained
per direction, so congestion escalates one direction only.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .model import HOST, Link, SimTime, Topology

DEFAULT_HIGH_COST = 10_000


@dataclass
class RoutingConfig:
    flood_hop_delay: SimTime = 10_000   # 10 ms per router hop
    spf_delay: SimTime = 20_000         # 20 ms from trigger to table install
    high_cost: int = DEFAULT_HIGH_COST

    def __post_init__(self) -> None:
        if self.flood_hop_delay < 0 or self.spf_delay < 0:
            raise ValueError("routing delays must be non-negative")
        if self.high_cost <= 0:
            raise ValueError("high cost must be positive (links stay usable)")


class LinkRecord:
    """One directed link as seen by one router."""

    __slots__ = ("cost", "up", "version")

    def __init__(self, cost: int, up: bool = True, version: int = 0):
        self.cost = cost
        self.up = up
        self.version = version


class LinkStateDb:
    """A router's private copy of every directed link's cost and status."""

    def __init__(self, records: list[LinkRecord]):
        self.records = records

    @classmethod
    def from_topology(cls, topo: Topology) -> "LinkStateDb":
        return cls([LinkRecord(dl.link.base_cost) for dl in topo.directed])

    def apply_update(self, index: int, cost: int, up: bool, version: int) -> bool:
        """Apply a flooded update; stale versions are discarded (returns False)."""
        record = self.records[index]
        if version <= record.version:
            return False
        record.cost = cost
        record.up = up
        record.version = version
        return True


class Route(NamedTuple):
    iface: int          # egress interface index at the computing router
    next_hop: str       # neighbour node id
    next_hop_addr: int
    cost: int           # total path cost


def spf(db: LinkStateDb, source: str, topo: Topology) -> dict[str, Route]:
    """Shortest paths from ``source`` over the links ``db`` believes are up.

    Ties on total cost are broken towards the lexicographically smallest
    next-hop node identifier, which makes the table deterministic.  Hosts
    never appear as transit nodes.  Each reached node carries the ``(first
    hop, iface)`` of the out-link of ``source`` its path starts with; a
    topology has at most one link between two nodes, so the first hop alone
    decides the tie.  Costs are positive, so an equal-cost path is only ever
    found to a node that is not settled yet.
    """
    records = db.records
    adjacency = topo.adjacency
    heappush, heappop = heapq.heappush, heapq.heappop
    dist: dict[str, int] = {source: 0}
    via: dict[str, tuple[str, int]] = {}
    heap: list[tuple[int, str]] = [(0, source)]

    while heap:
        d, here = heappop(heap)
        if d > dist[here]:
            continue  # a stale entry: ``here`` was settled at a lower cost
        is_host, out = adjacency[here]
        if here == source:
            first = None
        elif is_host:
            continue  # traffic may end at a host but never cross one
        else:
            first = via[here]
        for index, there, iface in out:
            record = records[index]
            if not record.up:
                continue
            cand = d + record.cost
            hop = first or (there, iface)
            old = dist.get(there)
            if old is None or cand < old:
                dist[there] = cand
                via[there] = hop
                heappush(heap, (cand, there))
            elif cand == old and hop < via[there]:
                via[there] = hop

    addr_of = topo.addr_of
    new = tuple.__new__  # builds a Route without its Python-level __new__
    return {dest: new(Route, (iface, hop, addr_of[hop], dist[dest]))
            for dest, (hop, iface) in via.items()}


def table_fingerprint(table: dict[str, Route]) -> str:
    """What the log records of an installed table: 8 bytes of BLAKE2b over
    its sorted ``dest iface cost`` lines, as 16 hex characters."""
    lines = sorted([f"{dest} {r.iface} {r.cost}" for dest, r in table.items()])
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=8).hexdigest()


def spf_unaffected(table: dict[str, Route], source: str, topo: Topology,
                   index: int, old_cost: int, old_up: bool,
                   new_cost: int, new_up: bool) -> bool:
    """True when changing directed link ``index`` cannot change ``table``.

    ``table`` is :func:`spf` from ``source`` before the link ``u -> v`` went
    from ``(old_cost, old_up)`` to ``(new_cost, new_up)``; ``d(x)`` is the
    distance it gives (0 at ``source``).

    Proof.  Costs are positive, so every tight predecessor ``p`` of ``x``
    (``d(p) + cost(p -> x) == d(x)``) is settled before ``x``, and ``spf``
    sets ``first_hop[x]`` to the least of their first hops.  A link that is
    tight neither before nor after the update thus enters neither the
    distances nor the tie-break.  That is the case when spf reads nothing
    that changed; when ``u`` is unreachable (a change to its own out-link
    cannot reach it) or a host other than ``source`` (never relaxed); when
    the link got worse and ``d(u) + old_cost > d(v)`` (raising a slack link
    lengthens no shortest path); and when it got better and ``d(u) +
    new_cost > d(v)``.  A link that comes up towards an unreachable ``v``
    is always a change.
    """
    if old_up == new_up and (old_cost == new_cost or not old_up):
        return True  # spf reads nothing that changed
    u, v = topo.directed[index].src, topo.directed[index].dst
    if u != source and (u not in table or topo.nodes[u].kind == HOST):
        return True  # the link is never relaxed, before or after
    if v != source and v not in table:
        return False
    d_u = 0 if u == source else table[u].cost
    d_v = 0 if v == source else table[v].cost
    worse = old_up and (not new_up or new_cost >= old_cost)
    return d_u + (old_cost if worse else new_cost) > d_v


def flood_plan(topo: Topology, origin: str, now: SimTime, per_hop_delay: SimTime,
               link_is_up: Callable[[Link], bool]) -> list[tuple[str, SimTime]]:
    """Delivery schedule for a cost-change update originated at ``origin``.

    Every other reachable router receives the update ``per_hop_delay`` times
    its hop distance (BFS over the links ``link_is_up`` accepts, routers
    only) after ``now``.  Routers cut off by failures receive nothing.
    """
    hops = {origin: 0}
    frontier = deque([origin])
    while frontier:
        here = frontier.popleft()
        for dl in topo.out_links[here]:
            there = dl.dst
            if there in hops or topo.nodes[there].kind == HOST:
                continue
            if not link_is_up(dl.link):
                continue
            hops[there] = hops[here] + 1
            frontier.append(there)
    return [(router, now + h * per_hop_delay)
            for router, h in sorted(hops.items()) if router != origin]
