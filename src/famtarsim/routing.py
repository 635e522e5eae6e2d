"""Link-state routing model.

Each router keeps its own cost/status database over all *directed* links.
Cost changes are flooded as versioned updates that reach other routers after
a per-hop propagation delay.  Every accepted update schedules a table install
a fixed SPF delay later: the router's last computed table repaired by
:func:`spf`, which returns that table itself when the update moves no route.
A repair re-settles only the routes the changed link can affect, the dynamic
shortest-path tree of Ramalingam & Reps (1996) and Narváez, Siu & Tzeng
(2000): the area behind a link that got worse while it was tight, or
whatever a link that got better improves, including next hops that a new tie
makes smaller.  Every other route is exact already, by the argument in
:func:`spf`, and stays the same object.  The engine is the only writer of a
router's database and repairs after every write, so the last computed table
always matches the database.  Nothing writes an installed table, so a router
and the engine share it.  :func:`spf` runs over the topology's adjacency,
built once on first use, and each install logs a fixed-size
:func:`table_fingerprint`, computed once per new table from
:func:`fingerprint_lines`, which formats again only replaced routes.  Costs
are symmetric at configuration time but maintained per direction, so
congestion escalates one direction only.
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


def spf(db: LinkStateDb, source: str, topo: Topology,
        last: dict[str, Route] | None = None,
        change: tuple[int, int, bool] | None = None) -> dict[str, Route]:
    """Shortest paths from ``source`` over the links ``db`` believes are up.

    Ties on total cost are broken towards the lexicographically smallest
    next-hop node identifier, which makes the table deterministic.  Hosts
    never appear as transit nodes.  A topology has at most one link between
    two nodes, so a route's next hop alone decides the tie.

    Given ``last``, the table from ``source`` before directed link ``u -> v``
    went from ``change = (index, old_cost, old_up)`` to what ``db`` holds
    now, spf repairs a copy of ``last`` instead of building a whole table;
    the result is the same.  Routes the change cannot affect stay the same
    objects, and ``last`` itself is never written.  When the change moves
    nothing, spf returns ``last``.  With ``d(x)`` the old distances (0 at
    ``source``):

    - *Worse* (down or costlier): only routes that ran over ``u -> v`` while
      it was tight (``d(u) + old_cost == d(v)``) can change.  Their area is
      ``v`` and every node reached from it over tight links that cross no
      host.  Every other node keeps a shortest path that avoids the area and
      the link, and its tight predecessors and their next hops; a link from
      the area to it was slack and stays slack, as distances only grow.  The
      area is dropped and settled again from its surviving in-neighbours.
    - *Better* (up or cheaper): ``v`` is offered ``d(u) + new_cost`` over
      ``u``'s route, and the settle loop spreads whatever that improves.
      Distances only shrink, so a node the loop does not reach keeps a route
      that no improved node beats or ties with a smaller next hop.

    One settle loop serves both: Dijkstra from the offered routes.  Costs
    are positive, so a node is settled after all its tight predecessors.  A
    tie that gives a node a smaller next hop queues the node again, so the
    smaller hop reaches its descendants: a repair may have left that node
    out of the queue, while a whole run still has it queued and skips the
    entry holding its replaced route.
    """
    records = db.records
    heap: list[tuple[int, str, Route]] = []
    if last is None:
        best = {source: _AT_SOURCE}
        for index, _there, _iface in topo.adjacency[source][1]:
            _offer(best, heap, topo, records, index)
    else:
        best = dict(last)
        best[source] = _AT_SOURCE
        index, old_cost, old_up = change
        record = records[index]
        if record.up and (not old_up or record.cost < old_cost):
            _offer(best, heap, topo, records, index)
            if not heap:
                return last  # the link beats no route
        elif not old_up or record.up and record.cost <= old_cost:
            return last  # spf reads nothing that changed
        elif not _drop_tight_area(best, heap, topo, records, index, old_cost):
            return last  # no shortest path ran over the link
    heapq.heapify(heap)
    _settle(best, heap, topo.adjacency, records)
    del best[source]
    return best


# the source's own entry while spf runs: at distance 0 nothing relaxes into it
_AT_SOURCE = Route(-1, "", -1, 0)


def _offer(best: dict[str, Route], heap: list, topo: Topology,
           records: list[LinkRecord], index: int) -> None:
    """Queue the route over directed link ``index`` for its head if it beats
    the head's route in ``best``: a lower cost, or a tie and a smaller next
    hop.  Down links, unreached tails and host tails offer nothing."""
    record = records[index]
    dl = topo.directed[index]
    at_here = best.get(dl.src)
    if at_here is None or not record.up:
        return
    there = dl.dst
    if at_here is _AT_SOURCE:  # the route starts on this link
        first = (dl.iface_index, there, topo.addr_of[there])
    elif topo.adjacency[dl.src][0]:
        return  # traffic may end at a host but never cross one
    else:
        first = at_here[:3]
    route = tuple.__new__(Route, (*first, at_here[3] + record.cost))
    old = best.get(there)
    if old is None or route[3] < old[3] or route[3] == old[3] and route[1] < old[1]:
        best[there] = route
        heap.append((route[3], there, route))


def _drop_tight_area(best: dict[str, Route], heap: list, topo: Topology,
                     records: list[LinkRecord], index: int,
                     old_cost: int) -> bool:
    """Drop from ``best`` every route that ran over directed link ``index``
    at ``old_cost`` while it was tight, and offer each dropped node the
    routes over its in-links from nodes that kept theirs; False if none did."""
    dl = topo.directed[index]
    adjacency = topo.adjacency
    at_u, at_v = best.get(dl.src), best.get(dl.dst)
    if (at_u is None or at_v is None or at_u[3] + old_cost != at_v[3]
            or at_u is not _AT_SOURCE and adjacency[dl.src][0]):
        return False  # no shortest path ran over the link
    area = [dl.dst]
    dropped = {dl.dst}
    for here in area:  # grows while it is walked
        is_host, out = adjacency[here]
        if is_host:
            continue
        d = best[here][3]
        for i, there, _iface in out:
            record = records[i]
            if record.up and there not in dropped:
                at = best.get(there)
                if at is not None and d + record.cost == at[3]:
                    dropped.add(there)
                    area.append(there)
    for here in area:
        del best[here]
    for here in area:
        for i, there, _iface in adjacency[here][1]:
            if there not in dropped:
                _offer(best, heap, topo, records, i ^ 1)  # there -> here
    return True


def _settle(best: dict[str, Route], heap: list, adjacency, records) -> None:
    """Dijkstra's loop: pop the cheapest queued route, skip it if ``best``
    has replaced it, and offer its node's out-neighbours the route onwards."""
    heappush, heappop = heapq.heappush, heapq.heappop
    new = tuple.__new__  # builds a Route without its Python-level __new__
    while heap:
        d, here, route = heappop(heap)
        if best[here] is not route:
            continue
        is_host, out = adjacency[here]
        if is_host:
            continue  # traffic may end at a host but never cross one
        iface, hop, addr, _cost = route
        for index, there, _iface in out:
            record = records[index]
            if not record.up:
                continue
            cand = d + record.cost
            old = best.get(there)
            if old is None or cand < old[3] or cand == old[3] and hop < old[1]:
                best[there] = onward = new(Route, (iface, hop, addr, cand))
                heappush(heap, (cand, there, onward))


def fingerprint_lines(table: dict[str, Route], last: dict[str, Route] | None = None,
                      last_lines: dict[str, str] | None = None) -> dict[str, str]:
    """Each destination's ``dest iface cost`` line of ``table``.  Given the
    table ``table`` was repaired from and its lines, only the routes the
    repair replaced (by another object) are formatted again."""
    if last is None:  # in name order, so the sort that hashes them is short
        return {dest: _line(dest, table[dest]) for dest in sorted(table)}
    lines = dict(last_lines)
    kept = last.get
    for dest, route in table.items():
        if kept(dest) is not route:
            lines[dest] = _line(dest, route)
    if len(lines) != len(table):  # destinations the repair lost
        for dest in lines.keys() - table.keys():
            del lines[dest]
    return lines


def _line(dest: str, route: Route) -> str:
    return f"{dest} {route.iface} {route.cost}"


def table_fingerprint(lines: dict[str, str]) -> str:
    """What the log records of an installed table: 8 bytes of BLAKE2b over
    its sorted ``dest iface cost`` lines from :func:`fingerprint_lines`, as
    16 hex characters."""
    return hashlib.blake2b("\n".join(sorted(lines.values())).encode(),
                           digest_size=8).hexdigest()


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
