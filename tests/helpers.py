"""Shared fixtures-in-spirit: tiny topologies, a brute-force routing oracle,
event-log readers and a path-recording engine."""

from __future__ import annotations

import heapq
import json
import random

from famtarsim.engine import Engine
from famtarsim.model import HOST, ROUTER, DirectedLink, Link, Topology
from famtarsim.routing import LinkStateDb, Route


def line_topology(core_queue: int = 100) -> Topology:
    """H1 -- R1 -- R2 -- H2 with a 10 Mbit/s core link."""
    nodes = {"H1": HOST, "R1": ROUTER, "R2": ROUTER, "H2": HOST}
    links = [
        Link("H1-R1", "H1", "R1", 100_000_000, 100, 10, 100),
        Link("R1-R2", "R1", "R2", 10_000_000, 1000, 10, core_queue),
        Link("R2-H2", "R2", "H2", 100_000_000, 100, 10, 100),
    ]
    return Topology(nodes, links)


def diamond_topology() -> Topology:
    """Two equal-cost router paths R1-R2-R4 / R1-R3-R4 between two hosts."""
    nodes = {"H1": HOST, "R1": ROUTER, "R2": ROUTER, "R3": ROUTER,
             "R4": ROUTER, "H2": HOST}
    links = [
        Link("H1-R1", "H1", "R1", 100_000_000, 100, 10, 100),
        Link("R1-R2", "R1", "R2", 10_000_000, 1000, 10, 100),
        Link("R1-R3", "R1", "R3", 10_000_000, 1000, 10, 100),
        Link("R2-R4", "R2", "R4", 10_000_000, 1000, 10, 100),
        Link("R3-R4", "R3", "R4", 10_000_000, 1000, 10, 100),
        Link("R4-H2", "R4", "H2", 100_000_000, 100, 10, 100),
    ]
    return Topology(nodes, links)


def directed_between(topo: Topology, src: str, dst: str) -> DirectedLink:
    """The directed link from ``src`` to ``dst``; KeyError if they are not joined."""
    for dl in topo.out_links[src]:
        if dl.dst == dst:
            return dl
    raise KeyError(f"no directed link {src} -> {dst}")


def brute_force_costs(db: LinkStateDb, topo: Topology, source: str) -> dict[str, int]:
    """Minimum cost over *all* simple paths from ``source``, routers as transit.

    Exponential-time reference implementation used to cross-check spf on
    small graphs; records the best cost for every node it can reach.
    """
    best: dict[str, int] = {}
    on_path = {source}

    def walk(node: str, cost: int) -> None:
        for dl in topo.out_links[node]:
            rec = db.records[dl.index]
            if not rec.up or dl.dst in on_path:
                continue
            c = cost + rec.cost
            if c < best.get(dl.dst, float("inf")):
                best[dl.dst] = c
            if topo.nodes[dl.dst].kind == ROUTER:
                on_path.add(dl.dst)
                walk(dl.dst, c)
                on_path.remove(dl.dst)

    walk(source, 0)
    return best


def reference_spf(db: LinkStateDb, source: str, topo: Topology) -> dict[str, Route]:
    """Plain Dijkstra over ``topo.out_links``: the oracle for whole ``spf`` tables.

    Same contract as ``spf``: ties on total cost go to the lexicographically
    smallest next-hop node identifier, and hosts are never transit nodes.
    """
    records = db.records
    dist: dict[str, int] = {source: 0}
    first_hop: dict[str, str] = {}
    done: set[str] = set()
    heap: list[tuple[int, str]] = [(0, source)]
    nodes = topo.nodes

    while heap:
        d, here = heapq.heappop(heap)
        if here in done:
            continue
        done.add(here)
        if here != source and nodes[here].kind == HOST:
            continue  # traffic may end at a host but never cross one
        for dl in topo.out_links[here]:
            record = records[dl.index]
            if not record.up:
                continue
            cand = d + record.cost
            hop = dl.dst if here == source else first_hop[here]
            there = dl.dst
            old = dist.get(there)
            if old is None or cand < old:
                dist[there] = cand
                first_hop[there] = hop
                heapq.heappush(heap, (cand, there))
            elif cand == old and there not in done and hop < first_hop[there]:
                first_hop[there] = hop

    table: dict[str, Route] = {}
    for dest, hop in first_hop.items():
        if dest == source:
            continue
        dl = directed_between(topo, source, hop)
        table[dest] = Route(dl.iface_index, hop, topo.addr_of[hop], dist[dest])
    return table


def random_router_topology(rng: random.Random, max_nodes: int = 6) -> Topology:
    """Connected all-router graph with random costs (a spanning tree + extras)."""
    n = rng.randint(2, max_nodes)
    ids = [f"R{i + 1}" for i in range(n)]
    order = ids[:]
    rng.shuffle(order)

    pairs: set[frozenset[str]] = set()
    for i in range(1, n):
        pairs.add(frozenset((order[rng.randrange(i)], order[i])))
    possible = [frozenset((a, b)) for i, a in enumerate(ids) for b in ids[i + 1:]]
    for pair in possible:
        if pair not in pairs and rng.random() < 0.4:
            pairs.add(pair)

    links = []
    for i, pair in enumerate(sorted(pairs, key=sorted)):
        a, b = sorted(pair)
        cost = 10_000 if rng.random() < 0.15 else rng.randint(1, 20)
        links.append(Link(f"L{i}", a, b, 10_000_000, 1000, cost, 100))
    return Topology({nid: ROUTER for nid in ids}, links)


def golden_entry(report) -> dict:
    """What tests/golden/bundled.json pins for one repetition's report.

    The digest, the run-wide conservation counts, drops by reason and the
    windowed report scalars, normalised through JSON so that a freshly
    computed entry compares equal to one loaded from the file.
    """
    entry = {
        "seed": report.seed,
        "event_log_hash": report.event_log_hash,
        "generated": report.conservation["generated"],
        "delivered": report.conservation["delivered"],
        "in_flight": report.conservation["in_flight"],
        "drops": report.drops_by_reason,
        "scalars": report.scalars(),
    }
    return json.loads(json.dumps(entry))


def log_records(stream, kind=None) -> list[tuple]:
    """The ``(t, kind, data)`` records an engine wrote to ``stream``, the
    ``io.StringIO`` it got as ``log_stream``; only those of ``kind`` if given."""
    records = []
    for line in stream.getvalue().splitlines():
        record = json.loads(line)
        if kind is None or record["kind"] == kind:
            records.append((record["t"], record["kind"], tuple(record["data"])))
    return records


class PathRecordingEngine(Engine):
    """An engine that records each packet's path in ``traces``.

    ``traces[(flow id, sequence number)]`` starts with the source at
    emission and gains each node the packet reaches alive, that is at every
    arrival that passes the generation check; so it ends at the destination
    exactly when the packet was delivered.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.traces: dict[tuple[int, int], list[str]] = {}

    def _on_emit(self, now, payload):
        self.traces[payload] = [self.flows[payload[0]].src]
        super()._on_emit(now, payload)

    def _on_arrival(self, now, payload):
        node, pkt, dl_index, gen = payload
        if gen == self.iface_rt[dl_index].link_rt.generation:
            self.traces[pkt.flow_id, pkt.flow_seq].append(node)
        super()._on_arrival(now, payload)
