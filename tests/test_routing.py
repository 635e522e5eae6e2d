import random
from collections import Counter

import pytest

from famtarsim.model import HOST, ROUTER, Link, Topology
from famtarsim.routing import (DEFAULT_HIGH_COST, LinkStateDb, RoutingConfig,
                               flood_plan, spf)
from helpers import (brute_force_costs, diamond_topology, directed_between,
                     random_router_topology, reference_spf)


def router_line(n=4, cost=10):
    ids = [f"R{i + 1}" for i in range(n)]
    links = [Link(f"{a}-{b}", a, b, 10_000_000, 1000, cost, 100)
             for a, b in zip(ids, ids[1:])]
    return Topology({i: ROUTER for i in ids}, links)


def test_routing_config_validation():
    RoutingConfig()  # defaults are fine
    with pytest.raises(ValueError):
        RoutingConfig(flood_hop_delay=-1)
    with pytest.raises(ValueError):
        RoutingConfig(high_cost=0)


def test_link_state_db_discards_stale_versions():
    topo = router_line(2)
    db = LinkStateDb.from_topology(topo)
    assert all(r.version == 0 and r.up and r.cost == 10 for r in db.records)

    assert db.apply_update(0, 50, True, 1) is True
    assert db.records[0].cost == 50
    assert db.apply_update(0, 60, True, 1) is False   # same version: stale
    assert db.apply_update(0, 60, True, 0) is False   # older version: stale
    assert db.records[0].cost == 50 and db.records[0].version == 1
    assert db.apply_update(0, 60, False, 2) is True
    assert db.records[0].up is False


def test_spf_on_diamond_prefers_smaller_next_hop_on_ties():
    topo = diamond_topology()
    table = spf(LinkStateDb.from_topology(topo), "R1", topo)
    assert table["H2"].cost == 30
    assert table["H2"].next_hop == "R2"          # R2 < R3 on equal cost
    assert table["R4"].next_hop == "R2"
    assert table["R2"].cost == 10 and table["R2"].next_hop == "R2"
    assert table["H1"].cost == 10
    assert table["H2"].iface == directed_between(topo, "R1", "R2").iface_index
    assert "R1" not in table

    # the tie-break is symmetric: R4 also prefers R2 for the way back
    table4 = spf(LinkStateDb.from_topology(topo), "R4", topo)
    assert table4["H1"].next_hop == "R2"


def test_spf_routes_around_escalated_cost():
    topo = diamond_topology()
    db = LinkStateDb.from_topology(topo)
    idx = directed_between(topo, "R1", "R2").index
    assert db.apply_update(idx, 10_000, True, 1)

    table = spf(db, "R1", topo)
    assert table["H2"].next_hop == "R3"
    assert table["H2"].cost == 30
    # even R2 itself is now cheaper to reach the long way around
    assert table["R2"].next_hop == "R3"
    assert table["R2"].cost == 30
    # escalation is directed: R2's own view towards R1 is unchanged
    rev = topo.directed[directed_between(topo, "R1", "R2").index ^ 1]
    assert db.records[rev.index].cost == 10


def test_escalated_cut_edge_remains_usable():
    topo = router_line(2)
    db = LinkStateDb.from_topology(topo)
    db.apply_update(0, 10_000, True, 1)
    table = spf(db, "R1", topo)
    assert table["R2"].cost == 10_000
    assert table["R2"].next_hop == "R2"


def test_spf_omits_nodes_behind_failed_links():
    topo = router_line(3)
    db = LinkStateDb.from_topology(topo)
    idx = directed_between(topo, "R2", "R3").index
    db.apply_update(idx, 10, False, 1)
    db.apply_update(idx ^ 1, 10, False, 1)
    table = spf(db, "R1", topo)
    assert "R3" not in table
    assert "R2" in table


def test_flood_plan_hop_delays():
    topo = router_line(4)
    plan = flood_plan(topo, "R1", 5_000_000, 10_000, lambda link: True)
    assert plan == [("R2", 5_010_000), ("R3", 5_020_000), ("R4", 5_030_000)]


def test_flood_plan_stops_at_downed_links():
    topo = router_line(4)
    alive = lambda link: link.link_id != "R2-R3"
    plan = flood_plan(topo, "R1", 0, 10_000, link_is_up=alive)
    assert plan == [("R2", 10_000)]


def test_flood_plan_skips_hosts():
    topo = diamond_topology()
    plan = dict(flood_plan(topo, "R1", 0, 10_000, lambda link: True))
    assert set(plan) == {"R2", "R3", "R4"}
    assert plan["R4"] == 20_000


def test_spf_matches_brute_force_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(40):
        topo = random_router_topology(rng)
        db = LinkStateDb.from_topology(topo)
        for source in topo.routers():
            table = spf(db, source, topo)
            oracle = brute_force_costs(db, topo, source)
            got = {dest: r.cost for dest, r in table.items()}
            assert got == oracle, f"{source} on {[l.link_id for l in topo.links]}"


def test_spf_next_hops_are_loop_free_when_tables_agree():
    rng = random.Random(99)
    for _ in range(25):
        topo = random_router_topology(rng)
        db = LinkStateDb.from_topology(topo)
        tables = {r: spf(db, r, topo) for r in topo.routers()}
        for src in topo.routers():
            for dst in topo.routers():
                if dst == src:
                    continue
                here, hops = src, 0
                while here != dst:
                    here = tables[here][dst].next_hop
                    hops += 1
                    assert hops <= len(topo.nodes), f"loop {src}->{dst}"


def with_hosts(rng, topo, count):
    """``topo`` plus ``count`` hosts, each attached to a random router."""
    routers = topo.routers()
    nodes = {nid: ROUTER for nid in routers}
    links = list(topo.links)
    for i in range(count):
        host = f"H{i + 1}"
        nodes[host] = HOST
        links.append(Link(f"{host}-link", host, rng.choice(routers),
                          100_000_000, 100, rng.randint(1, 20), 100))
    return Topology(nodes, links)


def random_update(rng, record, base_cost, max_cost=20):
    """A new (cost, up) for ``record``: one of the changes a router floods;
    new costs are drawn from 1 to ``max_cost``."""
    kind = rng.choice(["down", "up", "escalate", "restore", "same",
                       "cost_while_down", "cost"])
    if kind == "down":
        return record.cost, False
    if kind == "up":
        return record.cost, True
    if kind == "escalate":
        return DEFAULT_HIGH_COST, True
    if kind == "restore":
        return base_cost, True
    if kind == "same":
        return record.cost, record.up
    if kind == "cost_while_down":
        return rng.randint(1, max_cost), False
    return rng.randint(1, max_cost), record.up


def test_spf_tables_match_the_reference_spf():
    # whole tables, so the tie-break and the egress interface are pinned too;
    # small cost ranges make equal-cost ties common
    rng = random.Random(4242)
    ties = 0
    for _ in range(60):
        topo = with_hosts(rng, random_router_topology(rng, max_nodes=8),
                          rng.randint(1, 4))
        db = LinkStateDb.from_topology(topo)
        for record in db.records:
            record.cost = rng.randint(1, 4)
            record.up = rng.random() >= 0.2
        tables = {source: spf(db, source, topo) for source in topo.nodes}
        for source, table in tables.items():
            assert table == reference_spf(db, source, topo), source
            for dest, route in table.items():  # count first hops that tie
                firsts = [dl for dl in topo.out_links[source]
                          if db.records[dl.index].up and (
                              dl.dst == dest or topo.nodes[dl.dst].kind == ROUTER
                              and dest in tables[dl.dst])]
                costs = [db.records[dl.index].cost + (
                    0 if dl.dst == dest else tables[dl.dst][dest].cost)
                    for dl in firsts]
                ties += costs.count(route.cost) > 1
    assert ties > 100


def test_repaired_tables_match_the_reference_spf():
    # every update is repaired from the last table, and the tables spf returns
    # unchanged are checked too; small costs make equal-cost ties common
    rng = random.Random(2718)
    seen = Counter()
    for _ in range(40):
        topo = with_hosts(rng, random_router_topology(rng, max_nodes=10),
                          rng.randint(1, 4))
        db = LinkStateDb.from_topology(topo)
        for record in db.records:
            record.cost = rng.randint(1, 3)
        tables = {source: spf(db, source, topo) for source in topo.nodes}
        for version in range(1, 40):
            index = rng.randrange(len(topo.directed))
            record = db.records[index]
            old_cost, old_up = record.cost, record.up
            cost, up = random_update(rng, record, rng.randint(1, 3), max_cost=3)
            assert db.apply_update(index, cost, up, version)
            seen["worse"] += old_up and (not up or cost > old_cost)
            seen["better"] += up and (not old_up or cost < old_cost)
            for source, last in tables.items():
                kept = dict(last)
                table = spf(db, source, topo, last, (index, old_cost, old_up))
                assert last == kept, f"{source}: the input table was written"
                seen["kept" if table is last else "repaired"] += 1
                assert table == reference_spf(db, source, topo), (
                    f"{source}: link {index} {old_cost}/{old_up} -> {cost}/{up}")
                seen["tie"] += any(  # a next hop that changed at equal cost
                    route.cost == kept[dest].cost and route != kept[dest]
                    for dest, route in table.items() if dest in kept)
                tables[source] = table
    assert min(seen["worse"], seen["better"], seen["tie"], seen["kept"],
               seen["repaired"]) > 100, seen
