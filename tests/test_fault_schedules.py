"""Randomised fault schedules: invariants that hold on any router graph.

Each example is a small random router graph (``helpers.random_router_topology``)
with 2-4 attached hosts, 2-6 CBR flows and a monitor period of 0.1-0.5 s,
over 2 s of simulated time.  The first flow runs hot enough to escalate its
path, and the second shares it, so that together they overload the hot
flow's first core link and keep its queue non-empty.  That link fails after
the monitor has seen a full period of both flows, so congested unless an
earlier failure moved them, and is repaired before the end; 0-6 more link
failures, some repaired, fall anywhere.  Every run must conserve packets, reproduce its digest, and
deliver no packet through more routers than its initial TTL allows.  At
every repair both directions of the link must still be as the failure left
them: empty, idle and uncongested.  A few examples also run as an
explicit-topology scenario document, serially and in two worker processes,
and must give the same digests as the direct engine run.

Three relations between runs of the same build hold on the same graphs, so
they outlive any deliberate change of behaviour: a run cut short streams
exactly the full run's records up to the cut; with FAMTAR off and no
failures every packet follows the routers' boot shortest paths; and renaming
every node and link by a map that keeps their sort order, with the nodes
declared in another order, streams the same records once the names are
mapped back.
"""

import dataclasses
import io
import random
import string
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from famtarsim.engine import Engine
from famtarsim.model import HOST, Link, Topology, seconds, to_seconds
from famtarsim.router import FamtarConfig
from famtarsim.routing import LinkStateDb, spf
from famtarsim.scenario import ScenarioSpec, run_experiment
from famtarsim.traffic import FlowSpec
from helpers import (PathRecordingEngine, diamond_topology, directed_between,
                     log_records, random_router_topology, reference_spf)

DURATION = seconds(2.0)
HOT_BPS = 9_500_000    # above the 0.9 threshold of a 10 Mbit/s core link
EXTRA_BPS = 1_000_000  # with the hot flow, more than a core link carries


class RepairCheckingEngine(Engine):
    """An engine that checks both interfaces of a link each time it comes back."""

    def _on_link_up(self, now, link_id):
        link_rt = self.link_rt[link_id]
        if not link_rt.up:  # an effective repair
            for dl_index in link_rt.directed_indexes:
                ifr = self.iface_rt[dl_index]
                assert not ifr.queue and ifr.busy_until <= now, (link_id, now)
                assert ifr.bytes_window == 0 and not ifr.congested, (link_id, now)
        super()._on_link_up(now, link_id)


class TracedRepairCheckingEngine(RepairCheckingEngine, PathRecordingEngine):
    """Checks every repair and records every packet's path."""


@dataclass
class Case:
    topo: Topology
    flows: list
    failures: list  # (link id, down, up or None), microseconds
    monitor_period: int
    duration: int = DURATION
    famtar: bool = True

    def engine(self, cls=RepairCheckingEngine, log_stream=None):
        """An engine of class ``cls`` with this case's failures scheduled."""
        engine = cls(self.topo, self.flows, self.duration,
                     famtar_cfg=FamtarConfig(enabled=self.famtar,
                                             monitor_period=self.monitor_period),
                     log_stream=log_stream)
        for failure in self.failures:
            engine.inject_link_failure(*failure)
        return engine

    def scenario_doc(self):
        """The same run as an explicit-topology scenario of two repetitions."""
        return {
            "version": 1, "name": "fault-schedule",
            "duration_s": to_seconds(self.duration),
            "repetitions": 2,
            "topology": {
                "nodes": [{"id": n.node_id, "kind": n.kind}
                          for n in self.topo.nodes.values()],
                "links": [{"id": l.link_id, "a": l.endpoint_a, "b": l.endpoint_b,
                           "capacity_bps": l.capacity,
                           "delay_ms": l.propagation_delay / 1000,
                           "cost": l.base_cost, "queue": l.queue_capacity}
                          for l in self.topo.links]},
            "workload": {"kind": "custom", "flows": [
                {"src": f.src, "dst": f.dst, "rate_bps": f.rate_bps,
                 "packet_size_bytes": f.packet_size, "start_s": to_seconds(f.start),
                 **({} if f.stop is None else {"stop_s": to_seconds(f.stop)}),
                 "ttl": f.ttl_initial}
                for f in self.flows]},
            "famtar": {"enabled": self.famtar,
                       "monitor_period_s": to_seconds(self.monitor_period)},
            "failures": [{"link": link, "down_at_s": to_seconds(down),
                          **({} if up is None else {"up_at_s": to_seconds(up)})}
                         for link, down, up in self.failures],
        }


@st.composite
def cases(draw):
    routers = random_router_topology(random.Random(draw(st.integers(0, 2 ** 32))))
    core = list(routers.links)
    rids = routers.routers()
    n_hosts = draw(st.integers(2, 4))
    # H1 and H2 sit behind different routers, so the hot flow loads a core link
    first = draw(st.integers(0, len(rids) - 1))
    second = (first + draw(st.integers(1, len(rids) - 1))) % len(rids)
    attach = [rids[first], rids[second]] + [
        draw(st.sampled_from(rids)) for _ in range(n_hosts - 2)]
    hosts = [f"H{i + 1}" for i in range(n_hosts)]
    nodes = {rid: n.kind for rid, n in routers.nodes.items()}
    links = list(core)
    for host, rid in zip(hosts, attach):
        nodes[host] = HOST
        links.append(Link(f"{host}-{rid}", host, rid, 100_000_000, 100, 10, 100))
    topo = Topology(nodes, links)

    hot_start = draw(st.integers(0, seconds(0.2)))
    flows = [FlowSpec(src="H1", dst="H2", rate_bps=HOT_BPS, packet_size=1000,
                      start=hot_start, label="hot"),
             FlowSpec(src="H1", dst="H2", rate_bps=EXTRA_BPS, packet_size=1000,
                      start=hot_start, label="extra")]
    for _ in range(draw(st.integers(0, 4))):
        src, dst = draw(st.permutations(hosts))[:2]
        start = draw(st.integers(0, seconds(1.0)))
        stop = draw(st.none() | st.integers(start + 1, DURATION))
        flows.append(FlowSpec(
            src=src, dst=dst, rate_bps=draw(st.integers(100_000, 3_000_000)),
            packet_size=draw(st.sampled_from([64, 500, 1000, 1500])),
            start=start, stop=stop, ttl_initial=draw(st.integers(2, 64))))

    # the tick at ``hot_start + 2 * period`` or before sees a full period of
    # both flows on the link, escalates it, and cannot restore it while they last
    period = draw(st.integers(seconds(0.1), seconds(0.5)))
    route = spf(LinkStateDb.from_topology(topo), rids[first], topo)["H2"]
    hot_link = directed_between(topo, rids[first], route.next_hop).link
    down = draw(st.integers(hot_start + 2 * period + 1, DURATION - 2))
    failures = [(hot_link.link_id, down, draw(st.integers(down + 1, DURATION - 1)))]
    for _ in range(draw(st.integers(0, 6))):
        down = draw(st.integers(0, DURATION - 1))
        up = draw(st.none() | st.integers(down + 1, down + seconds(1.0)))
        failures.append((draw(st.sampled_from(core)).link_id, down, up))
    return Case(topo, flows, failures, period)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_random_fault_schedules_conserve_and_reproduce(case):
    engine = case.engine(TracedRepairCheckingEngine)
    traced = engine.run()
    assert traced.conserved(), traced.conservation()
    assert case.engine().run().event_log_hash == traced.event_log_hash

    delivered = 0
    for (flow_id, _seq), path in engine.traces.items():
        flow = case.flows[flow_id]
        if path[-1] == flow.dst:  # only a delivery appends the destination
            delivered += 1
            assert len(path) - 2 <= flow.ttl_initial - 1, (flow_id, path)
    assert delivered == traced.delivered


def test_a_link_that_fails_congested_comes_back_uncongested():
    # the hot flow escalates R1 -> R2 at the 1 s tick; the link fails at 1.5 s
    # while still congested and is repaired at 1.8 s, before the next tick
    hot = FlowSpec(src="H1", dst="H2", rate_bps=9_600_000, packet_size=1000,
                   start=0)
    engine = RepairCheckingEngine(diamond_topology(), [hot], seconds(2.0))
    engine.inject_link_failure("R1-R2", seconds(1.5), seconds(1.8))
    result = engine.run()
    r1_r2 = directed_between(result.topo, "R1", "R2").index
    assert (r1_r2, seconds(1.0), True) in result.congestion_events
    assert result.log.counts["link_up"] == 1


@settings(max_examples=3, deadline=None)
@given(cases())
def test_random_fault_schedules_match_across_worker_counts(case):
    spec = ScenarioSpec.from_dict(case.scenario_doc())
    serial = run_experiment(spec, workers=1)
    pooled = run_experiment(spec, workers=2)
    # a custom workload draws nothing, so both seeds give the direct digest
    direct = case.engine().run().event_log_hash
    assert [r.event_log_hash for r in serial.reports] == [direct] * 2
    assert [r.event_log_hash for r in pooled.reports] == [direct] * 2


@settings(max_examples=20, deadline=None)
@given(cases(), st.integers(1, DURATION - 1))
def test_a_run_cut_short_streams_the_full_runs_records_up_to_the_cut(case, cut):
    # the cut run keeps only the failures and repairs before the cut
    failures = [(link, down, None if up is None or up >= cut else up)
                for link, down, up in case.failures if down < cut]
    short = dataclasses.replace(case, failures=failures, duration=cut)
    full_stream, short_stream = io.StringIO(), io.StringIO()
    case.engine(log_stream=full_stream).run()
    short.engine(log_stream=short_stream).run()
    before = [record for record in log_records(full_stream) if record[0] < cut]
    assert log_records(short_stream) == before


@settings(max_examples=40, deadline=None)
@given(cases())
def test_famtar_off_without_failures_follows_the_boot_shortest_paths(case):
    plain = dataclasses.replace(case, failures=[], famtar=False)
    engine = plain.engine(PathRecordingEngine)
    result = engine.run()
    topo = case.topo
    db = LinkStateDb.from_topology(topo)
    boot = {rid: reference_spf(db, rid, topo) for rid in topo.routers()}
    for (flow_id, _seq), path in engine.traces.items():
        dst = case.flows[flow_id].dst
        for here, there in zip(path, path[1:]):  # a host's one link, then SPF
            hop = boot[here][dst].next_hop if here in boot else topo.out_links[here][0].dst
            assert there == hop, (flow_id, path)
    kinds = set(result.log.counts)
    assert not {kind for kind in kinds if kind.startswith("fft_")}, kinds
    assert not kinds & {"escalate", "restore"}, kinds


class InstallRecordingEngine(Engine):
    """An engine that keeps every table it installs, in install order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.installs: list[dict] = []

    def _on_spf_install(self, now, payload):
        super()._on_spf_install(now, payload)
        self.installs.append(payload[1])


def order_preserving_names(rng, names, prefix):
    """Map ``names`` to fresh ``prefix``-led names in the same sort order.

    Fresh names are upper-case letters and digits of random length, so they
    collide with no drop reason and sort the way their fingerprint lines do.
    """
    fresh: set[str] = set()
    while len(fresh) < len(names):
        fresh.add(prefix + "".join(rng.choices(string.ascii_uppercase + string.digits,
                                               k=rng.randint(1, 6))))
    return dict(zip(sorted(names), sorted(fresh)))


def mapped_stream(engine, stream, back):
    """``engine``'s log records with every name mapped through ``back`` and
    each ``spf_install`` fingerprint, a hash over the names, replaced by the
    installed table it stands for."""
    installs = iter(engine.installs)
    records = []
    for t, kind, data in log_records(stream):
        data = tuple(back.get(x, x) if isinstance(x, str) else x for x in data)
        if kind == "spf_install":
            table = next(installs)
            data = (data[0], sorted((back.get(dest, dest), r.iface, r.cost)
                                    for dest, r in table.items()))
        records.append((t, kind, data))
    return records


@settings(max_examples=10, deadline=None)
@given(cases(), st.integers(0, 2 ** 32))
def test_an_order_preserving_rename_streams_the_same_records(case, seed):
    # addresses and tie-breaks follow the names' sort order and interface
    # numbers the links' declaration order, so none of them moves; equal
    # costs make equal-cost paths, so tie-breaks decide many routes
    rng = random.Random(seed)
    topo = Topology({n: node.kind for n, node in case.topo.nodes.items()},
                    [dataclasses.replace(l, base_cost=10) for l in case.topo.links])
    case = dataclasses.replace(case, topo=topo)
    node = order_preserving_names(rng, list(topo.nodes), "N")
    link = order_preserving_names(rng, [l.link_id for l in topo.links], "L")
    declared = list(topo.nodes)
    rng.shuffle(declared)
    renamed = dataclasses.replace(
        case,
        topo=Topology({node[n]: topo.nodes[n].kind for n in declared},
                      [dataclasses.replace(l, link_id=link[l.link_id],
                                           endpoint_a=node[l.endpoint_a],
                                           endpoint_b=node[l.endpoint_b])
                       for l in topo.links]),
        flows=[dataclasses.replace(f, src=node[f.src], dst=node[f.dst])
               for f in case.flows],
        failures=[(link[l], down, up) for l, down, up in case.failures])
    streams = []
    for run, names in ((case, {}), (renamed, node | link)):
        stream = io.StringIO()
        engine = run.engine(InstallRecordingEngine, log_stream=stream)
        engine.run()
        back = {new: old for old, new in names.items()}
        streams.append(mapped_stream(engine, stream, back))
    assert streams[0] == streams[1]
