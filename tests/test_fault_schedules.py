"""Randomised fault schedules: invariants that hold on any router graph.

Each example is a small random router graph (``helpers.random_router_topology``)
with 2-4 attached hosts, 1-5 CBR flows of which the first runs hot enough to
escalate its path, a monitor period of 0.1-0.5 s and 0-6 link failures, some
repaired, over 2 s of simulated time.  Every run must conserve packets,
reproduce its digest, and deliver no packet through more routers than its
initial TTL allows.  A few examples also run as an explicit-topology scenario
document, serially and in two worker processes, and must give the same
digests as the direct engine run.
"""

import random
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from famtarsim.engine import Engine
from famtarsim.model import HOST, Link, Topology, seconds, to_seconds
from famtarsim.router import FamtarConfig
from famtarsim.scenario import ScenarioSpec, run_experiment
from famtarsim.traffic import FlowSpec
from helpers import random_router_topology

DURATION = seconds(2.0)
HOT_BPS = 9_500_000  # above the 0.9 threshold of a 10 Mbit/s core link


@dataclass
class Case:
    topo: Topology
    flows: list
    failures: list  # (link id, down, up or None), microseconds
    monitor_period: int

    def run(self, record_paths=False):
        engine = Engine(self.topo, self.flows, DURATION, record_paths=record_paths,
                        famtar_cfg=FamtarConfig(monitor_period=self.monitor_period))
        for failure in self.failures:
            engine.inject_link_failure(*failure)
        return engine.run()

    def scenario_doc(self):
        """The same run as an explicit-topology scenario of two repetitions."""
        return {
            "version": 1, "name": "fault-schedule", "duration_s": to_seconds(DURATION),
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
            "famtar": {"monitor_period_s": to_seconds(self.monitor_period)},
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

    flows = [FlowSpec(src="H1", dst="H2", rate_bps=HOT_BPS, packet_size=1000,
                      start=draw(st.integers(0, seconds(0.2))), label="hot")]
    for _ in range(draw(st.integers(0, 4))):
        src, dst = draw(st.permutations(hosts))[:2]
        start = draw(st.integers(0, seconds(1.0)))
        stop = draw(st.none() | st.integers(start + 1, DURATION))
        flows.append(FlowSpec(
            src=src, dst=dst, rate_bps=draw(st.integers(100_000, 3_000_000)),
            packet_size=draw(st.sampled_from([64, 500, 1000, 1500])),
            start=start, stop=stop, ttl_initial=draw(st.integers(2, 64))))

    failures = []
    for _ in range(draw(st.integers(0, 6))):
        down = draw(st.integers(0, DURATION - 1))
        up = draw(st.none() | st.integers(down + 1, down + seconds(1.0)))
        failures.append((draw(st.sampled_from(core)).link_id, down, up))
    period = draw(st.integers(seconds(0.1), seconds(0.5)))
    return Case(topo, flows, failures, period)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_random_fault_schedules_conserve_and_reproduce(case):
    traced = case.run(record_paths=True)
    assert traced.conserved(), traced.conservation()
    assert case.run().event_log_hash == traced.event_log_hash

    delivered = 0
    for (flow_id, _seq), path in traced.traces.items():
        flow = case.flows[flow_id]
        if path[-1] == flow.dst:  # only a delivery appends the destination
            delivered += 1
            assert len(path) - 2 <= flow.ttl_initial - 1, (flow_id, path)
    assert delivered == traced.delivered


@settings(max_examples=3, deadline=None)
@given(cases())
def test_random_fault_schedules_match_across_worker_counts(case):
    spec = ScenarioSpec.from_dict(case.scenario_doc())
    serial = run_experiment(spec, workers=1)
    pooled = run_experiment(spec, workers=2)
    # a custom workload draws nothing, so both seeds give the direct digest
    direct = case.run().event_log_hash
    assert [r.event_log_hash for r in serial.reports] == [direct] * 2
    assert [r.event_log_hash for r in pooled.reports] == [direct] * 2
