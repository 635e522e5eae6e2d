import random

import pytest

import famtarsim.engine as engine_mod
from famtarsim.engine import Engine, EventLog
from famtarsim.model import HOST, ROUTER, Link, Topology, seconds
from famtarsim.routing import RoutingConfig, spf
from famtarsim.traffic import (FlowSpec, elastic_batch_workload, materialize)
from helpers import diamond_topology, line_topology


def one_shot(start=0, **kwargs):
    """A flow that sends exactly one 1000-byte packet."""
    base = dict(src="H1", dst="H2", rate_bps=800_000, packet_size=1000,
                start=start, size_bytes=1000)
    return FlowSpec(**{**base, **kwargs})


def test_single_packet_delay_is_exact():
    # per hop: serialization ceil(bits/capacity) + propagation
    #   H1->R1: 80 + 100, R1->R2: 800 + 1000, R2->H2: 80 + 100  => 2160 us
    engine = Engine(line_topology(), [one_shot()], seconds(1.0))
    result = engine.run()
    assert result.generated == 1
    assert result.delivered == 1
    assert result.drops == {}
    assert result.in_flight == 0
    report = result.report(window=(0, 1))
    assert report.delay_avg_ms == pytest.approx(2.16)
    assert report.delay_max_ms == pytest.approx(2.16)
    assert report.bytes_received == 1000


def test_queue_tail_drop_with_single_slot_queue():
    # three back-to-back packets: one transmitting, one queued, one dropped
    topo = line_topology(core_queue=1)
    flows = [one_shot(), one_shot(), one_shot()]
    result = Engine(topo, flows, seconds(1.0)).run()
    assert result.delivered == 2
    assert result.drops == {"queue_full": 1}
    assert result.conserved()


def test_unfinished_packets_count_as_in_flight():
    flow = FlowSpec(src="H1", dst="H2", rate_bps=8_000_000, packet_size=1000,
                    start=0)
    result = Engine(line_topology(), [flow], 5000).run()
    assert result.generated == 5          # emissions at 0,1,2,3,4 ms
    assert result.delivered == 3          # arrivals at 2.16, 3.16, 4.16 ms
    assert result.in_flight == 2
    assert result.drops == {}
    assert result.conserved()


def test_link_failure_invalidates_packets_in_flight():
    engine = Engine(line_topology(), [one_shot()], 3000)
    engine.inject_link_failure("R1-R2", 1500)   # packet is mid-propagation
    result = engine.run()
    assert result.delivered == 0
    assert result.drops == {"link_down": 1}
    assert result.conserved()
    assert result.log.counts["link_down"] == 1


def test_link_failure_drains_queued_packets():
    topo = line_topology()
    flows = [one_shot(), one_shot(), one_shot()]
    engine = Engine(topo, flows, seconds(1.0))
    engine.inject_link_failure("R1-R2", 500)  # two packets still queue-bound
    result = engine.run()
    assert result.delivered == 0
    assert result.drops == {"link_down": 3}
    assert result.conserved()


def test_repaired_link_carries_traffic_again():
    engine = Engine(line_topology(),
                    [one_shot(), one_shot(start=seconds(0.5))], seconds(1.0))
    engine.inject_link_failure("R1-R2", 200, seconds(0.3))
    result = engine.run()
    assert result.drops == {"link_down": 1}
    assert result.delivered == 1
    assert result.log.counts["link_up"] == 1


def test_identical_seeds_reproduce_the_event_log_hash():
    topo = diamond_topology()
    duration = seconds(5.0)
    workload = elastic_batch_workload(flows=30, inter_start_mean_s=0.05)

    def run(seed):
        return Engine(topo, materialize(workload, seed), duration, seed=seed).run()

    first, second, other = run(5), run(5), run(6)
    assert first.event_log_hash == second.event_log_hash
    assert first.event_log_hash != other.event_log_hash
    assert first.generated == second.generated
    assert first.conserved() and second.conserved() and other.conserved()


def test_engine_assigns_unique_source_ports():
    # flow i is keyed UDP from source port 20000 + i to port 9000
    topo = line_topology()
    flows = [one_shot(), one_shot(), one_shot()]
    result = Engine(topo, flows, seconds(1.0)).run()
    h1, h2 = topo.addr_of["H1"], topo.addr_of["H2"]
    keys = sorted(key for key, _ in result.routers["R1"].fft.entries())
    assert keys == [(h1, h2, 20_000 + i, 9000, 17) for i in range(3)]


def test_engine_validation_errors():
    topo = line_topology()
    with pytest.raises(ValueError):
        Engine(topo, [], 0)
    with pytest.raises(ValueError):
        Engine(topo, [one_shot(src="H9")], 1000)
    for ends in ({"src": "R1"}, {"dst": "R2"}):  # flows run between hosts
        with pytest.raises(ValueError, match="is not a host"):
            Engine(topo, [one_shot(**ends)], 1000)

    engine = Engine(topo, [one_shot()], 1000)
    with pytest.raises(ValueError):
        engine.inject_link_failure("R9-R9", 10)
    with pytest.raises(ValueError):  # host links never fail
        engine.inject_link_failure("H1-R1", 10)
    with pytest.raises(ValueError):
        engine.inject_link_failure("R1-R2", 1000)     # not before the end
    with pytest.raises(ValueError):
        engine.inject_link_failure("R1-R2", 500, 400)  # repair precedes failure


@pytest.mark.parametrize("symmetric", [False, True])
def test_symmetric_escalation_floods_both_directions(symmetric):
    # 9.6 Mbit/s over the 10 Mbit/s R1-R2-R4 path escalates both hot links
    # at the 1 s tick; R3 sits on neither and learns of it only by flooding
    hot = FlowSpec(src="H1", dst="H2", rate_bps=9_600_000, packet_size=1000,
                   start=0)
    cfg = RoutingConfig(symmetric_escalation=symmetric)
    result = Engine(diamond_topology(), [hot], seconds(1.5),
                    routing_cfg=cfg).run()
    topo = result.topo
    hot_links = [topo.directed_between("R1", "R2"),
                 topo.directed_between("R2", "R4")]
    assert sorted(result.congestion_events) == sorted(
        (dl.index, seconds(1.0), True) for dl in hot_links)
    remote = result.routers["R3"].db.records
    for dl in hot_links:
        assert remote[dl.index].cost == cfg.high_cost
        reverse = cfg.high_cost if symmetric else dl.link.base_cost
        assert remote[dl.reverse_index].cost == reverse


def test_engine_instances_are_single_use():
    engine = Engine(line_topology(), [one_shot()], 1000)
    engine.run()
    with pytest.raises(RuntimeError):
        engine.run()


def test_event_log_digest_and_retention():
    log = EventLog(keep=True)
    log.emit(0, "emit", (0, 0))
    log.emit(5, "deliver", (0, 0))
    assert log.counts == {"emit": 1, "deliver": 1}
    assert log.of_kind("deliver") == [(5, "deliver", (0, 0))]

    twin = EventLog()
    twin.emit(0, "emit", (0, 0))
    twin.emit(5, "deliver", (0, 0))
    assert twin.hexdigest() == log.hexdigest()
    assert twin.records == []  # nothing retained unless asked

    reordered = EventLog()
    reordered.emit(5, "deliver", (0, 0))
    reordered.emit(0, "emit", (0, 0))
    assert reordered.hexdigest() != log.hexdigest()


def test_run_result_report_uses_default_window():
    result = Engine(line_topology(), [one_shot()], seconds(2.0)).run()
    report = result.report()
    assert report.window == (0, 2)
    assert report.delivered == 1


def flapping_grid(seed, traffic):
    """A 4 x 4 router grid with a host on each corner and 20 link flaps.

    Core links cost 5-15.  Each flap takes down a core link that is up at a
    seeded time in 0.1-3.0 s and repairs it 0.1-0.4 s later.
    With ``traffic`` each host sends a CBR flow to the opposite corner, and
    the first one runs hot enough (9.5 Mbit/s) to escalate its path.
    Returns ``(topo, flows, failures)``.
    """
    rng = random.Random(seed)
    side = 4
    grid = [[f"R{r}{c}" for c in range(side)] for r in range(side)]
    nodes = {rid: ROUTER for row in grid for rid in row}
    core = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                core.append((grid[r][c], grid[r][c + 1]))
            if r + 1 < side:
                core.append((grid[r][c], grid[r + 1][c]))
    links = [Link(f"{a}-{b}", a, b, 10_000_000, 1000, rng.randint(5, 15), 100)
             for a, b in core]
    corners = [grid[0][0], grid[0][-1], grid[-1][-1], grid[-1][0]]
    hosts = [f"H{i + 1}" for i in range(len(corners))]
    for host, rid in zip(hosts, corners):
        nodes[host] = HOST
        links.append(Link(f"{host}-{rid}", host, rid, 100_000_000, 100, 10, 100))
    topo = Topology(nodes, links)

    flows = []
    if traffic:
        for i, src in enumerate(hosts):
            rate = 9_500_000 if i == 0 else 800_000
            flows.append(FlowSpec(src=src, dst=hosts[(i + 2) % len(hosts)],
                                  rate_bps=rate, packet_size=1000,
                                  start=seconds(rng.uniform(0.0, 0.2))))

    failures = []
    up_again = {f"{a}-{b}": 0 for a, b in core}
    for t_down in sorted(seconds(rng.uniform(0.1, 3.0)) for _ in range(20)):
        link_id = rng.choice([l for l, t in up_again.items() if t < t_down])
        t_up = t_down + seconds(rng.uniform(0.1, 0.4))
        failures.append((link_id, t_down, t_up))
        up_again[link_id] = t_up
    return topo, flows, failures


def run_grid(seed, duration, traffic=True):
    topo, flows, failures = flapping_grid(seed, traffic)
    engine = Engine(topo, flows, duration, keep_log=True, seed=seed)
    for link_id, t_down, t_up in failures:
        engine.inject_link_failure(link_id, t_down, t_up)
    return engine.run()


def count_spf_calls(monkeypatch):
    calls = []

    def counted(db, source, topo):
        calls.append(source)
        return spf(db, source, topo)

    monkeypatch.setattr(engine_mod, "spf", counted)
    return calls


def test_skipped_spf_runs_leave_the_event_log_unchanged(monkeypatch):
    calls = count_spf_calls(monkeypatch)
    skipping = run_grid(3, seconds(3.5))
    skipping_calls = len(calls)
    assert skipping.congestion_events  # the hot flow escalates its path

    calls.clear()
    monkeypatch.setattr(engine_mod, "spf_unaffected", lambda *args: False)
    always = run_grid(3, seconds(3.5))
    assert skipping_calls < len(calls)
    assert skipping.event_log_hash == always.event_log_hash
    assert (skipping.log.of_kind("spf_install")
            == always.log.of_kind("spf_install"))


def test_tables_converge_to_spf_on_the_true_link_state(monkeypatch):
    calls = count_spf_calls(monkeypatch)
    install = Engine._on_spf_install

    def vandalising_install(self, now, payload):
        self.routers[payload[0]].table.clear()  # the table being replaced
        install(self, now, payload)
        rid, digest = self.log.records[-1][2]
        table = self.routers[rid].table
        assert tuple(sorted((dest, r.iface, r.cost)
                            for dest, r in table.items())) == digest

    monkeypatch.setattr(Engine, "_on_spf_install", vandalising_install)
    # the last repair is at most 3.4 s; floods and installs settle in 0.1 s
    result = run_grid(5, seconds(4.0), traffic=False)
    assert len(calls) < result.log.counts["spf_install"]  # installs reused

    topo = result.topo
    truth = [(dl.link.base_cost, True) for dl in topo.directed]
    for rid, router in result.routers.items():
        assert [(r.cost, r.up) for r in router.db.records] == truth, rid
        assert router.table == spf(router.db, rid, topo), rid
