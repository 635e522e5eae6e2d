import io

import pytest

from famtarsim.engine import Engine
from famtarsim.model import FlowValue, Packet, make_flow_key, seconds
from famtarsim.router import DROP, FORWARD, FamtarConfig
from famtarsim.routing import Route
from famtarsim.traffic import FlowSpec
from helpers import (PathRecordingEngine, diamond_topology, directed_between,
                     log_records)


@pytest.fixture()
def rig_log():
    """Where the rig's event log streams."""
    return io.StringIO()


@pytest.fixture()
def rig(rig_log):
    """Unstarted engine on the diamond: real routers, empty wire."""
    return Engine(diamond_topology(), [], seconds(30.0), log_stream=rig_log)


def flow_key(topo, src="H1", dst="H2", src_port=20_000):
    return make_flow_key(topo.addr_of[src], topo.addr_of[dst], src_port, 9000, 17)


def packet(key, ttl=64, size=1000):
    return Packet(key, size, ttl, 0)


IFACE_TO_R2 = 1  # at R1: iface 0 faces H1, 1 faces R2, 2 faces R3


def test_first_packet_pins_the_flow(rig):
    r1 = rig.routers["R1"]
    key = flow_key(rig.topo)

    action = r1.process_packet(packet(key), now=0)
    assert action == (FORWARD, IFACE_TO_R2)
    entry = r1.fft.lookup(key, 0)
    assert entry.port == IFACE_TO_R2
    assert entry.gateway == rig.topo.addr_of["R2"]
    assert entry.ttl == 63          # stored after this router's decrement
    assert rig.log.counts["fft_insert"] == 1


def test_pinned_flow_ignores_later_route_changes(rig):
    r1 = rig.routers["R1"]
    key = flow_key(rig.topo)
    r1.process_packet(packet(key), now=0)

    # the routing table flips to R3; the pinned flow must not follow it
    r1.table["H2"] = Route(2, "R3", rig.topo.addr_of["R3"], r1.table["H2"].cost)
    action = r1.process_packet(packet(key), now=seconds(1.0))
    assert action == (FORWARD, IFACE_TO_R2)
    assert r1.fft.lookup(key, seconds(1.0)).ts == seconds(1.0)  # touched


def test_ttl_expiry_drops_silently(rig):
    r1 = rig.routers["R1"]
    pkt = packet(flow_key(rig.topo), ttl=1)
    assert r1.process_packet(pkt, now=0) == (DROP, "ttl_expired")
    assert pkt.ttl == 0
    assert r1.fft.entry_count == 0  # dropped packets never pin


def test_lower_ttl_rewrites_from_current_table(rig, rig_log):
    r1 = rig.routers["R1"]
    key = flow_key(rig.topo)
    r1.process_packet(packet(key), now=0)            # entry ttl 63

    looped = packet(key, ttl=62)                        # one extra hop upstream
    assert r1.process_packet(looped, now=100) == (FORWARD, IFACE_TO_R2)
    entry = r1.fft.lookup(key, 100)
    assert entry.ttl == 61
    assert rig.log.counts["fft_rewrite"] == 1
    assert log_records(rig_log, "fft_rewrite")[-1][2] == \
        ("R1", 0, IFACE_TO_R2, IFACE_TO_R2)


def test_rewrite_follows_a_changed_table(rig, rig_log):
    r1 = rig.routers["R1"]
    key = flow_key(rig.topo)
    r1.process_packet(packet(key), now=0)
    r1.table["H2"] = Route(2, "R3", rig.topo.addr_of["R3"], 30)

    looped = packet(key, ttl=60)
    assert r1.process_packet(looped, now=100) == (FORWARD, 2)
    entry = r1.fft.lookup(key, 100)
    assert entry.port == 2 and entry.ttl == 59
    assert log_records(rig_log, "fft_rewrite")[-1][2] == ("R1", 0, IFACE_TO_R2, 2)


def test_higher_ttl_raises_stored_ttl_and_keeps_route(rig):
    r1 = rig.routers["R1"]
    key = flow_key(rig.topo)
    r1.process_packet(packet(key, ttl=10), now=0)    # entry ttl 9
    assert r1.process_packet(packet(key, ttl=64), now=100) == \
        (FORWARD, IFACE_TO_R2)
    entry = r1.fft.lookup(key, 100)
    assert entry.ttl == 63 and entry.port == IFACE_TO_R2
    assert rig.log.counts["fft_ttl_raise"] == 1
    assert rig.log.counts["fft_rewrite"] == 0


def test_unknown_destination_is_unreachable(rig):
    r1 = rig.routers["R1"]
    foreign = make_flow_key(rig.topo.addr_of["H1"], 0x0B000001, 20_000, 9000, 17)
    assert r1.process_packet(packet(foreign), now=0) == (DROP, "unreachable")


def test_missing_route_is_unreachable(rig):
    r1 = rig.routers["R1"]
    del r1.table["H2"]
    assert r1.process_packet(packet(flow_key(rig.topo)), 0) == \
        (DROP, "unreachable")


def test_blocked_interface_forwards_without_pinning(rig):
    r1 = rig.routers["R1"]
    key = flow_key(rig.topo)
    r1.fft.block_interface(IFACE_TO_R2, 0, seconds(5.0))
    assert r1.process_packet(packet(key), now=0) == (FORWARD, IFACE_TO_R2)
    assert r1.fft.lookup(key, 0) is None
    assert rig.log.counts["fft_blocked"] == 1


def test_disabled_famtar_router_forwards_by_table_only():
    topo = diamond_topology()
    engine = Engine(topo, [], seconds(10.0),
                    famtar_cfg=FamtarConfig(enabled=False))
    r1 = engine.routers["R1"]
    assert r1.fft is None
    pkt = packet(flow_key(topo))
    assert r1.process_packet(pkt, now=0) == (FORWARD, IFACE_TO_R2)
    assert pkt.ttl == 63


# -- congestion monitor -------------------------------------------------------

def iface_of(engine, src, dst):
    return engine.iface_rt[directed_between(engine.topo, src, dst).index]


def test_monitor_escalates_at_the_congest_threshold(rig):
    r1 = rig.routers["R1"]
    ifr = iface_of(rig, "R1", "R2")

    ifr.bytes_window = 1_124_999  # 8.999992 Mbit on a 10 Mbit/s link
    assert r1.monitor_tick(seconds(1.0)) == []
    assert not ifr.congested

    ifr.bytes_window = 1_125_000  # exactly 0.90 load
    actions = r1.monitor_tick(seconds(2.0))
    assert actions == [(ifr, 10_000, True)]
    assert ifr.congested and ifr.original_cost == 10
    assert ifr.bytes_window == 0  # window resets every tick


def test_monitor_hysteresis_band_holds_state(rig):
    r1 = rig.routers["R1"]
    ifr = iface_of(rig, "R1", "R2")
    ifr.bytes_window = 1_200_000
    assert len(r1.monitor_tick(seconds(1.0))) == 1

    ifr.bytes_window = 1_000_000  # load 0.80: below congest, above clear
    assert r1.monitor_tick(seconds(2.0)) == []
    assert ifr.congested

    ifr.bytes_window = 875_000    # exactly 0.70 load: restore
    assert r1.monitor_tick(seconds(3.0)) == [(ifr, 10, False)]
    assert not ifr.congested

    ifr.bytes_window = 1_000_000  # 0.80 again, uncongested: still nothing
    assert r1.monitor_tick(seconds(4.0)) == []


def test_escalation_remembers_the_cost_it_replaced(rig):
    r1 = rig.routers["R1"]
    ifr = iface_of(rig, "R1", "R2")
    r1.db.records[ifr.dl.index].cost = 13   # a previously re-costed link

    ifr.bytes_window = 1_200_000
    assert r1.monitor_tick(seconds(1.0)) == [(ifr, 10_000, True)]
    assert ifr.original_cost == 13
    ifr.bytes_window = 0
    assert r1.monitor_tick(seconds(2.0)) == [(ifr, 13, False)]


def test_monitor_skips_downed_links(rig):
    r1 = rig.routers["R1"]
    ifr = iface_of(rig, "R1", "R2")
    ifr.link_rt.up = False
    ifr.bytes_window = 9_999_999
    assert r1.monitor_tick(seconds(1.0)) == []
    assert ifr.bytes_window == 0


# -- failure handling ---------------------------------------------------------

def test_link_down_purges_and_blocks(rig, rig_log):
    r1 = rig.routers["R1"]
    topo = rig.topo
    now = seconds(3.0)
    for port, key in ((1, flow_key(topo, src_port=1001)),
                      (1, flow_key(topo, src_port=1002)),
                      (2, flow_key(topo, src_port=1003))):
        r1.fft.insert(key, FlowValue(now, port, 0, 63), now)

    ifr = iface_of(rig, "R1", "R2")
    r1.on_link_down(ifr, now)

    assert r1.fft.entry_count == 1  # only the R3-pinned flow survives
    assert log_records(rig_log, "fft_purge")[-1][2] == ("R1", 1, 2)
    assert r1.fft.is_blocked(1, now + seconds(5.0) - 1)
    assert not r1.fft.is_blocked(1, now + seconds(5.0))
    assert not ifr.congested and ifr.bytes_window == 0


def test_repair_does_not_lift_the_admission_block():
    # R1-R2 fails at 1 s and is back at 2 s; a flow starting at 3 s routes
    # over R2 again but cannot pin until the block ends at 6 s
    late = FlowSpec(src="H1", dst="H2", rate_bps=80_000, packet_size=1000,
                    start=seconds(3.0))
    log = io.StringIO()
    engine = Engine(diamond_topology(), [late], seconds(7.0), log_stream=log)
    engine.inject_link_failure("R1-R2", seconds(1.0), seconds(2.0))
    result = engine.run()
    r1 = result.routers["R1"]
    assert r1.table["H2"].iface == IFACE_TO_R2
    blocked = [t for t, _kind, data in log_records(log, "fft_blocked")
               if data[0] == "R1"]
    pinned = [t for t, _kind, data in log_records(log, "fft_insert")
              if data[0] == "R1"]
    hop = 180  # H1 -> R1: 80 us serialization + 100 us propagation
    assert blocked == [seconds(3.0 + i / 10) + hop for i in range(30)]
    assert pinned == [seconds(6.0) + hop]
    assert result.delivered == result.generated - result.in_flight


# -- end-to-end: new flows avoid a congested link ------------------------------

def test_new_flows_route_around_congestion():
    topo = diamond_topology()
    hot = FlowSpec(src="H1", dst="H2", rate_bps=9_600_000, packet_size=1000,
                   start=0, label="hot")
    late = FlowSpec(src="H1", dst="H2", rate_bps=800_000, packet_size=1000,
                    start=seconds(1.5), label="late")
    engine = PathRecordingEngine(topo, [hot, late], seconds(3.0))
    result = engine.run()

    r1_to_r2 = directed_between(topo, "R1", "R2").index
    escalations = [(i, t) for i, t, up in result.congestion_events if up]
    assert (r1_to_r2, seconds(1.0)) in escalations

    hot_paths = [p for (fid, _), p in engine.traces.items() if fid == 0 and len(p) == 5]
    late_paths = [p for (fid, _), p in engine.traces.items() if fid == 1 and len(p) == 5]
    assert hot_paths and late_paths
    assert all(p == ["H1", "R1", "R2", "R4", "H2"] for p in hot_paths)
    assert all(p == ["H1", "R1", "R3", "R4", "H2"] for p in late_paths)
    assert result.conserved()
