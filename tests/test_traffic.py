import random

import pytest

from famtarsim.model import seconds
from famtarsim.traffic import (FlowSpec, ParetoBatch, WorkloadSpec,
                               elastic_batch_workload, materialize,
                               single_cbr_workload, voip_vs_waves_workload)


def test_flow_spec_interval_is_exact():
    flow = FlowSpec(src="H1", dst="H2", rate_bps=800_000, packet_size=1000, start=0)
    assert flow.interval_us == 10_000.0
    assert flow.emission_time(0) == 0
    assert flow.emission_time(12_345) == 123_450_000  # no cumulative drift


def test_flow_spec_cbr_64_byte_stream():
    flow = single_cbr_workload().flows[0]
    assert flow.rate_bps == 2_840_000.0
    assert flow.packet_size == 64
    assert flow.interval_us == pytest.approx(180.2817, abs=1e-4)
    # 71 packets take exactly 12.8 ms (36352 bits at 2.84 Mbit/s)
    assert flow.emission_time(71) == 12_800
    in_first_second = sum(1 for i in range(6000) if flow.emission_time(i) < 1_000_000)
    assert in_first_second == 5547


def test_flow_spec_packet_budget():
    flow = FlowSpec(src="H1", dst="H2", rate_bps=800_000, packet_size=1000,
                    start=0, size_bytes=1_000_000)
    assert flow.n_packets == 1000
    tiny = FlowSpec(src="H1", dst="H2", rate_bps=800_000, packet_size=1000,
                    start=0, size_bytes=100)
    assert tiny.n_packets == 1  # a flow always sends at least one packet
    open_ended = FlowSpec(src="H1", dst="H2", rate_bps=800_000,
                          packet_size=1000, start=0)
    assert open_ended.n_packets is None


@pytest.mark.parametrize("kwargs", [
    dict(rate_bps=0), dict(packet_size=0), dict(start=-1),
    dict(size_bytes=0), dict(stop=0), dict(ttl_initial=0),
    dict(ttl_initial=256), dict(rate_bps=float("nan")), dict(rate_bps=float("inf")),
    dict(packet_size=64, rate_bps=1e12),  # 0.000512 us apart
])
def test_flow_spec_validation(kwargs):
    base = dict(src="H1", dst="H2", rate_bps=800_000, packet_size=1000, start=0)
    with pytest.raises(ValueError):
        FlowSpec(**{**base, **kwargs})


def test_flow_spec_allows_packets_one_microsecond_apart():
    flow = FlowSpec(src="H1", dst="H2", rate_bps=8_000_000_000, packet_size=1000,
                    start=0)
    assert flow.interval_us == 1.0


def test_pareto_batch_validation_and_scale():
    batch = ParetoBatch(count=10, rate_bps=800_000, packet_size=1000,
                        size_mean=1e6, size_shape=1.25, size_cap=100e6,
                        inter_start_mean=seconds(0.5))
    assert batch.size_scale == pytest.approx(200_000.0)
    with pytest.raises(ValueError):
        ParetoBatch(count=0, rate_bps=1, packet_size=1, size_mean=1e6,
                    size_shape=1.25, size_cap=100e6, inter_start_mean=1)
    with pytest.raises(ValueError):
        ParetoBatch(count=1, rate_bps=1, packet_size=1, size_mean=1e6,
                    size_shape=1.0, size_cap=100e6, inter_start_mean=1)
    with pytest.raises(ValueError):
        ParetoBatch(count=1, rate_bps=1, packet_size=1, size_mean=1e6,
                    size_shape=1.25, size_cap=1e5, inter_start_mean=1)
    with pytest.raises(ValueError):  # its flows' packets would leave < 1 us apart
        ParetoBatch(count=1, rate_bps=1e12, packet_size=64, size_mean=1e6,
                    size_shape=1.25, size_cap=100e6, inter_start_mean=1)


def test_materialize_is_deterministic_per_seed():
    workload = elastic_batch_workload(flows=50)
    a = materialize(workload, 42)
    b = materialize(workload, 42)
    c = materialize(workload, 43)
    assert [(f.start, f.size_bytes) for f in a] == [(f.start, f.size_bytes) for f in b]
    assert [(f.start, f.size_bytes) for f in a] != [(f.start, f.size_bytes) for f in c]


def test_materialize_draw_order_is_gap_then_size():
    rng = random.Random(7)
    expected = []
    at = 0.0
    for _ in range(3):
        at += rng.expovariate(1.0 / seconds(0.5))
        size = min(200_000.0 * rng.paretovariate(1.25), 100e6)
        expected.append((round(at), max(1000, round(size))))
    flows = materialize(elastic_batch_workload(flows=3), 7)
    assert [(f.start, f.size_bytes) for f in flows] == expected


def test_materialize_without_batch_ignores_seed():
    workload = voip_vs_waves_workload()
    assert materialize(workload, 1) == materialize(workload, 2)


def test_pareto_sample_moments():
    flows = materialize(elastic_batch_workload(flows=100_000), seed=123)
    sizes = [f.size_bytes for f in flows]
    assert min(sizes) >= 1000
    assert max(sizes) <= 100_000_000
    # truncated-Pareto mean: s + s/(a-1) * (1 - (s/c)^(a-1))
    s, a, c = 200_000.0, 1.25, 100e6
    expected = s + s / (a - 1) * (1 - (s / c) ** (a - 1))
    mean = sum(sizes) / len(sizes)
    assert abs(mean - expected) / expected < 0.05

    gaps = [y.start - x.start for x, y in zip(flows, flows[1:])]
    gap_mean = sum(gaps) / len(gaps)
    assert abs(gap_mean - seconds(0.5)) / seconds(0.5) < 0.02


def test_elastic_batch_defaults():
    workload = elastic_batch_workload()
    batch = workload.batch
    assert workload.flows == []
    assert batch.count == 500
    assert batch.rate_bps == 800_000.0        # 100 kB/s on the wire
    assert batch.packet_size == 1000
    assert batch.size_mean == 1e6 and batch.size_cap == 100e6
    assert batch.size_shape == 1.25
    assert batch.inter_start_mean == seconds(0.5)


def test_voip_vs_waves_structure():
    flows = voip_vs_waves_workload().flows
    assert len(flows) == 1 + 50 + 150
    voip = flows[0]
    assert voip.label == "voip"
    assert voip.rate_bps == 50_000.0 and voip.packet_size == 125
    assert voip.interval_us == 20_000.0       # 50 packets per second
    assert voip.stop is None

    first_wave = flows[1:51]
    assert [f.start for f in first_wave] == [seconds(6.0) + i * seconds(0.2)
                                             for i in range(50)]
    assert all(f.stop is None for f in first_wave)

    second_wave = flows[51:]
    assert second_wave[0].start == seconds(25.0)
    assert second_wave[0].stop == seconds(70.0)
    assert second_wave[149].start == seconds(25.0) + 149 * seconds(0.2)
    assert second_wave[149].stop == seconds(70.0) + 149 * seconds(0.2)
    assert all(f.rate_bps == 100_000.0 and f.packet_size == 1000
               for f in flows[1:])


def test_workload_spec_combines_flows_and_batch():
    voip = FlowSpec(src="H1", dst="H2", rate_bps=50_000, packet_size=125,
                    start=0, label="voip")
    workload = WorkloadSpec(flows=[voip],
                            batch=elastic_batch_workload(flows=5).batch)
    flows = materialize(workload, 3)
    assert flows[0] is voip
    assert len(flows) == 6
