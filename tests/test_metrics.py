import json

import pytest

from famtarsim.engine import Engine
from famtarsim.metrics import (MetricsReport, collect, flows_csv, links_csv,
                               mean_std, metrics_csv, report_json)
from famtarsim.model import seconds
from famtarsim.scenario import (ExperimentResult, diff_report_dicts,
                                emit_summary, pair_root)
from famtarsim.traffic import FlowSpec
from helpers import line_topology


@pytest.fixture(scope="module")
def cbr_run():
    flow = FlowSpec(src="H1", dst="H2", rate_bps=800_000, packet_size=1000,
                    start=0, label="cbr")
    return Engine(line_topology(), [flow], seconds(4.0), name="cbr").run()


def test_collect_window_validation(cbr_run):
    for window in ((-1, 2), (2, 2), (3, 1), (0, 5)):
        with pytest.raises(ValueError):
            collect(cbr_run, window)


@pytest.mark.parametrize("window", [(0.5, 2.9), (0, 2.0), (True, 2), (0, True)])
def test_collect_rejects_windows_that_are_not_whole_seconds(cbr_run, window):
    with pytest.raises(ValueError, match="whole seconds"):
        collect(cbr_run, window)


def test_window_totals_match_series(cbr_run):
    report = collect(cbr_run, (1, 3))
    assert report.window == (1, 3)
    assert report.seconds == [1, 2]
    assert sum(report.series["generated"]) == report.generated
    assert sum(report.series["delivered"]) == report.delivered
    assert sum(report.series["bitrate_bps"]) == pytest.approx(
        report.bytes_received * 8.0)
    # 100 packets/s of constant traffic, no losses
    assert report.series["generated"] == [100, 100]
    assert report.drop_ratio == 0.0
    assert report.conserved


def test_flow_reports_are_windowed(cbr_run):
    full = collect(cbr_run, (0, 4))
    flow = next(f for f in full.flows if f.label == "cbr")
    assert flow.sent == full.generated
    assert flow.delivered == full.delivered
    assert flow.drops_total == 0
    assert set(flow.sec_bitrate_bps) == {0, 1, 2, 3}

    tail = collect(cbr_run, (3, 4)).flows[0]
    assert tail.sent == 100


def test_link_utilization_series(cbr_run):
    report = collect(cbr_run, (1, 3))
    # 0.8 Mbit/s of goodput over a 10 Mbit/s core link
    assert report.link_utilization["R1->R2"] == pytest.approx([0.08, 0.08])
    assert report.link_utilization["R2->R1"] == [0.0, 0.0]
    assert set(report.link_utilization) == {
        f"{dl.src}->{dl.dst}" for dl in cbr_run.topo.directed}


def test_scalar_export_and_emitters(cbr_run):
    report = collect(cbr_run)
    scalars = report.scalars()
    assert scalars["generated"] == float(report.generated)
    assert scalars["drop_ratio"] == 0.0

    blob = json.loads(report_json(report))
    assert blob["name"] == "cbr"
    assert blob["scalars"]["delivered"] == report.delivered
    assert blob["conserved"] is True

    assert metrics_csv(report).splitlines()[0] == \
        "second,generated,delivered,bitrate_bps,drops,delay_avg_ms,delay_max_ms"
    assert len(metrics_csv(report).splitlines()) == 1 + 4
    assert flows_csv(report).count("cbr") == 1
    assert "R1->R2" in links_csv(report)


def test_mean_std():
    assert mean_std([5.0]) == (5.0, 0.0)
    mean, std = mean_std([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert std == pytest.approx(1.0)


# -- summary tables -----------------------------------------------------------

def stub_report(name, **over):
    base = dict(
        name=name, famtar_enabled=name.endswith(".famtar"), seed=1,
        window=(0, 10), duration_s=10, generated=1000, delivered=900,
        dropped=100, drops_by_reason={}, bytes_received=900_000,
        avg_bitrate_bps=720_000.0, drop_ratio=0.1, delay_min_ms=1.0,
        delay_avg_ms=2.0, delay_max_ms=3.0, seconds=list(range(10)),
        series={}, flows=[], link_utilization={},
        conservation={}, conserved=True, event_log_hash="0" * 64)
    base.update(over)
    return MetricsReport(**base)


def experiment(name, **over):
    return ExperimentResult(name=name, famtar_enabled=name.endswith(".famtar"),
                            seeds=[1], reports=[stub_report(name, **over)])


def row_of(table, metric):
    return next(line for line in table.splitlines() if line.startswith(metric))


def test_summary_reports_drop_regressions_as_negative_gain():
    table = emit_summary(experiment("s4.ip", dropped=3841.9),
                         experiment("s4.famtar", dropped=4656.2))
    row = row_of(table, "dropped")
    assert "3841.9 ± 0.0" in row
    assert "4656.2 ± 0.0" in row
    assert "-814.3" in row
    assert "-21.2%" in row


def test_summary_reports_throughput_gain_as_positive():
    table = emit_summary(experiment("s1.ip", avg_bitrate_bps=8.7),
                         experiment("s1.famtar", avg_bitrate_bps=16.7))
    row = row_of(table, "avg_bitrate_bps")
    assert "+8.0" in row
    assert "+92.0%" in row


def test_summary_of_identical_inputs_is_zero_gain():
    table = emit_summary(experiment("s.ip"), experiment("s.famtar"))
    for metric in ("delivered", "dropped", "drop_ratio", "avg_bitrate_bps",
                   "delay_avg_ms", "delay_max_ms"):
        row = row_of(table, metric)
        assert "0.0 " in row         # zero difference, whatever the sign
        assert row.endswith("0.0%")


def test_summary_treats_lower_delay_as_gain():
    table = emit_summary(experiment("s.ip", delay_avg_ms=2.0),
                         experiment("s.famtar", delay_avg_ms=1.0))
    row = row_of(table, "delay_avg_ms")
    assert "+1.0" in row and "+50.0%" in row


def test_summary_header_and_pairing():
    table = emit_summary(experiment("s.ip"), experiment("s.famtar"))
    header = table.splitlines()[0]
    for column in ("Metric", "Without FAMTAR", "With FAMTAR",
                   "Average difference", "Relative gain"):
        assert column in header
    with pytest.raises(ValueError):
        emit_summary(experiment("a.ip"), experiment("b.famtar"))


def test_pair_root():
    assert pair_root("scenario1-k1.ip") == "scenario1-k1"
    assert pair_root("scenario1-k1.famtar") == "scenario1-k1"
    assert pair_root("other") == "other"
    assert pair_root(".ip") == ".ip"


def test_diff_report_dicts():
    a = experiment("s.ip").to_json_dict()
    assert diff_report_dicts(a, a) == []

    b = experiment("s.ip", delivered=900 * 1.06).to_json_dict()
    violations = diff_report_dicts(a, b)
    assert len(violations) == 1 and violations[0].startswith("delivered")
    assert diff_report_dicts(a, b, rel_tol=0.10) == []

    c = experiment("s.famtar").to_json_dict()
    assert any(v.startswith("name") for v in diff_report_dicts(a, c))
