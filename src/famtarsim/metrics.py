"""Measurement: per-run counters, per-second series and report assembly.

The collector is fed by the engine while the run executes; :func:`collect`
then reduces it to a plain-data :class:`MetricsReport` restricted to a
measurement window (whole seconds, half-open ``[start, end)``).  Reports are
picklable and JSON-friendly so repetitions can run in worker processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .model import US_PER_S, SimTime


# the fields of one per-second row of one flow
SENT, DELIVERED, BYTES, DROPS, DELAY_SUM, DELAY_MAX, DELAY_MIN = range(7)
_NO_DELAY = 1 << 62  # DELAY_MIN of a row without deliveries; above any delay


def _new_row() -> list[int]:
    return [0, 0, 0, 0, 0, 0, _NO_DELAY]


class MetricsCollector:
    """Accumulates everything the engine measures, with O(1) record calls.

    Each flow keeps one sparse row per whole second in which it sent, lost
    or received anything; :func:`collect` derives the run-wide series from
    those rows, so every fact is written once.  Link bytes are kept per
    directed link and second; drops by reason are the engine's own counts.
    """

    def __init__(self, duration_s: int, flows, n_directed: int):
        self.duration_s = duration_s
        n_bins = duration_s + 1  # defensive slot for events at the very end
        self.rows: list[dict[int, list[int]]] = [{} for _ in flows]
        self.link_bytes = [[0] * n_bins for _ in range(n_directed)]

    def record_emit(self, flow_id: int, now: SimTime) -> None:
        rows = self.rows[flow_id]
        s = now // US_PER_S
        row = rows.get(s)
        if row is None:
            row = rows[s] = _new_row()
        row[0] += 1  # SENT

    def record_deliver(self, flow_id: int, now: SimTime, delay: SimTime,
                       size: int) -> None:
        rows = self.rows[flow_id]
        s = now // US_PER_S
        row = rows.get(s)
        if row is None:
            row = rows[s] = _new_row()
        row[1] += 1  # DELIVERED
        row[2] += size  # BYTES
        row[4] += delay  # DELAY_SUM
        if delay > row[5]:  # DELAY_MAX
            row[5] = delay
        if delay < row[6]:  # DELAY_MIN
            row[6] = delay

    def record_drop(self, flow_id: int, now: SimTime) -> None:
        rows = self.rows[flow_id]
        s = now // US_PER_S
        row = rows.get(s)
        if row is None:
            row = rows[s] = _new_row()
        row[3] += 1  # DROPS

    def record_link_bytes(self, dl_index: int, now: SimTime, size: int) -> None:
        self.link_bytes[dl_index][now // US_PER_S] += size


@dataclass
class FlowReport:
    """Windowed view of one flow (all time fields in milliseconds)."""

    flow_id: int
    label: str
    src: str
    dst: str
    sent: int
    delivered: int
    bytes: int
    drops_total: int
    delay_avg_ms: Optional[float]
    delay_max_ms: Optional[float]
    sec_drops: dict[int, int]
    sec_bitrate_bps: dict[int, float]
    sec_delay_avg_ms: dict[int, float]


@dataclass
class MetricsReport:
    """Plain-data summary of one run over one measurement window."""

    name: str
    famtar_enabled: bool
    seed: int
    window: tuple[int, int]
    duration_s: int
    generated: int
    delivered: int
    dropped: int
    drops_by_reason: dict[str, int]
    bytes_received: int
    avg_bitrate_bps: float
    drop_ratio: float
    delay_min_ms: Optional[float]
    delay_avg_ms: Optional[float]
    delay_max_ms: Optional[float]
    seconds: list[int]
    series: dict[str, list]
    flows: list[FlowReport]
    link_utilization: dict[str, list[float]]
    conservation: dict[str, int]
    conserved: bool
    event_log_hash: str

    def scalars(self) -> dict[str, Optional[float]]:
        """Flat numeric summary used for aggregation and run-to-run diffs."""
        return {
            "generated": float(self.generated),
            "delivered": float(self.delivered),
            "dropped": float(self.dropped),
            "bytes_received": float(self.bytes_received),
            "avg_bitrate_bps": self.avg_bitrate_bps,
            "drop_ratio": self.drop_ratio,
            "delay_min_ms": self.delay_min_ms,
            "delay_avg_ms": self.delay_avg_ms,
            "delay_max_ms": self.delay_max_ms,
        }

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "famtar_enabled": self.famtar_enabled,
            "seed": self.seed,
            "window": list(self.window),
            "duration_s": self.duration_s,
            "scalars": self.scalars(),
            "drops_by_reason": self.drops_by_reason,
            "conservation": self.conservation,
            "conserved": self.conserved,
            "event_log_hash": self.event_log_hash,
        }
        return d


def collect(result, window: Optional[tuple[int, int]] = None) -> MetricsReport:
    """Reduce a finished run to a report over ``window`` (whole seconds).

    ``window`` defaults to the run's own measurement window; its bounds must
    be ``int`` (``bool`` is not) with ``0 <= start < end <= duration``.
    """
    col: MetricsCollector = result.collector
    if window is None:
        window = result.default_window
    start, end = window
    if not (type(start) is type(end) is int and 0 <= start < end <= col.duration_s):
        raise ValueError(f"window {window} is not whole seconds within the "
                         f"{col.duration_s}s run")
    secs = list(range(start, end))
    span = end - start

    # run-wide per-second series, summed over the flows' rows in the window
    totals = [_new_row() for _ in secs]
    flow_reports = []
    for fid, rows in enumerate(col.rows):
        spec = result.flows[fid]
        window_rows = [(s, rows[s]) for s in secs if s in rows]
        for s, row in window_rows:
            tot = totals[s - start]
            for i in (SENT, DELIVERED, BYTES, DROPS, DELAY_SUM):
                tot[i] += row[i]
            tot[DELAY_MAX] = max(tot[DELAY_MAX], row[DELAY_MAX])
            tot[DELAY_MIN] = min(tot[DELAY_MIN], row[DELAY_MIN])
        received = [(s, row) for s, row in window_rows if row[DELIVERED]]
        w_dcnt = sum(row[DELIVERED] for _, row in received)
        w_dmax = max((row[DELAY_MAX] for _, row in received), default=None)
        flow_reports.append(FlowReport(
            flow_id=fid, label=spec.label, src=spec.src, dst=spec.dst,
            sent=sum(row[SENT] for _, row in window_rows),
            delivered=w_dcnt,
            bytes=sum(row[BYTES] for _, row in received),
            drops_total=sum(row[DROPS] for _, row in window_rows),
            delay_avg_ms=(sum(row[DELAY_SUM] for _, row in received)
                          / w_dcnt / 1000.0) if w_dcnt else None,
            delay_max_ms=(w_dmax / 1000.0) if w_dmax is not None else None,
            sec_drops={s: row[DROPS] for s, row in window_rows if row[DROPS]},
            sec_bitrate_bps={s: row[BYTES] * 8.0 for s, row in received},
            sec_delay_avg_ms={s: row[DELAY_SUM] / row[DELIVERED] / 1000.0
                              for s, row in received},
        ))

    generated = sum(tot[SENT] for tot in totals)
    delivered = sum(tot[DELIVERED] for tot in totals)
    dropped = sum(tot[DROPS] for tot in totals)
    nbytes = sum(tot[BYTES] for tot in totals)
    delay_sum = sum(tot[DELAY_SUM] for tot in totals)
    received = [tot for tot in totals if tot[DELIVERED]]
    delay_max = max((tot[DELAY_MAX] for tot in received), default=None)
    delay_min = min((tot[DELAY_MIN] for tot in received), default=None)

    series = {
        "generated": [tot[SENT] for tot in totals],
        "delivered": [tot[DELIVERED] for tot in totals],
        "bitrate_bps": [tot[BYTES] * 8.0 for tot in totals],
        "drops": [tot[DROPS] for tot in totals],
        "delay_avg_ms": [tot[DELAY_SUM] / tot[DELIVERED] / 1000.0
                         if tot[DELIVERED] else None for tot in totals],
        "delay_max_ms": [tot[DELAY_MAX] / 1000.0 if tot[DELIVERED] else None
                         for tot in totals],
    }

    link_util = {}
    for dl in result.topo.directed:
        name = f"{dl.src}->{dl.dst}"
        counts = col.link_bytes[dl.index]
        link_util[name] = [counts[s] * 8.0 / dl.link.capacity for s in secs]

    return MetricsReport(
        name=result.name, famtar_enabled=result.famtar_enabled,
        seed=result.seed, window=(start, end), duration_s=col.duration_s,
        generated=generated, delivered=delivered, dropped=dropped,
        drops_by_reason=dict(sorted(result.drops.items())),
        bytes_received=nbytes, avg_bitrate_bps=nbytes * 8.0 / span,
        drop_ratio=(dropped / generated) if generated else 0.0,
        delay_min_ms=(delay_min / 1000.0) if delay_min is not None else None,
        delay_avg_ms=(delay_sum / delivered / 1000.0) if delivered else None,
        delay_max_ms=(delay_max / 1000.0) if delay_max is not None else None,
        seconds=secs, series=series, flows=flow_reports,
        link_utilization=link_util,
        conservation=result.conservation(), conserved=result.conserved(),
        event_log_hash=result.event_log_hash)


# --------------------------------------------------------------------------
# Emitters
# --------------------------------------------------------------------------

# The columns of each table.  CSV prints the numbers of the columns in
# _CSV_FORMATS to fixed places; JSONL writes every value as it is.
_COLUMNS = {"metrics": ("second", "generated", "delivered", "bitrate_bps",
                        "drops", "delay_avg_ms", "delay_max_ms"),
            "flows": ("flow_id", "label", "src", "dst", "sent", "delivered",
                      "dropped", "bytes", "delay_avg_ms", "delay_max_ms"),
            "links": ("second", "link", "utilization")}
_CSV_FORMATS = {"bitrate_bps": ".0f", "delay_avg_ms": ".3f",
                "delay_max_ms": ".3f", "utilization": ".6f"}


def _metrics_rows(report: MetricsReport):
    series = [report.series[c] for c in _COLUMNS["metrics"][1:]]
    for i, sec in enumerate(report.seconds):
        yield (sec, *(values[i] for values in series))


def _flows_rows(report: MetricsReport):
    for f in report.flows:
        yield (f.flow_id, f.label, f.src, f.dst, f.sent, f.delivered,
               f.drops_total, f.bytes, f.delay_avg_ms, f.delay_max_ms)


def _links_rows(report: MetricsReport):
    for name in sorted(report.link_utilization):
        for sec, util in zip(report.seconds, report.link_utilization[name]):
            yield (sec, name, util)


TABLES = {"metrics": _metrics_rows, "flows": _flows_rows, "links": _links_rows}


def render(report: MetricsReport, table: str, fmt: str) -> str:
    """One of :data:`TABLES` as ``"csv"`` or ``"jsonl"`` text."""
    columns = _COLUMNS[table]
    rows = TABLES[table](report)
    if fmt == "jsonl":
        return "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
    specs = [_CSV_FORMATS.get(c, "") for c in columns]
    lines = [",".join(columns)]
    lines.extend(",".join("" if v is None else format(v, spec)
                          for v, spec in zip(row, specs)) for row in rows)
    return "\n".join(lines) + "\n"


def metrics_csv(report: MetricsReport) -> str:
    """Per-second aggregate series as CSV."""
    return render(report, "metrics", "csv")


def flows_csv(report: MetricsReport) -> str:
    """Per-flow windowed summary as CSV."""
    return render(report, "flows", "csv")


def links_csv(report: MetricsReport) -> str:
    """Per-second directed-link utilization as CSV (long format)."""
    return render(report, "links", "csv")


def report_json(report: MetricsReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


def mean_std(values: list[float]) -> tuple[float, float]:
    """Sample mean and standard deviation (0.0 when n == 1)."""
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)
