"""Workload description and materialization.

A workload is either an explicit list of constant-bit-rate flows or a
randomized batch (Poisson flow arrivals, Pareto flow sizes).  Randomness is
confined to :func:`materialize`, which expands a workload into concrete
:class:`FlowSpec` objects with a single seeded generator — the engine itself
never draws.  Per flow the arrival gap is drawn first, then the size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .model import SimTime, seconds


@dataclass
class FlowSpec:
    """One unidirectional constant-bit-rate packet flow.

    Packet ``i`` is emitted at ``start + round(i * interval)`` with the
    interval kept as an exact float, so long flows do not drift.  A flow
    ends after ``size_bytes`` worth of packets, at ``stop``, or at the end
    of the run — whichever comes first.
    """

    src: str
    dst: str
    rate_bps: float            # bits per second on the wire
    packet_size: int           # bytes
    start: SimTime
    size_bytes: Optional[int] = None
    stop: Optional[SimTime] = None
    label: str = "udp"
    ttl_initial: int = 64

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("flow rate must be positive")
        if self.packet_size <= 0:
            raise ValueError("packet size must be positive")
        if self.start < 0:
            raise ValueError("start must not be negative")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError("flow size must be positive when given")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError("stop must come after start")
        if not 1 <= self.ttl_initial <= 255:
            raise ValueError("initial TTL must be in [1, 255]")

    @property
    def interval_us(self) -> float:
        return self.packet_size * 8 * 1_000_000 / self.rate_bps

    @property
    def n_packets(self) -> Optional[int]:
        if self.size_bytes is None:
            return None
        return max(1, round(self.size_bytes / self.packet_size))

    def emission_time(self, seq: int) -> SimTime:
        return self.start + round(seq * self.interval_us)


@dataclass
class ParetoBatch:
    """Randomized flow batch: Poisson arrivals, bounded-Pareto sizes."""

    count: int
    rate_bps: float
    packet_size: int
    size_mean: float           # bytes
    size_shape: float
    size_cap: float            # bytes
    inter_start_mean: SimTime  # microseconds
    src: str = "H1"
    dst: str = "H2"

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("batch needs at least one flow")
        if self.size_shape <= 1.0:
            raise ValueError("size shape must exceed 1 for a finite mean")
        if self.inter_start_mean <= 0:
            raise ValueError("mean inter-start time must be positive")
        if self.size_cap < self.size_mean:
            raise ValueError("size cap below the mean size")

    @property
    def size_scale(self) -> float:
        # Pareto with mean m and shape a has minimum m * (a - 1) / a
        return self.size_mean * (self.size_shape - 1.0) / self.size_shape


@dataclass
class WorkloadSpec:
    """Deterministic flows plus (optionally) one randomized batch."""

    flows: list[FlowSpec] = field(default_factory=list)
    batch: Optional[ParetoBatch] = None


def materialize(workload: WorkloadSpec, seed: int) -> list[FlowSpec]:
    """Expand a workload into concrete flows, deterministically per seed."""
    flows = list(workload.flows)
    batch = workload.batch
    if batch is None:
        return flows
    rng = random.Random(seed)
    scale = batch.size_scale
    at = 0.0
    for _ in range(batch.count):
        at += rng.expovariate(1.0 / batch.inter_start_mean)
        size = min(scale * rng.paretovariate(batch.size_shape), batch.size_cap)
        flows.append(FlowSpec(
            src=batch.src, dst=batch.dst, rate_bps=batch.rate_bps,
            packet_size=batch.packet_size, start=round(at),
            size_bytes=max(batch.packet_size, round(size))))
    return flows


# --------------------------------------------------------------------------
# Canonical workloads
# --------------------------------------------------------------------------

# Each function's keyword parameters and their defaults are the keys and
# defaults of one workload kind in scenario files.

def elastic_batch_workload(*, src: str = "H1", dst: str = "H2",
                           flows: int = 500,
                           flow_rate_bytes_per_s: float = 100_000.0,
                           packet_size_bytes: int = 1000,
                           size_mean_bytes: float = 1_000_000.0,
                           size_shape: float = 1.25,
                           size_cap_bytes: float = 100_000_000.0,
                           inter_start_mean_s: float = 0.5) -> WorkloadSpec:
    """Poisson arrivals of Pareto-sized file transfers between two hosts.

    Defaults: 500 flows of mean 1 MB (shape 1.25, capped at 100 MB) sending
    1000-byte packets at 100 kB/s, one new flow every 0.5 s on average —
    roughly 16 Mbit/s of offered load once arrivals and departures balance.
    """
    return WorkloadSpec(batch=ParetoBatch(
        count=flows, rate_bps=flow_rate_bytes_per_s * 8,
        packet_size=packet_size_bytes, size_mean=size_mean_bytes,
        size_shape=size_shape, size_cap=size_cap_bytes,
        inter_start_mean=seconds(inter_start_mean_s), src=src, dst=dst))


def voip_vs_waves_workload(*, src: str = "H1", dst: str = "H2",
                           voip_rate_bps: float = 50_000.0,
                           voip_packet_bytes: int = 125,
                           wave_rate_bps: float = 100_000.0,
                           wave_packet_bytes: int = 1000,
                           first_wave: int = 50, first_wave_start_s: float = 6.0,
                           second_wave: int = 150, second_wave_start_s: float = 25.0,
                           second_wave_stop_s: float = 70.0,
                           spacing_s: float = 0.2) -> WorkloadSpec:
    """One long VoIP call (50 pps) against two waves of constant UDP flows.

    The first wave (50 flows from 6 s) fills the cheap path; the second
    (150 flows from 25 s, leaving again from 70 s in start order) overloads
    it.  All flows are deterministic, evenly spaced ``spacing_s`` apart.
    """
    flows = [FlowSpec(src=src, dst=dst, rate_bps=voip_rate_bps,
                      packet_size=voip_packet_bytes, start=0, label="voip")]
    spacing = seconds(spacing_s)
    for i in range(first_wave):
        flows.append(FlowSpec(src=src, dst=dst, rate_bps=wave_rate_bps,
                              packet_size=wave_packet_bytes,
                              start=seconds(first_wave_start_s) + i * spacing))
    for i in range(second_wave):
        flows.append(FlowSpec(src=src, dst=dst, rate_bps=wave_rate_bps,
                              packet_size=wave_packet_bytes,
                              start=seconds(second_wave_start_s) + i * spacing,
                              stop=seconds(second_wave_stop_s) + i * spacing))
    return WorkloadSpec(flows=flows)


def single_cbr_workload(*, src: str = "H1", dst: str = "H2",
                        rate_bps: float = 2_840_000.0,
                        packet_size_bytes: int = 64,
                        start_s: float = 0.0) -> WorkloadSpec:
    """One constant stream, by default 2.84 Mbit/s of 64-byte packets."""
    return WorkloadSpec(flows=[FlowSpec(
        src=src, dst=dst, rate_bps=rate_bps, packet_size=packet_size_bytes,
        start=seconds(start_s))])
