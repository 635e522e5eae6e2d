"""Acceptance checks: the properties the simulator is advertised to have.

Every test in this module evaluates one advertised property end to end and
appends a single PASS/FAIL line to the summary section that conftest prints
after the run.  Tolerances live here, next to the checks, so the expected
behaviour is readable in one place.
"""

import json
import multiprocessing
import random
import time
from pathlib import Path

import pytest

from famtarsim.engine import Engine
from famtarsim.flowtable import FlowTable
from famtarsim.model import FLOW_ENTRY_BYTES, FlowValue, make_flow_key, seconds
from famtarsim.routing import LinkStateDb, spf
from famtarsim.scenario import (build_parallel_paths_topology,
                                bundled_scenario_names, load_bundled,
                                run_experiment, run_scenario)
from famtarsim.traffic import FlowSpec
from helpers import (brute_force_costs, diamond_topology, golden_entry,
                     random_router_topology)

K_RANGE = (1, 2, 3, 4)
VARIANTS = ("ip", "famtar")
GOLDEN = Path(__file__).resolve().parent / "golden" / "bundled.json"


def record(criteria_log, num, label, checks, note=""):
    ok = all(checks.values())
    suffix = f"  ({note})" if note else ""
    criteria_log.append(f"C{num} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"C{num} {label} failed: {', '.join(failed)}"


# -- heavy fixtures (shared across criteria) ----------------------------------

def timed_run(name):
    """One run of a bundled scenario: (report, wall-clock seconds)."""
    spec = load_bundled(name)
    t0 = time.perf_counter()
    result = run_scenario(spec)
    wall = time.perf_counter() - t0
    return result.report(), wall


@pytest.fixture(scope="module")
def scenario1_runs():
    """report + wall-clock seconds for scenario1-k{1..4} x {ip, famtar}.

    The eight runs are independent, so two spawned worker processes share
    them; spawn keeps the workers free of this process's state.
    """
    keys = [(k, variant) for k in K_RANGE for variant in VARIANTS]
    names = [f"scenario1-k{k}.{variant}" for k, variant in keys]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        results = pool.map_async(timed_run, names, chunksize=1).get(timeout=1800)
    return dict(zip(keys, results))


@pytest.fixture(scope="module")
def scenario3_experiments():
    return {variant: run_experiment(load_bundled(f"scenario3.{variant}"),
                                    workers=4)
            for variant in VARIANTS}


@pytest.fixture(scope="module")
def scenario4_runs():
    """Each variant run twice with the same seed (determinism check)."""
    runs = {}
    for variant in VARIANTS:
        spec = load_bundled(f"scenario4.{variant}")
        runs[variant] = (run_scenario(spec, record_paths=True),
                         run_scenario(spec))
    return runs


@pytest.fixture(scope="module")
def loop_run():
    """A constructed transient two-router loop around a link failure.

    One 20 pps flow is pinned H1-R1-R2-R4-H2; R2-R4 fails at 15 s.  The
    packet emitted at 15.05 s reaches R1 after every router has reconverged,
    but R1 still holds the stale pin towards R2 and R2 pins the flow straight
    back -- the packet revisits R1 with a lower TTL, which forces the rewrite
    that ends the loop.
    """
    topo = build_parallel_paths_topology(2)
    flow = FlowSpec(src="H1", dst="H2", rate_bps=16_000, packet_size=100,
                    start=0)
    engine = Engine(topo, [flow], seconds(17), record_paths=True,
                    keep_log=True)
    engine.inject_link_failure("R2-R4", seconds(15.0))
    return engine.run()


# -- criteria ------------------------------------------------------------------

def test_criterion_1_multipath_scaling(scenario1_runs, criteria_log):
    fam = {k: scenario1_runs[(k, "famtar")][0].bytes_received for k in K_RANGE}
    ip = {k: scenario1_runs[(k, "ip")][0].bytes_received for k in K_RANGE}
    ratios = {k: fam[k] / fam[1] for k in K_RANGE}
    ip_spread = (max(ip.values()) - min(ip.values())) / (
        sum(ip.values()) / len(ip))
    walls = [wall for _, wall in scenario1_runs.values()]

    checks = {f"ratio k={k} in [0.85k, 1.1k]": 0.85 * k <= ratios[k] <= 1.1 * k
              for k in (2, 3, 4)}
    checks["baseline varies < 5% across k"] = ip_spread < 0.05
    checks["every run under 2 min"] = max(walls) < 120.0
    record(criteria_log, 1, "multipath throughput scaling", checks,
           note="ratios " + "/".join(f"{ratios[k]:.2f}" for k in (2, 3, 4)))


def test_criterion_2_drop_reduction(scenario1_runs, criteria_log):
    dr = {k: scenario1_runs[(k, "famtar")][0].drop_ratio for k in K_RANGE}
    checks = {f"drop ratio decreases k={k}->k={k + 1}": dr[k + 1] < dr[k]
              for k in (1, 2, 3)}
    checks["k=4 below a quarter of k=1"] = dr[4] < 0.25 * dr[1]
    record(criteria_log, 2, "drop ratio falls with added paths", checks,
           note="/".join(f"{dr[k]:.3f}" for k in K_RANGE))


def test_criterion_3_delay_ordering(scenario1_runs, criteria_log):
    fam = {k: scenario1_runs[(k, "famtar")][0].delay_avg_ms for k in K_RANGE}
    ip = {k: scenario1_runs[(k, "ip")][0].delay_avg_ms for k in K_RANGE}
    checks = {f"non-increasing k={k}->k={k + 1}": fam[k + 1] <= fam[k]
              for k in (1, 2, 3)}
    checks.update({f"below baseline at k={k}": fam[k] < ip[k]
                   for k in (2, 3, 4)})
    record(criteria_log, 3, "average delay ordering", checks,
           note="/".join(f"{fam[k]:.1f}ms" for k in K_RANGE))


def test_criterion_4_voip_protection(scenario3_experiments, criteria_log):
    spec = load_bundled("scenario3.ip")
    flows = spec.workload().flows
    nominal = flows[0].rate_bps                     # the voip flow
    waves = [f for f in flows if f.label != "voip"]

    def background_bps(s):
        lo, hi = seconds(s), seconds(s + 1)
        return sum(f.rate_bps for f in waves
                   if f.start <= lo and (f.stop is None or f.stop >= hi))

    hot = [s for s in range(110) if background_bps(s) > 10_000_000]
    interior = range(2, 108)
    checks = {"background really exceeds 10 Mbit/s": bool(hot)}
    for rep_ip, rep_fam in zip(scenario3_experiments["ip"].reports,
                               scenario3_experiments["famtar"].reports):
        voip_ip = rep_ip.flow_by_label("voip")[0]
        voip_fam = rep_fam.flow_by_label("voip")[0]
        seed = rep_ip.seed
        checks[f"s{seed}: baseline loses >= 20 pps under load"] = \
            max(voip_ip.sec_drops.get(s, 0) for s in hot) >= 20
        checks[f"s{seed}: famtar loses <= 2 pps anywhere"] = \
            max(voip_fam.sec_drops.get(s, 0) for s in range(110)) <= 2
        checks[f"s{seed}: famtar bitrate floor >= 95%"] = \
            min(voip_fam.sec_bitrate_bps.get(s, 0.0)
                for s in interior) >= 0.95 * nominal
        checks[f"s{seed}: baseline floor <= 60%"] = \
            min(voip_ip.sec_bitrate_bps.get(s, 0.0)
                for s in interior) <= 0.60 * nominal
        checks[f"s{seed}: famtar voip delay stays lower"] = \
            voip_fam.delay_avg_ms < voip_ip.delay_avg_ms
        checks[f"s{seed}: famtar delay plateaus under load"] = \
            max(voip_fam.sec_delay_avg_ms.get(s, 0.0) for s in hot) < \
            max(voip_ip.sec_delay_avg_ms.get(s, 0.0) for s in hot)
    record(criteria_log, 4, "voip protected during congestion", checks,
           note=f"{len(scenario3_experiments['ip'].reports)} reps")


def test_criterion_5_failure_restoration(scenario4_runs, criteria_log):
    reports = {v: scenario4_runs[v][0].report() for v in VARIANTS}
    checks = {}
    for variant, rep in reports.items():
        drop_secs = {s for s, d in zip(rep.seconds, rep.series["drops"]) if d}
        checks[f"{variant}: loss confined to failure instant"] = \
            drop_secs <= {15, 16}
        checks[f"{variant}: loss back to zero within 1 s"] = all(
            d == 0 for s, d in zip(rep.seconds, rep.series["drops"])
            if s >= 17)
        checks[f"{variant}: full rate after restoration"] = all(
            rep.series["delivered"][s] >= 5000 for s in range(17, 30))
        checks[f"{variant}: no packet ran out of ttl"] = \
            "ttl_expired" not in rep.drops_by_reason
        traces = scenario4_runs[variant][0].traces
        post = [p for (fid, seq), p in traces.items()
                if seq >= 90_000 and p[-1] == "H2"]
        checks[f"{variant}: restored onto the surviving path"] = \
            bool(post) and all(p == ["H1", "R1", "R3", "R4", "H2"]
                               for p in post)
    ip_drop, fam_drop = reports["ip"].dropped, reports["famtar"].dropped
    overshoot = (fam_drop - ip_drop) / ip_drop
    checks["famtar drop overshoot within [0%, 50%]"] = 0.0 <= overshoot <= 0.5
    record(criteria_log, 5, "single-flow failure restoration", checks,
           note=f"drops ip {ip_drop} / famtar {fam_drop}")


def test_criterion_6_loop_resolution(loop_run, criteria_log):
    res = loop_run
    complete = {seq: path for (fid, seq), path in res.traces.items()
                if path and path[-1] == "H2"}
    looping = {seq: path for seq, path in complete.items()
               if len(set(path)) < len(path)}
    loop_seq = max(looping, default=None)
    loop_routers = set()
    for path in looping.values():
        loop_routers |= {n for n in path if path.count(n) > 1}
    rewrites = res.log.of_kind("fft_rewrite")
    last_convergence = max(t for t, _, _ in res.log.of_kind("spf_install"))
    # a rewrite only counts against the loop when it changed the egress
    rewrites_by_router = {}
    for t, _, (rid, _fid, old_port, new_port) in rewrites:
        if old_port != new_port:
            rewrites_by_router[rid] = rewrites_by_router.get(rid, 0) + 1

    checks = {
        "run is conserved": res.conserved(),
        "only the in-flight packet was lost": res.drops == {"link_down": 1},
        "exactly one packet revisited a router": len(looping) == 1,
        "it revisited one router exactly once": all(
            sorted(path.count(n) for n in set(path))[-2:] == [1, 2]
            for path in looping.values()),
        "one egress-changing rewrite per looping router": all(
            rewrites_by_router.get(r, 0) == 1 for r in loop_routers)
            and set(rewrites_by_router) == loop_routers,
        "the rewrite happened after global convergence": all(
            t > last_convergence for t, _, _ in rewrites),
        "every later packet took a simple path": all(
            len(set(p)) == len(p) for seq, p in complete.items()
            if loop_seq is not None and seq > loop_seq),
        "the flow settled on the surviving path": all(
            p == ["H1", "R1", "R3", "R4", "H2"]
            for seq, p in complete.items()
            if loop_seq is not None and seq > loop_seq),
    }
    note = ""
    if looping:
        note = "loop path " + "-".join(looping[loop_seq])
    record(criteria_log, 6, "transient loop resolved by ttl", checks, note)


def test_criterion_7_fft_properties(criteria_log):
    checks = {}

    # pinning + congested-link avoidance, observed end to end
    hot = FlowSpec(src="H1", dst="H2", rate_bps=9_600_000, packet_size=1000,
                   start=0, label="hot")
    late = FlowSpec(src="H1", dst="H2", rate_bps=800_000, packet_size=1000,
                    start=seconds(1.5), label="late")
    res = Engine(diamond_topology(), [hot, late], seconds(3.0),
                 record_paths=True, keep_log=True).run()
    r1_to_r2 = res.topo.directed_between("R1", "R2").index
    escalations = [(i, t) for i, t, up in res.congestion_events if up]
    hot_paths = [p for (fid, seq), p in res.traces.items()
                 if fid == 0 and p[-1] == "H2"]
    late_paths = [p for (fid, seq), p in res.traces.items()
                  if fid == 1 and p[-1] == "H2"]
    checks["hot link cost escalated at the first tick"] = \
        (r1_to_r2, seconds(1.0)) in escalations
    checks["pinned flow never leaves its path"] = \
        hot_paths and all(p == ["H1", "R1", "R2", "R4", "H2"] for p in hot_paths)
    checks["post-escalation flow avoids the hot link"] = \
        late_paths and all(p == ["H1", "R1", "R3", "R4", "H2"]
                           for p in late_paths)

    # purge-on-failure and the 5 s admission block
    table = FlowTable(seconds(10.0))
    keys = [make_flow_key(0x0A000001, 0x0A000002, 20_000 + i, 9000, 17)
            for i in range(3)]
    for i, key in enumerate(keys):
        table.insert(key, FlowValue(0, port=1 if i < 2 else 2,
                                    gateway=0x0A000003, ttl=63), 0)
    checks["purge removes exactly the pinned flows"] = \
        table.purge_interface(1) == 2 and table.entry_count == 1
    table.block_interface(1, seconds(1.0), seconds(5.0))
    fresh = FlowValue(seconds(5.0), port=1, gateway=0x0A000003, ttl=63)
    checks["blocked right up to the deadline"] = (
        not table.insert(keys[0], fresh, seconds(5.999999))
        and table.lookup(keys[0], seconds(5.999999)) is None)
    checks["block lifts exactly at 5 s"] = (
        table.insert(keys[0],
                     FlowValue(seconds(6.0), port=1, gateway=0x0A000003,
                               ttl=63), seconds(6.0))
        and table.lookup(keys[0], seconds(6.0)).port == 1)

    # lazy garbage collection: a colliding insert reclaims expired entries
    gc_table = FlowTable(seconds(10.0), buckets=1)
    gc_table.insert(keys[0], FlowValue(0, 0, 0x0A000003, 63), 0)
    gc_table.insert(keys[1], FlowValue(seconds(11.0), 0, 0x0A000003, 63),
                    seconds(11.0))
    checks["collision sweeps the expired entry"] = gc_table.entry_count == 1

    # fixed per-flow footprint
    foot = FlowTable(seconds(10.0))
    for key in keys:
        foot.insert(key, FlowValue(0, 0, 0x0A000003, 63), 0)
    checks["23 bytes per pinned flow"] = (
        FLOW_ENTRY_BYTES == 23 and foot.footprint_bytes == 3 * 23
        and len(keys[0].pack()) + len(FlowValue(0, 0, 0x0A000003, 63).pack())
        == 23)

    record(criteria_log, 7, "flow table property suite", checks)


def test_criterion_8_routing_oracle(criteria_log):
    rng = random.Random(820)
    graphs = 200
    cost_mismatches = 0
    loop_violations = 0
    for _ in range(graphs):
        topo = random_router_topology(rng)
        db = LinkStateDb.from_topology(topo)
        tables = {r: spf(db, r, topo) for r in topo.routers()}
        for source in topo.routers():
            oracle = brute_force_costs(db, topo, source)
            got = {dest: route.cost for dest, route in tables[source].items()}
            if got != oracle:
                cost_mismatches += 1
        for src in topo.routers():
            for dst in tables[src]:
                here, hops = src, 0
                while here != dst and hops <= len(topo.nodes):
                    here = tables[here][dst].next_hop
                    hops += 1
                if here != dst:
                    loop_violations += 1
    checks = {
        "spf equals brute force on every graph": cost_mismatches == 0,
        "quiescent next-hop chains are loop-free": loop_violations == 0,
    }
    record(criteria_log, 8, "routing oracle equivalence", checks,
           note=f"{graphs} graphs")


def test_criterion_9_conservation_and_determinism(
        scenario1_runs, scenario3_experiments, scenario4_runs, criteria_log):
    reports = [rep for rep, _ in scenario1_runs.values()]
    reports += [r for e in scenario3_experiments.values() for r in e.reports]
    reports += [run.report() for pair in scenario4_runs.values()
                for run in pair]
    checks = {
        "every bundled scenario was exercised":
            {r.name for r in reports} == set(bundled_scenario_names()),
        "conservation holds on every run": all(r.conserved for r in reports),
    }
    for variant, (first, second) in scenario4_runs.items():
        checks[f"{variant}: same seed, same event-log hash"] = \
            first.event_log_hash == second.event_log_hash
    checks["different mechanisms differ in the log"] = \
        scenario4_runs["ip"][0].event_log_hash != \
        scenario4_runs["famtar"][0].event_log_hash
    record(criteria_log, 9, "conservation and determinism", checks,
           note=f"{len(reports)} runs")


def test_criterion_10_golden_digests(
        scenario1_runs, scenario3_experiments, scenario4_runs, criteria_log):
    golden = json.loads(GOLDEN.read_text())
    runs = {rep.name: [rep] for rep, _ in scenario1_runs.values()}
    runs.update({e.name: e.reports for e in scenario3_experiments.values()})
    runs.update({first.name: [first.report()]
                 for first, _ in scenario4_runs.values()})
    checks = {"the goldens cover every bundled scenario":
              set(golden) == set(runs) == set(bundled_scenario_names())}
    for name in sorted(golden):
        got = [golden_entry(rep) for rep in runs.get(name, [])]
        checks[f"{name}: digests and statistics as recorded"] = \
            got == golden[name]
    record(criteria_log, 10, "golden digests unchanged", checks,
           note=f"{sum(len(v) for v in golden.values())} runs")
