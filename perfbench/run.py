"""famtarsim host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout: the simulator is imported from the
``src/`` directory next to this one, never from an installed copy.  Each
workload prints one human-readable row and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own process, one
after the other.  See README.md in this directory for what is measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 25
CHILD_TIMEOUT_S = 900


def require_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit if it is missing.

    The modules next to this one import famtarsim, so the functions below
    import them only after this has run.
    """
    if not (SRC / "famtarsim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no famtarsim sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description="famtarsim host-time benchmark")
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workloads' default seed)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="how long the timed repetitions run, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one untraced and one traced repetition, "
                         "reporting the per-layer metrics")
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a few simulated seconds")
    return ap.parse_args(argv)


class Checker:
    """Counts attempted and failed repetitions of one workload and seed."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.hash = None

    def run(self, raw):
        """One repetition of ``raw``; None if it raised or its outputs are wrong."""
        import pipeline
        self.attempted += 1
        try:
            rep = pipeline.run_repetition(raw)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        errors = pipeline.problems(rep)
        digest = rep.result.event_log_hash
        if self.hash is None:
            self.hash = digest
        elif digest != self.hash:
            errors.append(f"event_log_hash {digest} differs from {self.hash} "
                          "of an earlier repetition of this seed")
        if self.expected is not None:
            errors.extend(pipeline.diff_statistics(pipeline.statistics(rep),
                                                   self.expected))
        if errors:
            for line in errors:
                sys.stderr.write(f"perfbench: incorrect run: {line}\n")
            self.failed += 1
            return None
        return rep

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def measure(raw, seconds: float, checker: Checker):
    """End-to-end metrics as name -> (value, unit, sample count), untraced."""
    import pipeline
    from tracing import Tracer

    # warm-up repetition: fills caches and counts heap events (untimed)
    with Tracer(layers=False) as counter:
        warm = checker.run(raw)
    events = counter.counts["heapq.heappop"]
    if warm is not None and events == 0:
        sys.stderr.write("perfbench: no heap events counted in famtarsim.engine\n")
        checker.failed += 1
    del warm

    setups = [pipeline.time_setup(raw) for _ in range(SETUP_SAMPLES)]
    # keep only the timings, so that peak RSS is that of one repetition
    walls, run_times, generated = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rep = checker.run(raw)
        if rep is not None:
            walls.append(rep.wall_s)
            run_times.append(rep.run_s)
            generated.append(rep.result.generated)
        del rep
    if not walls:
        return {}
    n = len(walls)
    return {
        "wall_s": (statistics.median(walls), "s", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "pkts_per_s": (statistics.median(g / t for g, t in zip(generated, run_times)),
                       "packets/s", n),
        "events_per_s": (statistics.median(events / t for t in run_times),
                         "events/s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB", 1),
    }


def measure_traced(raw, checker: Checker):
    """Per-layer metrics of one traced repetition, after an untraced one.

    Returns the metrics and the aggregated span table.
    """
    from tracing import Tracer, layer_metrics

    plain = checker.run(raw)
    with Tracer() as tracer:
        traced = checker.run(raw)
    if plain is None or traced is None:
        return {}, []
    metrics = {name: (value, unit, 1)
               for name, (value, unit) in layer_metrics(tracer).items()}
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s", 1)
    metrics["trace.calls"] = (tracer.calls(), "count", 1)
    return metrics, tracer.table()


def run_one(args) -> int:
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    raw = workloads.WORKLOADS[args.workload](seed, args.tiny)
    expected = None
    if seed == workloads.DEFAULT_SEED and not args.tiny:
        recorded = json.loads(EXPECTED.read_text())
        expected = recorded[args.workload]
    checker = Checker(expected)
    if args.trace:
        metrics, table = measure_traced(raw, checker)
        print("\n".join(table))
    else:
        metrics = measure(raw, args.seconds, checker)
    cells = [f"{name}={value if isinstance(value, int) else f'{value:.6g}'} {unit}"
             + (f" (median of {n})" if n > 1 else "")
             for name, (value, unit, n) in metrics.items()]
    print(f"{args.workload} seed={seed} trace={args.trace} " + " ".join(cells)
          + f" error_rate={checker.error_rate:.6g} ratio"
          f" ({checker.failed} of {checker.attempted} runs failed)")
    print(json.dumps({
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if metrics else 1


def run_all(args, names) -> int:
    """Each workload in a process of its own, so peak RSS is its own."""
    results = {}
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        out = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in out[:-1]))
        sys.stdout.flush()
        results[name] = json.loads(out[-1]) if out else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    require_program()
    import workloads

    names = list(workloads.WORKLOADS)
    args = parse_args(argv, names)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
