"""Record the simulated statistics every workload must reproduce.

    python3 perfbench/record_expected.py

Runs each workload once at the default seed and writes expected.json next
to this file.  Re-record only for a deliberate change of simulated
behaviour, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, require_program


def main() -> int:
    require_program()
    import pipeline
    import workloads

    recorded = {}
    for name, make in workloads.WORKLOADS.items():
        rep = pipeline.run_repetition(make(workloads.DEFAULT_SEED))
        errors = pipeline.problems(rep)
        if errors:
            sys.stderr.write(f"{name}: {errors}\n")
            return 1
        recorded[name] = pipeline.statistics(rep)
        print(f"{name}: {rep.result.generated} packets, "
              f"event_log_hash {rep.result.event_log_hash}")
    EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
