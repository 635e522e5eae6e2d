"""Rewrite bundled.json, the golden digests and statistics of the bundled scenarios.

    PYTHONPATH=src python3 tests/golden/record.py

Every bundled scenario runs at its file seed, once per repetition, exactly as
the acceptance suite runs it; criterion C10 compares those runs against the
file.  Rewrite it only for a deliberate behaviour change, and record the
reason in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from famtarsim.scenario import (bundled_scenario_names, load_bundled,  # noqa: E402
                                run_experiment)
from helpers import golden_entry  # noqa: E402


def main() -> None:
    golden = {}
    for name in bundled_scenario_names():
        experiment = run_experiment(load_bundled(name))
        golden[name] = [golden_entry(r) for r in experiment.reports]
        print(f"{name}: {len(experiment.reports)} run(s)", file=sys.stderr)
    (HERE / "bundled.json").write_text(json.dumps(golden, indent=2, sort_keys=True)
                                       + "\n")


if __name__ == "__main__":
    main()
