"""Command-line front end: run scenarios, validate files, compare reports."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from . import metrics as metrics_mod
from .scenario import (ExperimentResult, ScenarioError, ScenarioSpec,
                       bundled_scenario_names, diff_report_dicts, emit_summary,
                       load_bundled, pair_root, run_experiment)


def _load_spec(ref: str) -> ScenarioSpec:
    """Resolve a scenario reference: a file path or a bundled scenario name.

    Every reason to reject it is raised as a ClickException naming ``ref``.
    """
    if os.path.exists(ref):
        try:
            return ScenarioSpec.load(ref)
        except (ValueError, OSError) as exc:
            raise click.ClickException(f"{ref}: {exc}") from exc
    try:
        return load_bundled(ref)
    except ScenarioError:
        raise click.ClickException(
            f"{ref}: neither a scenario file nor a bundled scenario "
            f"(bundled: {', '.join(bundled_scenario_names())})")


def _load_report(path: str) -> dict:
    """The report.json at ``path``: a JSON object with a ``name`` and an
    ``aggregate`` of numeric ``{mean, std}`` entries.  Else a ClickException."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if "name" in doc and all(type(e[k]) in (int, float)
                                 for e in doc["aggregate"].values() for k in ("mean", "std")):
            return doc
    except (ValueError, LookupError, TypeError, AttributeError):
        pass
    raise click.ClickException(f"{path}: not a report.json (name, numeric aggregate)")


def _run_one(spec: ScenarioSpec, repetitions, seed, famtar, out, fmt,
             workers, events) -> ExperimentResult:
    scen_dir = None if out is None else Path(out) / spec.name
    experiment = run_experiment(spec, repetitions=repetitions, seed_base=seed,
                                famtar=famtar, workers=workers,
                                events_dir=scen_dir if events else None)
    if scen_dir is not None:
        for i, report in enumerate(experiment.reports):
            rep_dir = scen_dir / f"rep{i}"
            rep_dir.mkdir(parents=True, exist_ok=True)
            for table in metrics_mod.TABLES:
                (rep_dir / f"{table}.{fmt}").write_text(
                    metrics_mod.render(report, table, fmt), encoding="utf-8")
        with open(scen_dir / "report.json", "w", encoding="utf-8") as fh:
            json.dump(experiment.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return experiment


def _echo_experiment(experiment: ExperimentResult) -> None:
    agg = experiment.aggregate()
    mode = "famtar" if experiment.famtar_enabled else "ip"
    parts = [f"{experiment.name} [{mode}] x{experiment.repetitions}"]
    for key in ("delivered", "dropped", "drop_ratio", "delay_avg_ms"):
        if key in agg:
            mean, std = agg[key]
            parts.append(f"{key}={mean:.3f}±{std:.3f}")
    conserved = all(r.conserved for r in experiment.reports)
    parts.append(f"conserved={'yes' if conserved else 'NO'}")
    click.echo("  ".join(parts))


@click.group()
@click.version_option(package_name="famtarsim")
def main() -> None:
    """Flow-aware adaptive multipath routing simulator."""


@main.command()
@click.option("--scenario", required=True,
              help="Scenario file path or bundled scenario name.")
@click.option("--repetitions", type=click.IntRange(min=1), default=None,
              help="Override the scenario's repetition count.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the scenario's base seed.")
@click.option("--famtar", type=click.Choice(["on", "off"]), default=None,
              help="Force the adaptive mechanism on or off.")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory for per-repetition metrics and report.json.")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]),
              default="csv", show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes for repetitions.")
@click.option("--events", is_flag=True,
              help="Also write the full event log (events.jsonl, needs --out).")
def run(scenario, repetitions, seed, famtar, out, fmt, workers, events):
    """Run one scenario (all repetitions) and print its aggregate."""
    if events and out is None:
        raise click.UsageError("--events needs --out")
    spec = _load_spec(scenario)
    override = None if famtar is None else (famtar == "on")
    experiment = _run_one(spec, repetitions, seed, override, out, fmt,
                          workers, events)
    _echo_experiment(experiment)
    if not all(r.conserved for r in experiment.reports):
        raise click.ClickException("packet conservation violated")


@main.command()
@click.argument("directory", required=False,
                type=click.Path(exists=True, file_okay=False))
@click.option("--repetitions", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]),
              default="csv", show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def suite(directory, repetitions, seed, out, fmt, workers):
    """Run every scenario in DIRECTORY (default: the bundled set).

    Scenarios named <root>.ip / <root>.famtar are paired into a comparison
    table after all runs finish.
    """
    refs = (bundled_scenario_names() if directory is None
            else [str(p) for p in sorted(Path(directory).glob("*.yaml"))])
    if not refs:
        raise click.ClickException(f"no *.yaml scenarios in {directory}")
    specs = [_load_spec(ref) for ref in refs]

    experiments: dict[str, ExperimentResult] = {}
    for spec in specs:
        experiment = _run_one(spec, repetitions, seed, None, out, fmt,
                              workers, events=False)
        experiments[spec.name] = experiment
        _echo_experiment(experiment)

    roots: dict[str, dict[str, ExperimentResult]] = {}
    for name, experiment in experiments.items():  # suffix "ip", "famtar" or ""
        root = pair_root(name)
        roots.setdefault(root, {})[name[len(root) + 1:]] = experiment
    for root, pair in sorted(roots.items()):
        if "ip" not in pair or "famtar" not in pair:
            continue
        table = emit_summary(pair["ip"], pair["famtar"])
        click.echo(f"\n== {root} ==")
        click.echo(table, nl=False)
        if out is not None:
            Path(out).mkdir(parents=True, exist_ok=True)
            (Path(out) / f"summary-{root}.txt").write_text(table)

    if not all(r.conserved for e in experiments.values() for r in e.reports):
        raise click.ClickException("packet conservation violated")


@main.command()
@click.argument("scenarios", nargs=-1, required=True)
def validate(scenarios):
    """Validate scenario files (or bundled names) without running them."""
    failed = False
    for ref in scenarios:
        try:
            spec = _load_spec(ref)
        except click.ClickException as exc:
            click.echo(f"FAIL  {exc.message}")
            failed = True
        else:
            click.echo(f"OK    {ref} ({spec.name}, {spec.duration_s}s, "
                       f"seed {spec.seed})")
    if failed:
        sys.exit(1)


@main.command()
@click.argument("report_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("report_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--rel-tol", type=click.FloatRange(min=0), default=0.05, show_default=True)
@click.option("--abs-tol", type=click.FloatRange(min=0), default=1e-9, show_default=True)
def diff(report_a, report_b, rel_tol, abs_tol):
    """Compare two report.json files; exit nonzero outside tolerance."""
    violations = diff_report_dicts(_load_report(report_a), _load_report(report_b),
                                   rel_tol=rel_tol, abs_tol=abs_tol)
    if violations:
        for line in violations:
            click.echo(line)
        sys.exit(1)
    click.echo("reports match within tolerance")


@main.command()
def scenarios():
    """List the bundled scenarios."""
    for name in bundled_scenario_names():
        click.echo(name)
