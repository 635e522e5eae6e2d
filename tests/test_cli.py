import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from famtarsim.cli import main
from famtarsim.scenario import bundled_scenario_names


@pytest.fixture
def runner():
    return CliRunner()


def tiny_doc(name, famtar=True):
    return {
        "version": 1,
        "name": name,
        "duration_s": 2.0,
        "seed": 3,
        "topology": {"builder": "parallel_paths", "paths": 1},
        "workload": {"kind": "single_cbr", "rate_bps": 800_000.0,
                     "packet_size_bytes": 1000},
        "famtar": {"enabled": famtar},
    }


def write_doc(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


# the output trees of ``run`` on tiny_doc("mini"), recorded byte for byte
PINNED = Path(__file__).parent / "golden" / "cli"
PINNED_RUNS = {"csv": ["--format", "csv"], "jsonl": ["--format", "jsonl"],
               "events": ["--events"]}


def output_tree(runner, tmp_path, mode) -> dict[str, bytes]:
    path = write_doc(tmp_path / "mini.yaml", tiny_doc("mini"))
    out = tmp_path / mode
    result = runner.invoke(main, ["run", "--scenario", path, "--out", str(out),
                                  *PINNED_RUNS[mode]])
    assert result.exit_code == 0, result.output
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_scenarios_lists_bundled(runner):
    result = runner.invoke(main, ["scenarios"])
    assert result.exit_code == 0
    assert result.output.splitlines() == bundled_scenario_names()


def test_validate_accepts_bundled_and_files(runner, tmp_path):
    path = write_doc(tmp_path / "ok.yaml", tiny_doc("ok"))
    result = runner.invoke(main, ["validate", "scenario4.ip", path])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("OK    scenario4.ip")
    assert lines[1].startswith(f"OK    {path}")


def test_validate_flags_broken_files(runner, tmp_path):
    broken = tmp_path / "broken.yaml"
    broken.write_text("version: 1\nname: x\n")   # missing required keys
    result = runner.invoke(main, ["validate", str(broken), "no-such-scenario"])
    assert result.exit_code == 1
    assert result.output.count("FAIL") == 2


def multihomed_doc(name):
    # a valid schema, but host H1 has two links: Topology rejects it
    doc = tiny_doc(name)
    doc["topology"] = {
        "nodes": [{"id": "H1", "kind": "host"}, {"id": "H2", "kind": "host"},
                  {"id": "R1", "kind": "router"}],
        "links": [{"id": "L1", "a": "H1", "b": "R1", "capacity_bps": 1000},
                  {"id": "L2", "a": "H1", "b": "R1", "capacity_bps": 1000},
                  {"id": "L3", "a": "R1", "b": "H2", "capacity_bps": 1000}]}
    return doc


def test_validate_reports_a_topology_error_and_goes_on(runner, tmp_path):
    multi = write_doc(tmp_path / "multi.yaml", multihomed_doc("multi"))
    ok = write_doc(tmp_path / "ok.yaml", tiny_doc("ok"))
    result = runner.invoke(main, ["validate", multi, ok])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[0].startswith(f"FAIL  {multi}: ")
    assert "exactly one link" in lines[0]
    assert lines[1].startswith(f"OK    {ok}")


def test_validate_rejects_parallel_links(runner, tmp_path):
    doc = tiny_doc("parallel")
    doc["topology"] = {
        "nodes": [{"id": "H1", "kind": "host"}, {"id": "H2", "kind": "host"},
                  {"id": "R1", "kind": "router"}, {"id": "R2", "kind": "router"}],
        "links": [{"id": "L1", "a": "H1", "b": "R1", "capacity_bps": 1000},
                  {"id": "L2", "a": "R1", "b": "R2", "capacity_bps": 1000},
                  {"id": "L3", "a": "R2", "b": "R1", "capacity_bps": 1000},
                  {"id": "L4", "a": "R2", "b": "H2", "capacity_bps": 1000}]}
    path = write_doc(tmp_path / "parallel.yaml", doc)
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 1
    assert result.output.startswith(f"FAIL  {path}: ")
    assert "links L2 and L3 both join R2 and R1" in result.output


def test_validate_reports_malformed_yaml(runner, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: [1\nname: x\n")
    result = runner.invoke(main, ["validate", str(bad), "scenario4.ip"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[0].startswith(f"FAIL  {bad}: ")
    assert lines[1].startswith("OK    scenario4.ip")


@pytest.mark.parametrize("failure", [
    {"link": "R1-R2", "down_at_s": 1.9999996},
    {"link": "R1-R2", "down_at_s": 1.0, "up_at_s": 1.0000004},
])
def test_validate_rejects_failure_times_that_round_out_of_range(runner, tmp_path,
                                                                failure):
    doc = tiny_doc("late")
    doc["failures"] = [failure]
    path = write_doc(tmp_path / "late.yaml", doc)
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 1
    assert result.output.startswith(f"FAIL  {path}: ")


@pytest.mark.parametrize("workload", [
    {"kind": "pareto_batch", "size_mean_bytes": 5000, "size_cap_bytes": 1000},
    {"kind": "voip_waves", "second_wave_start_s": 1.0, "second_wave_stop_s": 1.0},
    {"kind": "custom", "flows": [{"src": "H1", "dst": "H2", "rate_bps": 800_000,
                                  "packet_size_bytes": 1000, "start_s": 1.0,
                                  "stop_s": 0.5}]},
    # source ports 20000 + i stop at 65535: 45,536 flows fit
    {"kind": "pareto_batch", "flows": 50_000, "inter_start_mean_s": 0.00001},
    {"kind": "custom", "flows": [{"src": "H1", "dst": "H2", "rate_bps": 800_000,
                                  "packet_size_bytes": 1000, "start_s": 1.0}]
     * 45_537},  # one object, so the file holds it once and 45,536 aliases
], ids=["size-cap-below-mean", "wave-stops-at-start", "flow-stops-before-start",
        "batch-beyond-source-ports", "custom-beyond-source-ports"])
def test_validate_builds_the_workload(runner, tmp_path, workload):
    # each passes the schema, but its flows cannot be built or run
    doc = tiny_doc("unbuildable")
    doc["workload"] = workload
    path = write_doc(tmp_path / "unbuildable.yaml", doc)
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 1
    assert result.output.startswith(f"FAIL  {path}: ")


@pytest.mark.parametrize("where, value", [
    ("duration_s", float("inf")),
    ("famtar/block_duration_s", float("inf")),
    ("failures/0/down_at_s", float("inf")),
    ("workload/rate_bps", float("inf")),
    ("workload/rate_bps", float("nan")),
    ("routing/flood_hop_delay_ms", float("inf")),
    ("famtar/congest_threshold", float("nan")),
])
def test_validate_rejects_numbers_that_are_not_finite(runner, tmp_path, where, value):
    # validate never runs the engine, so a rate of .inf cannot hang this test
    doc = tiny_doc("unbounded")
    doc["failures"] = [{"link": "R1-R2", "down_at_s": 1.0}]
    *parents, leaf = [int(k) if k.isdigit() else k for k in where.split("/")]
    node = doc
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[leaf] = value
    path = write_doc(tmp_path / "unbounded.yaml", doc)
    result = runner.invoke(main, ["validate", path, "scenario4.famtar"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    lines = result.output.splitlines()
    assert lines[0] == f"FAIL  {path}: number at {where} is not finite"
    assert lines[1].startswith("OK    scenario4.famtar")


INTEGRAL_FLOATS = {
    "paths": ({"topology": {"builder": "parallel_paths", "paths": 2.0}},
              "topology/paths: 2.0 is not of type 'integer'"),
    "repetitions": ({"repetitions": 2.0},
                    "repetitions: 2.0 is not of type 'integer'"),
    "window": ({"measurement_window_s": [0.0, 2.0]},
               "measurement_window_s/1: 2.0 is not of type 'integer'"),
    # best_match names the workload, whose oneOf no branch matches
    "seed-queue-packet": ({"seed": 3.0,
                           "topology": {"builder": "parallel_paths", "paths": 1,
                                        "queue_capacity": 50.0},
                           "workload": {"kind": "single_cbr", "rate_bps": 800_000.0,
                                        "packet_size_bytes": 500.0}},
                          "workload: {'kind': 'single_cbr', 'packet_size_bytes': 500.0, "
                          "'rate_bps': 800000.0} is not valid under any of the given "
                          "schemas"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(INTEGRAL_FLOATS))
def test_an_integer_key_takes_no_integral_float(runner, tmp_path, command, case):
    # JSON Schema's integer takes 2.0, which crashed validate or run downstream
    over, named = INTEGRAL_FLOATS[case]
    path = write_doc(tmp_path / "integral.yaml", {**tiny_doc("integral"), **over})
    args = ["validate", path] if command == "validate" else ["run", "--scenario", path]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    prefix = "FAIL  " if command == "validate" else "Error: "
    assert result.output.splitlines() == [f"{prefix}{path}: schema violation at {named}"]


def test_run_rejects_a_rate_that_is_not_a_number(runner, tmp_path):
    doc = tiny_doc("nan")
    doc["workload"]["rate_bps"] = float("nan")
    path = write_doc(tmp_path / "nan.yaml", doc)
    result = runner.invoke(main, ["run", "--scenario", path])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {path}: number at workload/rate_bps is not finite" in result.output


def test_run_turns_a_bad_file_into_an_error_message(runner, tmp_path):
    multi = write_doc(tmp_path / "multi.yaml", multihomed_doc("multi"))
    result = runner.invoke(main, ["run", "--scenario", multi])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"Error: {multi}: " in result.output


def test_suite_turns_a_bad_file_into_an_error_message(runner, tmp_path):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    write_doc(scen_dir / "a.yaml", tiny_doc("a"))
    (scen_dir / "b.yaml").write_text("version: [1\n")
    result = runner.invoke(main, ["suite", str(scen_dir)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: " in result.output and "b.yaml" in result.output


def test_run_events_needs_out(runner, tmp_path):
    path = write_doc(tmp_path / "mini.yaml", tiny_doc("mini"))
    result = runner.invoke(main, ["run", "--scenario", path, "--events"])
    assert result.exit_code == 2
    assert "--events needs --out" in result.output


@pytest.mark.parametrize("command", [["run", "--scenario", "scenario4.famtar"],
                                     ["suite"]])
@pytest.mark.parametrize("option", [["--repetitions", "0"], ["--seed", "-3"],
                                    ["--workers", "0"], ["--workers", "-1"]])
def test_out_of_range_numbers_are_usage_errors(runner, command, option):
    result = runner.invoke(main, [*command, *option])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option[0]}'" in result.output


def test_run_writes_reports(runner, tmp_path):
    path = write_doc(tmp_path / "mini.yaml", tiny_doc("mini"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--scenario", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "mini [famtar] x1" in result.output
    assert "conserved=yes" in result.output
    scen = out / "mini"
    assert (scen / "report.json").is_file()
    for name in ("metrics.csv", "flows.csv", "links.csv"):
        assert (scen / "rep0" / name).is_file()
    blob = json.loads((scen / "report.json").read_text())
    assert blob["name"] == "mini"
    assert blob["conserved"] is True
    assert blob["seeds"] == [3]


def test_run_famtar_override_and_jsonl(runner, tmp_path):
    path = write_doc(tmp_path / "mini.yaml", tiny_doc("mini"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--scenario", path, "--famtar", "off",
                                  "--out", str(out), "--format", "jsonl"])
    assert result.exit_code == 0, result.output
    assert "mini [ip] x1" in result.output
    rep = out / "mini" / "rep0"
    rows = [json.loads(line)
            for line in (rep / "metrics.jsonl").read_text().splitlines()]
    assert [r["second"] for r in rows] == [0, 1]
    assert (rep / "flows.jsonl").is_file() and (rep / "links.jsonl").is_file()


def test_run_events_stream(runner, tmp_path):
    path = write_doc(tmp_path / "mini.yaml", tiny_doc("mini"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--scenario", path, "--out", str(out),
                                  "--events"])
    assert result.exit_code == 0, result.output
    events = [json.loads(line) for line in
              (out / "mini" / "rep0" / "events.jsonl").read_text().splitlines()]
    assert events and {"t", "kind", "data"} <= set(events[0])
    assert any(e["kind"] == "deliver" for e in events)


@pytest.mark.parametrize("mode", sorted(PINNED_RUNS))
def test_run_outputs_match_the_pinned_files(runner, tmp_path, mode):
    expected = {p.relative_to(PINNED / mode).as_posix(): p.read_bytes()
                for p in sorted((PINNED / mode).rglob("*")) if p.is_file()}
    assert expected
    assert output_tree(runner, tmp_path, mode) == expected


def test_run_rejects_unknown_scenario(runner):
    result = runner.invoke(main, ["run", "--scenario", "no-such-scenario"])
    assert result.exit_code != 0
    assert "neither a scenario file nor a bundled scenario" in result.output


def test_diff_reports(runner, tmp_path):
    path = write_doc(tmp_path / "mini.yaml", tiny_doc("mini"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert runner.invoke(main, ["run", "--scenario", path, "--out",
                                    str(out)]).exit_code == 0
    rep_a = out_a / "mini" / "report.json"
    rep_b = out_b / "mini" / "report.json"
    result = runner.invoke(main, ["diff", str(rep_a), str(rep_b)])
    assert result.exit_code == 0
    assert "reports match" in result.output

    blob = json.loads(rep_b.read_text())
    blob["aggregate"]["delivered"]["mean"] *= 1.5
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(blob))
    result = runner.invoke(main, ["diff", str(rep_a), str(perturbed)])
    assert result.exit_code == 1
    assert "delivered" in result.output


def test_suite_pairs_and_summarizes(runner, tmp_path):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    write_doc(scen_dir / "pair.ip.yaml", tiny_doc("pair.ip", famtar=False))
    write_doc(scen_dir / "pair.famtar.yaml", tiny_doc("pair.famtar"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["suite", str(scen_dir), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "pair.ip [ip] x1" in result.output
    assert "pair.famtar [famtar] x1" in result.output
    assert "== pair ==" in result.output
    assert "Without FAMTAR" in result.output
    summary = (out / "summary-pair.txt").read_text()
    assert "With FAMTAR" in summary
    assert (out / "pair.ip" / "report.json").is_file()


def test_suite_rejects_empty_directory(runner, tmp_path):
    result = runner.invoke(main, ["suite", str(tmp_path)])
    assert result.exit_code != 0
    assert "no *.yaml scenarios" in result.output


REPORT = {"name": "mini", "aggregate": {"delivered": {"mean": 10.0, "std": 0.0}}}


@pytest.mark.parametrize("text", [
    "{}",                                                   # no name, no aggregate
    "[1, 2]",                                               # not an object
    "not json",
    '{"name": "mini", "aggregate": [1]}',                   # aggregate not a mapping
    '{"name": "mini", "aggregate": {"delivered": {"mean": 1.0}}}',      # no std
    '{"name": "mini", "aggregate": {"delivered": {"mean": "1", "std": 0}}}',
    '{"aggregate": {"delivered": {"mean": 1.0, "std": 0.0}}}',          # no name
])
def test_diff_rejects_what_is_not_a_report(runner, tmp_path, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(REPORT))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for pair in ([str(bad), str(good)], [str(good), str(bad)], [str(bad), str(bad)]):
        result = runner.invoke(main, ["diff", *pair])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"Error: {bad}: not a report.json" in result.output


@pytest.mark.parametrize("option", ["--rel-tol", "--abs-tol"])
def test_diff_rejects_negative_tolerances(runner, tmp_path, option):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(REPORT))
    result = runner.invoke(main, ["diff", str(good), str(good), option, "-0.1"])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    result = runner.invoke(main, ["diff", str(good), str(good), option, "0"])
    assert result.exit_code == 0, result.output
    assert "reports match" in result.output
