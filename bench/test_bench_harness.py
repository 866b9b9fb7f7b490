"""Tests of the benchmark itself: input generation, the correctness
checks, span-derived metrics and the metric names in BENCHMARK.json."""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import pytest

import checks
import run
import synth
import worker

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A lattice small enough to run the whole pipeline in a test: two
# benchmark rows and a three-point grid, so CV takes the KKT route.
TINY = synth.Workload(
    name="tiny", why="test", rows=4, cols=4, isolated=1, benchmark="two-rows", gamma_grid="0.01,10,3"
)


def _files(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", ["lattice200-cv", "lattice1000-fixed", "fixture51"])
def test_generator_is_deterministic(tmp_path, name):
    first = synth.write_workload(synth.WORKLOADS[name], 5, tmp_path / "a", ROOT).parent
    again = synth.write_workload(synth.WORKLOADS[name], 5, tmp_path / "b", ROOT).parent
    other = synth.write_workload(synth.WORKLOADS[name], 6, tmp_path / "c", ROOT).parent
    assert _files(first) == _files(again)
    if name != "fixture51":  # the fixture's data is bundled; only its seed varies
        assert _files(first)["areas.csv"] != _files(other)["areas.csv"]


def test_lattice_shape():
    data = synth.lattice_inputs(3, 5, 2, seed=1)
    assert len(data.labels) == 17
    assert len(data.edges) == 3 * 4 + 2 * 5
    assert data.groups[-2:] == ("ISO", "ISO")
    assert sorted(set(data.groups[:15])) == ["R0", "R1", "R2", "R3"]


@pytest.fixture
def tiny_report(tmp_path):
    from smallarea.pipeline import RunConfig, run_pipeline

    config = synth.write_workload(TINY, 3, tmp_path, ROOT)
    run_pipeline(RunConfig.from_file(config))
    return tmp_path


def test_correct_report_passes(tiny_report):
    problems, facts = checks.check_report(tiny_report)
    assert problems == []
    assert facts["max_gap"] < 1e-10


@pytest.mark.parametrize("column", ["theta_smoothed", "theta_benchmarked"])
def test_perturbed_estimate_fails(tiny_report, column):
    path = tiny_report / "out" / "estimates.csv"
    rows = checks.read_rows(path)
    rows[7][column] = repr(float(rows[7][column]) * (1.0 + 1e-6))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    problems, _ = checks.check_report(tiny_report)
    assert any(column in p for p in problems)


def test_gamma_off_the_cv_argmin_fails(tiny_report):
    path = tiny_report / "out" / "metadata.json"
    meta = json.loads(path.read_text())
    curve = checks.read_rows(tiny_report / "out" / "cv_curve.csv")
    meta["gamma"] = next(float(r["gamma"]) for r in curve if float(r["gamma"]) != meta["gamma"])
    path.write_text(json.dumps(meta))
    problems, _ = checks.check_report(tiny_report)
    assert any("argmin" in p for p in problems)


def test_trace_reports_absent_names(tiny_report, monkeypatch):
    # a later version of the package without one of the traced names
    import smallarea.pipeline

    monkeypatch.delattr(smallarea.pipeline, "benchmarked_estimate_single")
    result = worker.trace(str(tiny_report / "run.cfg"))
    assert result["absent"] == ["smallarea.pipeline.benchmarked_estimate_single"]
    assert len({json.dumps(r["hashes"]) for r in result["runs"]}) == 1
    spans = json.loads(Path(result["spans_path"]).read_text())
    metrics = run.layer_metrics(spans, result["untraced_s"], result["cpu_s"], result["absent"])
    assert metrics["trace.absent"] == 1
    assert metrics["fay_herriot.chains"] == 1
    assert metrics["estimators.calls"] == 2
    assert metrics["selection.held_out_solves"] == 17 * 3
    assert metrics["selection.cross_validate_s"] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "parent": None, "name": "pipeline.run_pipeline", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "bootstrap.bootstrap_mse", "start": 1.0, "end": 9.0},
        {"id": 2, "parent": 1, "name": "bootstrap.replicate", "start": 1.5, "end": 4.5},
        {"id": 3, "parent": 1, "name": "bootstrap.replicate", "start": 5.0, "end": 7.0},
        {"id": 4, "parent": 2, "name": "fay_herriot.gibbs_fit", "start": 2.0, "end": 4.0},
    ]
    metrics = run.layer_metrics(spans, untraced_s=9.5, cpu_s=1.0, absent=[])
    assert metrics["bootstrap.self_s"] == pytest.approx(3.0)
    assert metrics["bootstrap.replicate_ms"] == pytest.approx(2500.0)
    assert metrics["pipeline.self_s"] == pytest.approx(2.0)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert metrics["bootstrap.run_share"] == pytest.approx(80.0)


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(synth.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in synth.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run.layer_metrics([], 0.0, 0.0, [])) == {n for n, _, _ in run.PER_LAYER}
    assert spec["paths"] == ["bench"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
