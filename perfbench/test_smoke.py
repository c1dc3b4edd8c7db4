"""Smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload for a few operations, traced and untraced, and checks
the result line against BENCHMARK.json; then feeds each workload's check
a wrong output, checks the scaling of latencies to the reference speed,
and runs the benchmark without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import run  # noqa: E402
import workloads  # noqa: E402
from metricinv import invariants, metriclang  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_benchmark_json_names_the_workloads():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "11", "--seconds", "60",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] == run.SMOKE_OPS
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert set(value) == {"value", "unit"} and value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(metrics[m["name"]] > 0 for m in listed)
        return
    # The layers each workload is meant to reach, and the ones it bypasses.
    if name == "survey4d":
        assert metrics["jets.mul_count"] > 0 and metrics["invariants.weyl_traces_ms"] > 0
        assert metrics["curvature.nabla_used_ratio"] == 0
        assert metrics["invariants.frame_singular_ratio"] == 1
        assert metrics["symmetry.self_ms"] > 0
    elif name == "tower3d":
        assert metrics["metriclang.parse_ms"] > 0 and metrics["invariants.higher_ms"] > 0
        assert metrics["curvature.nabla_used_ratio"] == 1
        assert metrics["invariants.frame_singular_ratio"] == 0
        assert metrics["invariants.emitted_count"] == workloads.tower_count(3, 4) == 15555
        assert metrics["invariants.weyl_traces_ms"] == 0
    else:
        assert metrics["jets.mul_count"] == 0 and metrics["jets.jet_count"] == 0
        assert metrics["cli.self_ms"] > 0 and metrics["cli.emit_ms"] > 0
    # Self times of a traced op add up to its wall time.
    assert abs(metrics["trace.unattributed_ratio"]) < 0.05
    trace_file = run.TRACE_DIR / f"trace-{name}-seed11.json"
    spans = json.loads(trace_file.read_text())["spans"]
    assert spans and all(len(span) == 7 for span in spans)


def _first(workload, op=0):
    inp = workload.inputs(op)
    out = workload.run(inp)
    assert workload.check(inp, out) is None
    return inp, out


def test_survey4d_check_rejects_wrong_reports():
    workload = workloads.Survey4d(3, ROOT)
    inp, report = _first(workload, 0)
    assert inp.metric == "schwarzschild"
    assert workload.check(inp, dataclasses.replace(report, homogeneity=2)) is not None
    inp, report = _first(workload, 1)
    assert inp.metric == "ppwave"
    wrong = dataclasses.replace(report, regularity_warning=False, claims_killing_fields=True)
    assert workload.check(inp, wrong) is not None


def test_tower3d_check_rejects_wrong_invariants():
    workload = workloads.Tower3d(3, ROOT)
    inp, (spec, iv) = _first(workload, 0)
    assert inp.affine is not None
    short = dataclasses.replace(iv, labels=iv.labels[:-1], values=iv.values[:-1])
    assert workload.check(inp, (spec, short)) is not None
    nudged = dataclasses.replace(iv, values=(iv.values[0] * (1 + 1e-7),) + iv.values[1:])
    assert "I1" in workload.check(inp, (spec, nudged))


def test_tower3d_redraws_a_point_next_to_a_singular_frame():
    # On this seed, op 12's first point lies within the frame tolerance of
    # the surface where the Jacobian of I1..I3 is singular.
    seed, op = 1574345916, 12
    rng = workloads._rng(seed, op)
    spec = metriclang.parse_metric(workloads.tower_metric_text(rng))
    first = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3))
    assert invariants.invariant_vector(spec, first, max_order=3).warnings
    inp = workloads.Tower3d(seed, ROOT).inputs(op)
    assert inp.point != first
    assert not invariants.invariant_vector(spec, inp.point, max_order=3).warnings


def test_counts_check_rejects_wrong_output():
    workload = workloads.Counts(3, ROOT)
    inp, (code, text) = _first(workload, 0)
    assert workload.check(inp, (2, text)) is not None
    assert workload.check(inp, (code, text[:-10])) is not None
    doc = json.loads(text)
    key = "series_delta" if inp.command == "poincare" else "delta"
    doc["results"][key][-1] += 1
    assert workload.check(inp, (code, json.dumps(doc))) is not None


class _Sleeper:
    """A workload whose every op sleeps 30 ms."""

    def inputs(self, op):
        return op

    def run(self, inp):
        time.sleep(0.03)

    def check(self, inp, out):
        return None


def test_run_ops_scales_every_latency_to_the_reference_speed(monkeypatch):
    # The host runs the reference at half its reference speed throughout,
    # so every op, in whichever block between probes, is scaled to half
    # its wall time.
    monkeypatch.setattr(run.speed, "probe_ms", lambda: 2 * run.speed.REFERENCE_MS)
    records = run.run_ops(_Sleeper(), 0.25, None)
    for _, wall, scaled, _, error in records:
        assert error is None and scaled == pytest.approx(wall / 2)


def test_without_program_sources_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
