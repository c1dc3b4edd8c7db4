"""The benchmark's contract with the package: the calls it makes and the names it traces.

`perfbench/` drives metricinv through its workloads and wraps the module
attributes listed in `tracing.BOUNDARIES`. A keyword the workloads pass,
or an attribute the tracer wraps, that the package no longer has breaks
the benchmark; these tests catch that with the rest of the suite. So do
the mirrors of perfbench's own wrong-output tests, which need `Jet *
float` and `dataclasses.replace` on the package's result types, and of
its check that each workload reaches the layers it is meant to, through
the boundary calls the tracer counts.
"""

import dataclasses
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from metricinv import curvature, jets  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_ops_pass_their_checks(name):
    workload = workloads.WORKLOADS[name](11, ROOT)
    for op in range(3):
        inp = workload.inputs(op)
        assert workload.check(inp, workload.run(inp)) is None, (name, op)


def _layer_metrics(name):
    """Per-layer metrics of ops 0-3 of seed 11, every op traced and timed."""
    workload = workloads.WORKLOADS[name](11, ROOT)
    tracer = tracing.Tracer()
    walls = {}
    for op in range(4):
        inp = workload.inputs(op)
        tracer.install(op)
        start = time.perf_counter()
        try:
            workload.run(inp)
        finally:
            walls[op] = time.perf_counter() - start
            tracer.uninstall()
    return tracer.layer_metrics(walls)


def test_survey4d_reaches_weyl_traces_and_a_singular_frame():
    metrics = _layer_metrics("survey4d")
    assert metrics["jets.mul_count"] > 0 and metrics["invariants.weyl_traces_ms"] > 0
    assert metrics["curvature.nabla_used_ratio"] == 0
    assert metrics["invariants.frame_singular_ratio"] == 1


def test_tower3d_reaches_the_higher_invariants_through_a_regular_frame():
    metrics = _layer_metrics("tower3d")
    assert metrics["curvature.nabla_used_ratio"] == 1
    assert metrics["invariants.frame_singular_ratio"] == 0
    assert metrics["invariants.emitted_count"] == workloads.tower_count(3, 4) == 15555
    assert metrics["invariants.higher_ms"] > 0 and metrics["invariants.weyl_traces_ms"] == 0


def test_counts_builds_no_jets():
    metrics = _layer_metrics("counts")
    assert metrics["jets.mul_count"] == 0 and metrics["jets.jet_count"] == 0


def test_tracer_wraps_and_restores_every_boundary():
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.BOUNDARIES]
    jet_methods = {attr: jets.Jet.__dict__[attr] for attr in ("__init__", "__mul__", "__rmul__")}
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        assert all(
            getattr(owner, attr) is not original
            for (owner, attr, _), original in zip(tracing.BOUNDARIES, originals)
        )
    finally:
        tracer.uninstall()
    assert all(
        getattr(owner, attr) is original
        for (owner, attr, _), original in zip(tracing.BOUNDARIES, originals)
    )
    assert {attr: jets.Jet.__dict__[attr] for attr in jet_methods} == jet_methods


def test_workloads_read_the_frame_tolerance_of_the_table():
    # tower3d redraws points whose frame clears it by too little, under this name
    assert workloads.invariants.DEFAULT_FRAME_RTOL is curvature.DEFAULT_FRAME_RTOL


def _first(workload, op):
    inp = workload.inputs(op)
    out = workload.run(inp)
    assert workload.check(inp, out) is None
    return inp, out


def test_survey4d_check_rejects_wrong_reports():
    workload = workloads.Survey4d(11, ROOT)
    inp, report = _first(workload, 0)
    assert inp.metric == "schwarzschild"
    assert workload.check(inp, dataclasses.replace(report, homogeneity=2)) is not None
    inp, report = _first(workload, 1)
    assert inp.metric == "ppwave"
    wrong = dataclasses.replace(report, regularity_warning=False, claims_killing_fields=True)
    assert workload.check(inp, wrong) is not None


def test_tower3d_check_rejects_wrong_invariants():
    workload = workloads.Tower3d(11, ROOT)
    inp, (spec, iv) = _first(workload, 0)
    assert inp.affine is not None
    short = dataclasses.replace(iv, labels=iv.labels[:-1], values=iv.values[:-1])
    assert workload.check(inp, (spec, short)) is not None
    values = iv.values.copy()
    values[0, 0] *= 1 + 1e-7
    nudged = dataclasses.replace(iv, values=values)
    assert nudged.values_array()[0] != iv.values_array()[0]
    assert "I1" in workload.check(inp, (spec, nudged))
