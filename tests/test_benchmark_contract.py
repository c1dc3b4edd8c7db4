"""The benchmark's contract with the package: the calls it makes and the names it traces.

`perfbench/` drives metricinv through its workloads and wraps the module
attributes listed in `tracing.BOUNDARIES`. A keyword the workloads pass,
or an attribute the tracer wraps, that the package no longer has breaks
the benchmark; these tests catch that with the rest of the suite.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from metricinv import jets  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_ops_pass_their_checks(name):
    workload = workloads.WORKLOADS[name](11, ROOT)
    for op in range(3):
        inp = workload.inputs(op)
        assert workload.check(inp, workload.run(inp)) is None, (name, op)


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
