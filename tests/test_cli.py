"""CLI surface: reports, exit codes, determinism, JSON/text consistency."""

import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import metricinv
from metricinv.cli import main
from metricinv.cli import Report, emit
from metricinv.curvature import curvature_point
from metricinv.errors import DomainError
from metricinv.metriclang import parse_metric

from conftest import PPWAVE, REVOLUTION, SPHERE2
from conftest import METRICS_DIR

pytestmark = pytest.mark.usefixtures("metric_files")


@pytest.fixture(scope="module")
def metric_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("metrics")
    files = {}
    for name, text in [
        ("sphere2", SPHERE2),
        ("revolution", REVOLUTION),
        ("ppwave", PPWAVE),
    ]:
        path = root / f"{name}.metric"
        path.write_text(text)
        files[name] = str(path)
    return files


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_count_command(capsys):
    doc = run_json(capsys, "count", "--dim", "3", "--max-k", "4")
    assert doc["results"]["s"] == [0, 0, 3, 18, 45]
    assert doc["results"]["delta"] == [0, 0, 3, 15, 27]


def test_count_rejects_dim_one(capsys):
    code, _, err = run_cli(capsys, "count", "--dim", "1")
    assert code == 2
    assert "input error" in err


def test_poincare_command(capsys):
    doc = run_json(capsys, "poincare", "--dim", "2", "--expand", "5")
    assert doc["results"]["series_delta"] == [0, 0, 1, 1, 3, 4]
    assert doc["results"]["pole_order_at_one"] == 2
    doc4 = run_json(capsys, "poincare", "--dim", "4", "--expand", "3")
    assert doc4["results"]["series_delta"][2] == 14


def test_curvature_command_sphere(capsys, metric_files):
    doc = run_json(
        capsys, "curvature", "--metric", metric_files["sphere2"],
        "--point", "x=1,y=0",
    )
    assert doc["results"]["scalar_curvature"] == pytest.approx(2.0, rel=1e-12)
    assert doc["results"]["weyl"] is None
    assert doc["parameters"]["order"] == 2  # the default jet order
    assert "metric_digest" in doc


def test_curvature_singular_point_exit_3(capsys, metric_files, tmp_path):
    code, _, err = run_cli(
        capsys, "curvature", "--metric", metric_files["sphere2"],
        "--point", "x=0,y=0",
    )
    assert code == 3
    assert "SingularMetric" in err
    # exp(x^3) is in the float range at x = 8, where the metric is flat, and
    # exp(729) overflows: a domain error, not a traceback
    path = tmp_path / "overflow.metric"
    path.write_text("dim=2; coords=[x,y]; g[1,1]=exp(x^3); g[2,2]=1\n")
    doc = run_json(capsys, "curvature", "--metric", str(path), "--point", "x=8,y=0")
    assert doc["results"]["christoffel"][0][0][0] == pytest.approx(96, rel=1e-14)
    assert not np.any(doc["results"]["riemann_lower"])
    code, _, err = run_cli(capsys, "curvature", "--metric", str(path), "--point", "x=9,y=0")
    assert code == 3
    assert "DomainError" in err


# Components near 1e-150: the curvature, near 1e150, is in the float range,
# and |grad scal|^2, an order-3 invariant near 1e450, is not.
TINY = """
dim = 2
coords = [x, y]
g[1,1] = 1e-150 * exp(x*y)
g[1,2] = 0
g[2,2] = 1e-150 * exp(3*y) * (2 + sin(x))
"""


def test_tiny_metric_curvature_exit_0(capsys, tmp_path):
    path = tmp_path / "tiny.metric"
    scalars = []
    for text in (TINY, TINY.replace("1e-150 * ", "")):
        path.write_text(text)
        doc = run_json(
            capsys, "curvature", "--metric", str(path), "--point", "x=0.5,y=0.3",
            "--order", "3",
        )
        scalars.append(doc["results"]["scalar_curvature"])
    assert scalars[0] == pytest.approx(1e150 * scalars[1], rel=1e-12)


# TINY's order-3 invariants leave the float range; at 1e-320 its inverse
# metric does too.
@pytest.mark.parametrize("argv", [
    ["curvature", "--order", "3"],
    ["invariants", "--max-order", "3"],
])
def test_non_finite_results_exit_3(capsys, tmp_path, argv):
    path = tmp_path / "tiny.metric"
    factor = {"curvature": "1e-320", "invariants": "1e-150"}[argv[0]]
    path.write_text(TINY.replace("1e-150", factor))
    code, out, err = run_cli(
        capsys, argv[0], "--metric", str(path), "--point", "x=0.5,y=0.3",
        *argv[1:], "--format", "json",
    )
    assert code == 3
    assert out == ""
    assert "DomainError" in err


# Schwarzschild times 1e-70 (and g_tt times 1 + r^2): the curvature is in
# the float range, its Weyl traces are not.
TINY_SCHWARZSCHILD = """
dim = 4
coords = [t, r, th, ph]
signature = [-1, +1, +1, +1]
g[1,1] = -1e-70*(1 - 2/r)*(1 + r^2)
g[2,2] = 1e-70/(1 - 2/r)
g[3,3] = 1e-70*r^2
g[4,4] = 1e-70*r^2 * sin(th)^2
"""


@pytest.mark.parametrize("argv", [
    ["homogeneity", "--box", "t=0:1,r=3:6,th=0.6:2.4,ph=0:3",
     "--samples", "3", "--seed", "7", "--max-order", "2"],
    ["invariants", "--point", "t=0.5,r=4,th=1,ph=0.5", "--max-order", "2"],
])
def test_invariants_out_of_float_range_exit_3(capsys, tmp_path, argv):
    path = tmp_path / "tiny_schwarzschild.metric"
    path.write_text(TINY_SCHWARZSCHILD)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv[0], "--metric", str(path), *argv[1:])
    assert code == 3
    assert out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err and "input error" not in err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf")])
def test_emit_writes_no_non_finite_number(fmt, number):
    report = Report("curvature", {"order": 2}, results={"scalar_curvature": number})
    stream = io.StringIO()
    with pytest.raises(DomainError):
        emit(report, fmt, stream)
    assert stream.getvalue() == ""


def test_failed_write_is_not_an_input_error(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["count", "--dim", "3", "--max-k", "4", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    assert sys.stdout.name == os.devnull  # so the flush at exit writes nowhere
    sys.stdout.close()


@pytest.mark.parametrize("order", ["1", "0", "-3"])
def test_curvature_order_below_two_exit_2(capsys, metric_files, order):
    code, out, err = run_cli(
        capsys, "curvature", "--metric", metric_files["sphere2"],
        "--point", "x=1,y=0", "--order", order,
    )
    assert code == 2
    assert out == ""
    assert "input error" in err and "--order" in err


def test_badly_scaled_metrics_exit_0(capsys, tmp_path):
    path = tmp_path / "wide.metric"
    for size in (1e12, 1e200):
        path.write_text(f"dim=2; coords=[x,y]; g[1,1]=1; g[2,2]={size!r}\n")
        doc = run_json(capsys, "curvature", "--metric", str(path), "--point", "x=0,y=0")
        assert doc["results"]["g"] == [[1.0, 0.0], [0.0, size]]
    doc = run_json(
        capsys, "curvature", "--metric", str(METRICS_DIR / "schwarzschild.metric"),
        "--point", "t=0,r=300,th=1,ph=0.5",
    )
    assert doc["results"]["g"][1][1] == pytest.approx(1 / (1 - 2 / 300), rel=1e-15)


def _g_inv(capsys, text, tmp_path, order):
    path = tmp_path / "scaled.metric"
    path.write_text(text)
    doc = run_json(
        capsys, "curvature", "--metric", str(path), "--point", "x=1.1,y=0.4",
        "--order", order,
    )
    return np.array(doc["results"]["g_inv"])


def test_jet_inverse_of_badly_scaled_metrics_exit_0(capsys, tmp_path):
    # no power of a single entry is formed, so neither overflows at order 3 or 4
    g_inv = _g_inv(capsys, "dim=2; coords=[x,y]; g[1,1]=1; g[2,2]=1e-200\n", tmp_path, "3")
    np.testing.assert_allclose(g_inv, [[1.0, 0.0], [0.0, 1e200]], rtol=1e-15)
    scaled = _g_inv(capsys, SPHERE2.replace("] = ", "] = 1e80*"), tmp_path, "4")
    np.testing.assert_allclose(
        scaled, 1e-80 * _g_inv(capsys, SPHERE2, tmp_path, "4"), rtol=1e-15
    )


def test_regular_metric_whose_diagonal_scaling_overflows_exit_0(capsys, tmp_path):
    # D^(-1/2) g D^(-1/2) with D = 1e-300 overflows; this flat chart is regular
    path = tmp_path / "overflow.metric"
    path.write_text(
        "dim=2; coords=[x,y]; signature=[+1,-1];"
        " g[1,1]=1e-300; g[2,2]=1e-300; g[1,2]=1e10*(2 + sin(x))\n"
    )
    doc = run_json(
        capsys, "curvature", "--metric", str(path), "--point", "x=0.3,y=0.2",
        "--order", "3",
    )
    assert doc["results"]["scalar_curvature"] == 0.0
    assert doc["results"]["g_inv"][0][1] == pytest.approx(
        1 / (1e10 * (2 + math.sin(0.3))), rel=1e-14
    )
    doc = run_json(
        capsys, "homogeneity", "--metric", str(path), "--box", "x=0:1,y=0:1",
        "--samples", "3", "--seed", "1",
    )
    assert doc["results"]["homogeneity"] == 2
    assert doc["results"]["skipped"] == []


@pytest.mark.parametrize("expr, value", [
    ("1/(1e-200*(2 + sin(x)))", lambda x: 1 / (1e-200 * (2 + math.sin(x)))),
    ("sqrt(1e-200*(2 + sin(x)))", lambda x: math.sqrt(1e-200 * (2 + math.sin(x)))),
], ids=["recip", "sqrt"])
def test_scalar_functions_of_tiny_constant_terms_exit_0(capsys, tmp_path, expr, value):
    path = tmp_path / "tiny_scalar.metric"
    path.write_text(f"dim=2; coords=[x,y]; g[1,1]={expr}; g[2,2]=1\n")
    doc = run_json(
        capsys, "curvature", "--metric", str(path), "--point", "x=0.5,y=0.3",
        "--order", "3",
    )
    assert doc["results"]["g"][0][0] == pytest.approx(value(0.5), rel=1e-14)


def test_curvature_bad_point_exit_2(capsys, metric_files):
    code, _, err = run_cli(
        capsys, "curvature", "--metric", metric_files["sphere2"],
        "--point", "x=1,q=0",
    )
    assert code == 2


def test_missing_metric_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "curvature", "--metric", "nope.metric",
                         "--point", "x=1,y=0")
    assert code == 2


@pytest.mark.parametrize("command, flag, text, coord", [
    ("curvature", "--point", "x=1,x=2,y=0", "x"),
    ("curvature", "--point", "x=inf,y=0", "x"),
    ("curvature", "--point", "x=1,y=nan", "y"),
    ("homogeneity", "--box", "x=0:3,y=0:3,y=1:2", "y"),
    ("homogeneity", "--box", "x=0:inf,y=0:3", "x"),
    ("homogeneity", "--box", "x=0:3,y=-nan:3", "y"),
])
def test_point_and_box_reject_repeated_and_non_finite(
    capsys, metric_files, command, flag, text, coord
):
    argv = [command, "--metric", metric_files["revolution"], flag, text]
    if command == "homogeneity":
        argv += ["--seed", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{coord!r}" in err


@pytest.mark.parametrize("name", ["flat2", "revolution"])
def test_box_whose_width_overflows_exit_2(capsys, name):
    # each end is finite, but hi - lo is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "homogeneity", "--metric", str(METRICS_DIR / f"{name}.metric"),
            "--box", "x=-1e308:1e308,y=0:1", "--seed", "1", "--samples", "2",
        )
    assert code == 2
    assert out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err
    assert "input error" in err and "too wide" in err


def test_directory_as_metric_exit_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "curvature", "--metric", str(tmp_path), "--point", "x=1,y=0",
    )
    assert code == 2
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize("expr", [
    "+".join(["1"] * 3000),
    "(" * 2000 + "1" + ")" * 2000,
    "-" * 3000 + "1",
], ids=["long-sum", "nested-parentheses", "unary-minuses"])
def test_deeply_nested_expression_exit_2(capsys, tmp_path, expr):
    path = tmp_path / "deep.metric"
    path.write_text(f"dim = 2\ncoords = [x, y]\ng[1,1] = {expr}\ng[2,2] = 1\n")
    code, out, err = run_cli(capsys, "curvature", "--metric", str(path), "--point", "x=0,y=0")
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err and "Traceback" not in err


def test_out_of_memory_exit_2(capsys, metric_files, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.40 GiB")

    monkeypatch.setattr("metricinv.cli.curvature_point", exhausted)
    code, out, err = run_cli(
        capsys, "curvature", "--metric", metric_files["sphere2"],
        "--point", "x=1,y=0", "--order", "18",
    )
    assert code == 2
    assert out == ""
    assert "needs more memory" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, name", [
    (["homogeneity", "--box", "x=0:3,y=0:3", "--seed", "5", "--samples", "0"], "sample"),
    (["count", "--dim", "3", "--max-k", "-2"], "max-k"),
    (["poincare", "--dim", "3", "--expand", "-1"], "k_max"),
])
def test_out_of_range_counts_exit_2(capsys, metric_files, argv, name):
    if argv[0] == "homogeneity":
        argv = argv[:1] + ["--metric", metric_files["revolution"]] + argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert name in err


def test_invariants_command_emits_partial_on_homogeneous(capsys, metric_files):
    doc = run_json(
        capsys, "invariants", "--metric", metric_files["sphere2"],
        "--point", "x=1.2,y=0.4", "--max-order", "3",
    )
    assert doc["results"]["labels"] == ["I1", "I2'"]
    assert doc["results"]["values"][0] == pytest.approx(2.0, rel=1e-12)
    assert any("SingularFrame" in w for w in doc["warnings"])


def test_homogeneity_command(capsys, metric_files):
    doc = run_json(
        capsys, "homogeneity", "--metric", metric_files["revolution"],
        "--box", "x=0:3,y=0:3", "--samples", "20", "--seed", "5",
    )
    assert doc["results"]["homogeneity"] == 1
    assert len(doc["results"]["samples"]) == 20
    assert doc["results"]["samples"][0]["singular_values"]


def test_homogeneity_ppwave_warning(capsys, metric_files):
    doc = run_json(
        capsys, "homogeneity", "--metric", metric_files["ppwave"],
        "--box", "u=-0.5:0.5,v=-1:1,x=0.5:1.5,y=0.2:1.2", "--seed", "5",
    )
    assert doc["results"]["regularity_warning"] is True
    assert doc["results"]["homogeneity"] == 4
    assert doc["results"]["claims_killing_fields"] is False


@pytest.mark.parametrize("rel_tol", ["nan", "2", "-1", "0"])
def test_homogeneity_rejects_invalid_rel_tol(capsys, metric_files, rel_tol):
    code, out, err = run_cli(
        capsys, "homogeneity", "--metric", metric_files["revolution"],
        "--box", "x=0:3,y=0:3", "--samples", "3", "--seed", "5",
        "--rel-tol", rel_tol,
    )
    assert code == 2
    assert out == ""
    assert "rel_tol" in err


def test_determinism(capsys, metric_files):
    args = (
        "homogeneity", "--metric", metric_files["revolution"],
        "--box", "x=0:3,y=0:3", "--seed", "7",
    )
    a = run_json(capsys, *args)
    b = run_json(capsys, *args)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_text_output_contains_same_numbers(capsys, metric_files):
    doc = run_json(
        capsys, "curvature", "--metric", metric_files["sphere2"],
        "--point", "x=1.1,y=0.3",
    )
    code, text, _ = run_cli(
        capsys, "curvature", "--metric", metric_files["sphere2"],
        "--point", "x=1.1,y=0.3", "--format", "text",
    )
    assert code == 0
    assert str(doc["results"]["scalar_curvature"]) in text
    assert doc["metric_digest"] in text


def test_seed_required_for_homogeneity(capsys, metric_files):
    code, _, _ = run_cli(
        capsys, "homogeneity", "--metric", metric_files["revolution"],
        "--box", "x=0:3,y=0:3",
    )
    assert code == 2


def test_homogeneity_all_singular_exit_3(capsys, tmp_path):
    path = tmp_path / "degenerate.metric"
    path.write_text("dim=2; coords=[x,y]; g[1,1]=0; g[2,2]=1\n")
    code, _, err = run_cli(
        capsys, "homogeneity", "--metric", str(path),
        "--box", "x=0:1,y=0:1", "--seed", "3",
    )
    assert code == 3
    assert "AllPointsSingular" in err


def test_homogeneity_ignores_overflow_above_a_singular_frame(capsys, tmp_path):
    # The 3-sphere scaled by 1e80 has a singular Tresse frame, so the
    # higher invariants, and the jet orders only they read, are omitted.
    path = tmp_path / "scaled_sphere3.metric"
    path.write_text(
        "dim=3; coords=[x,y,z]; g[1,1]=1e80; g[2,2]=1e80*sin(x)^2;"
        " g[3,3]=1e80*sin(x)^2*sin(y)^2\n"
    )
    doc = run_json(
        capsys, "homogeneity", "--metric", str(path),
        "--box", "x=0.6:2.4,y=0.6:2.4,z=0:3", "--samples", "4",
        "--max-order", "3", "--seed", "7",
    )
    assert doc["results"]["homogeneity"] == 3


def test_homogeneity_ignores_an_order_4_overflow_above_a_singular_frame(capsys, tmp_path):
    # A flat 3-metric whose g_11 = exp(2e90*u) has jet coefficients
    # (2e90)^k / k! * g_11: near u = 0 they are finite up to order 3 and
    # overflow at order 4. The Tresse-frame test reads order 3 only, finds
    # rank 0, and the order-4 pass that only the higher invariants need is
    # never run, so no sample is skipped.
    text = "dim=3; coords=[u,y,z]; g[1,1]=exp(2e90*u); g[2,2]=1; g[3,3]=1\n"
    spec = parse_metric(text)
    point = (5e-93, 0.5, 0.5)
    curv = curvature_point(spec, point, 3)  # raises DomainError on a non-finite tensor
    assert np.max(np.abs(curv.g.coeffs)) > 1e269
    with pytest.raises(DomainError, match="^g has a non-finite jet coefficient"):
        curvature_point(spec, point, 4)
    path = tmp_path / "steep_flat3.metric"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "homogeneity", "--metric", str(path),
        "--box", "u=0:1e-92,y=0:1,z=0:1", "--samples", "3",
        "--max-order", "3", "--seed", "7", "--format", "json",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["results"]["homogeneity"] == 3
    assert doc["results"]["consensus_rank"] == 0
    assert doc["results"]["skipped"] == []
    assert any(w.startswith("SingularFrame") for w in doc["warnings"])


def test_float_round_trip_in_json(capsys, metric_files):
    doc = run_json(
        capsys, "curvature", "--metric", metric_files["sphere2"],
        "--point", "x=1.1,y=0.3",
    )
    value = doc["results"]["g"][1][1]
    assert value == math.sin(1.1) ** 2  # exact round-trip through JSON


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    src = str(Path(metricinv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "metricinv.cli", "count", "--dim", "3", "--max-k", "4",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the CLI writes anything
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert err == ""  # no traceback, and no "Exception ignored" from the flush at exit
