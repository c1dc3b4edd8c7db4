#!/usr/bin/env python3
"""Check that two checkouts of metricinv give the same outputs, bit for bit.

Usage:
  python3 scripts/compare_outputs.py PARENT_ROOT [CHANGE_ROOT]

CHANGE_ROOT defaults to the checkout this script lives in. Each root runs
the same probes in its own subprocess (cwd = the root), importing that
root's `src/`, and `perfbench/` for the workload inputs:

- the CLI `curvature --order 4`, `invariants --max-order 3` and
  `--max-order 4`, and `homogeneity --samples 6 --max-order 3 --seed 7`
  on every file in `metrics/`, and the defaults `curvature` with no
  `--order` and `homogeneity --samples 6 --seed 7` with no
  `--max-order`: exit code, JSON report without `wall_time_s`, and
  stderr;
- the CLI `poincare --expand 24` and `count --max-k 24` for n = 2..32,
  compared the same way;
- `curvature_point(order=4)` at the same point of every file in
  `metrics/`: every jet coefficient of every tensor, the scalar
  curvature and each `nabla^s R` included, where the CLI report holds
  the order-0 values only;
- `homogeneous_test(seed=7)` on every file in `metrics/`, over the
  `homogeneity` box: the whole `HomogeneityVerdict`;
- `metric_at(order=3)` on a flat chart whose diagonal scaling overflows
  (`g_11 = g_22 = 1e-300`, `g_12 = 1e10 (2 + sin x)`): every jet
  coefficient of g and of its inverse;
- tower3d ops 0-3 of seeds 11 and 7919: labels, values, Jacobian and
  every jet coefficient of every invariant;
- survey4d ops 0-39 of seeds 11 and 7919: the whole `RankReport`;
- on two inline generic metrics with regular Tresse frames, n = 2 and a
  Lorentzian n = 4, `invariant_vector(max_order=3, with_gradients=True)`
  and `invariant_vector(max_order=4)` as for tower3d, and
  `homogeneity(n_samples=3, max_order=3, seed=7)` as for survey4d. With
  the tower3d ops they reach the full-order pass that `invariant_sample`
  runs only on a regular frame, in every dimension class;
- on an inline generic n = 5 metric, the order-2 block only:
  `invariant_vector(max_order=2, with_gradients=True)` and
  `homogeneity(n_samples=3, max_order=2, seed=7)`. It reaches the Weyl
  traces with Lambda^2(A)^2 and Lambda^2(A)^3, which need n >= 5; its
  higher blocks would hold 50,000 rows or more.

Floats are compared through their shortest repr, which round-trips
exactly. When every probe is identical, prints their number and exits 0.
Otherwise it prints how many probes differ; for each probe family (the
first word of the probe name) the largest change of a float, relative to
the largest finite float of that probe in the parent's output, and where
it is; and every differing leaf that is not a pair of finite floats
(an exit code, a label, a warning, a rank, a changed structure). It then
exits 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (11, 7919)
TOWER_OPS = range(4)
SURVEY_OPS = range(40)
COUNT_DIMS = range(2, 33)  # the dimensions and orders the counts workload draws
COUNT_K = 24
# One point inside each bundled metric's chart, and a sampling box (the
# boxes of scripts/symmetry_survey.py).
POINTS = {
    "flat2": "x=0.3,y=-0.2",
    "flat3": "x=0.3,y=-0.2,z=0.5",
    "hyperbolic2": "x=0.3,y=1.2",
    "ppwave": "u=0.1,v=0.5,x=0.7,y=0.3",
    "revolution": "x=0.9,y=0.3",
    "schwarzschild": "t=0,r=3,th=1,ph=0.5",
    "sphere2": "x=1.1,y=0.4",
    "sphere3": "x=1.1,y=0.8,z=0.3",
}
# Generic metrics, each with a point where its Tresse frame is regular, and
# the (max_order, with_gradients) of its `invariant_vector` probes; the
# `homogeneity` probe samples [0, 1]^n at the first max_order.
INLINE_METRICS = {
    "surface": (
        "dim = 2; coords = [x, y];"
        " g[1,1] = 2 + 0.3*sin(0.7*x) + 0.2*sin(1.3*y);"
        " g[1,2] = 0.1*sin(0.9*x);"
        " g[2,2] = 2 + 0.25*sin(1.1*y) + 0.15*sin(0.6*x)",
        (0.3, 0.4),
        ((3, True), (4, False)),
    ),
    "lorentzian": (
        "dim = 4; coords = [t, x, y, z]; signature = [-1, +1, +1, +1];"
        " g[1,1] = -(2 + 0.3*sin(0.7*x) + 0.2*sin(1.3*t));"
        " g[2,2] = 2 + 0.25*sin(1.1*y) + 0.15*sin(0.6*z);"
        " g[3,3] = 2 + 0.2*sin(0.8*z) + 0.1*sin(1.2*t);"
        " g[4,4] = 2 + 0.3*sin(0.5*t) + 0.2*sin(0.9*x);"
        " g[2,3] = 0.1*sin(0.9*t)",
        (0.1, 0.2, 0.3, 0.4),
        ((3, True), (4, False)),
    ),
    "generic5": (
        "dim = 5; coords = [x, y, z, w, v];"
        " g[1,1] = 2 + 0.3*sin(0.7*y) + 0.2*sin(1.3*v);"
        " g[2,2] = 2 + 0.25*sin(1.1*z) + 0.15*sin(0.6*x);"
        " g[3,3] = 2 + 0.2*sin(0.8*w) + 0.1*sin(1.2*x);"
        " g[4,4] = 2 + 0.3*sin(0.5*v) + 0.2*sin(0.9*y);"
        " g[5,5] = 2 + 0.2*sin(0.7*x) + 0.1*sin(1.1*z);"
        " g[1,2] = 0.1*sin(0.9*w); g[3,5] = 0.1*sin(0.8*y)",
        (0.1, 0.2, 0.3, 0.4, 0.5),
        ((2, True),),
    ),
}
# A regular flat chart on which D^(-1/2) g D^(-1/2), D = |diag g|, overflows.
OVERFLOW_METRIC = (
    "dim = 2; coords = [x, y]; signature = [+1, -1];"
    " g[1,1] = 1e-300; g[2,2] = 1e-300; g[1,2] = 1e10*(2 + sin(x))"
)
CURVATURE_FIELDS = (
    "g", "g_inv", "gamma", "riemann_lower", "ricci", "scalar", "ricci_op", "weyl",
)
BOXES = {
    "flat2": "x=-1:1,y=-1:1",
    "flat3": "x=-1:1,y=-1:1,z=-1:1",
    "hyperbolic2": "x=-1:1,y=0.5:2.5",
    "ppwave": "u=-0.5:0.5,v=-1:1,x=0.5:1.5,y=0.2:1.2",
    "revolution": "x=0:3,y=0:3",
    "schwarzschild": "t=0:1,r=3:6,th=0.6:2.4,ph=0:3",
    "sphere2": "x=0.5:2.5,y=0:3",
    "sphere3": "x=0.6:2.4,y=0.6:2.4,z=0:3",
}


def _cli_run(cli, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--format", "json"])
        doc = json.loads(out.getvalue()) if out.getvalue() else None
        if doc is not None:
            doc.pop("wall_time_s")
        return {"exit": code, "report": doc, "stderr": err.getvalue()}

    return run


def _cli_probes(cli):
    for name in sorted(POINTS):
        path = f"metrics/{name}.metric"
        point, box = POINTS[name], BOXES[name]
        for argv in (
            ["curvature", "--metric", path, "--point", point, "--order", "4"],
            ["curvature", "--metric", path, "--point", point],
            ["invariants", "--metric", path, "--point", point, "--max-order", "3"],
            ["invariants", "--metric", path, "--point", point, "--max-order", "4"],
            ["homogeneity", "--metric", path, "--box", box,
             "--samples", "6", "--max-order", "3", "--seed", "7"],
            ["homogeneity", "--metric", path, "--box", box, "--samples", "6", "--seed", "7"],
        ):
            yield " ".join(argv[:3] + argv[5:]), _cli_run(cli, argv)
    for n in COUNT_DIMS:
        for argv in (
            ["poincare", "--dim", str(n), "--expand", str(COUNT_K)],
            ["count", "--dim", str(n), "--max-k", str(COUNT_K)],
        ):
            yield " ".join(argv), _cli_run(cli, argv)


def _curvature_probes(metricinv):
    for name in sorted(POINTS):
        spec = metricinv.parse_metric(Path(f"metrics/{name}.metric").read_text())
        at = dict(kv.split("=") for kv in POINTS[name].split(","))
        point = tuple(float(at[c]) for c in spec.coords)

        def run(spec=spec, point=point):
            curv = metricinv.curvature_point(spec, point, 4)
            doc = {f: _coeffs(getattr(curv, f)) for f in CURVATURE_FIELDS}
            doc["nabla_r"] = [_coeffs(t) for t in curv.nabla_r]
            return doc

        yield f"curvature_point {name} order 4", run


def _verdict_probes(metricinv, cli):
    for name in sorted(POINTS):
        spec = metricinv.parse_metric(Path(f"metrics/{name}.metric").read_text())
        box = cli._parse_box(BOXES[name], spec)

        def run(spec=spec, box=box):
            return dataclasses.asdict(metricinv.homogeneous_test(spec, box, seed=7))

        yield f"homogeneous_test {name}", run

    def run():
        spec = metricinv.parse_metric(OVERFLOW_METRIC)
        g, g_inv = metricinv.curvature.metric_at(spec, (0.3, 0.2), 3)
        return {"g": _coeffs(g), "g_inv": _coeffs(g_inv)}

    yield "metric_at overflow order 3", run


def _coeffs(tensor):
    """Every jet coefficient of a tensor; older checkouts hold the scalar
    curvature as a bare `Jet`, whose coefficients are `c`."""
    if tensor is None:
        return None
    return (tensor.coeffs if hasattr(tensor, "coeffs") else tensor.c).tolist()


def _invariant_doc(iv, with_gradients=True):
    """Older checkouts hold the values as a tuple of `Jet`s, whose
    coefficients are `c`, where newer ones hold one (N, S) array."""
    values = iv.values
    return {
        "labels": list(iv.labels),
        "values": iv.values_array().tolist(),
        "jacobian": iv.jacobian().tolist() if with_gradients else None,
        "coeffs": values.tolist() if hasattr(values, "tolist") else [v.c.tolist() for v in values],
        "warnings": list(iv.warnings),
    }


def _workload_probes(workloads, root):
    for seed in SEEDS:
        tower = workloads.Tower3d(seed, root)
        for op in TOWER_OPS:
            def run(tower=tower, op=op):
                _, iv = tower.run(tower.inputs(op))
                return _invariant_doc(iv)

            yield f"tower3d seed {seed} op {op}", run
        survey = workloads.Survey4d(seed, root)
        for op in SURVEY_OPS:
            def run(survey=survey, op=op):
                return dataclasses.asdict(survey.run(survey.inputs(op)))

            yield f"survey4d seed {seed} op {op}", run


def _inline_probes(metricinv):
    for name, (text, point, orders) in INLINE_METRICS.items():
        spec = metricinv.parse_metric(text)
        box = [(0.0, 1.0)] * spec.dim
        for max_order, with_gradients in orders:
            def run(spec=spec, point=point, max_order=max_order, grad=with_gradients):
                iv = metricinv.invariant_vector(spec, point, max_order, grad)
                return _invariant_doc(iv, grad)

            yield f"{name} invariant_vector max_order {max_order} gradients {with_gradients}", run

        def run(spec=spec, box=box, max_order=orders[0][0]):
            report = metricinv.homogeneity(spec, box, n_samples=3, max_order=max_order, seed=7)
            return dataclasses.asdict(report)

        yield f"{name} homogeneity", run


def probe(root: Path) -> None:
    """Print `name<TAB>json` for every probe, run on `root`'s code."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import metricinv
    from metricinv import cli
    import workloads

    for name, run in [
        *_cli_probes(cli), *_curvature_probes(metricinv), *_verdict_probes(metricinv, cli),
        *_workload_probes(workloads, root), *_inline_probes(metricinv),
    ]:
        try:
            out = run()
        except Exception as exc:  # a failure is an output to compare too
            out = {"error": f"{type(exc).__name__}: {exc}"}
        print(f"{name}\t{json.dumps(out)}", flush=True)


def _outputs(root: Path) -> list[tuple[str, str]]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", str(root)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"probes failed on {root}:\n{proc.stderr}")
    return [tuple(line.split("\t", 1)) for line in proc.stdout.splitlines()]


def _leaves(a, b, path=""):
    """Every pair of corresponding leaves; a changed structure is one leaf."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from _leaves(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaves(x, y, f"{path}[{i}]")
    else:
        yield path, a, b


def _is_float(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def _largest_float(tree) -> float:
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return max((_largest_float(x) for x in tree), default=0.0)
    return abs(tree) if _is_float(tree) else 0.0


def _compare(a, b):
    """The largest float change relative to a's largest finite float, its
    path, and every other differing leaf as (path, a's leaf, b's leaf)."""
    scale = _largest_float(a) or 1.0
    largest, where, others, floats = 0.0, "", [], False
    for path, x, y in _leaves(a, b):
        if json.dumps(x) == json.dumps(y):
            continue
        if _is_float(x) and _is_float(y):  # a changed sign of zero is a change of 0
            floats = True
            if abs(x - y) / scale > largest:
                largest, where = abs(x - y) / scale, path
        else:
            others.append((path, x, y))
    if not others and not floats:  # the same leaves in another order
        others.append(("", "key order", "key order"))
    return largest, where, others


def main(argv: list[str]) -> int:
    if argv[:1] == ["--probe"]:
        probe(Path(argv[1]))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    before, after = _outputs(parent), _outputs(change)
    if [name for name, _ in before] != [name for name, _ in after]:
        print(f"probe lists differ: {len(before)} probes against {len(after)}")
        return 1
    families: dict[str, list] = {}  # family -> [probes, differing, largest, where]
    others = []
    for (name, out_a), (_, out_b) in zip(before, after):
        family = families.setdefault(name.split()[0], [0, 0, 0.0, ""])
        family[0] += 1
        if out_a == out_b:
            continue
        family[1] += 1
        largest, where, leaves = _compare(json.loads(out_a), json.loads(out_b))
        if largest > family[2]:
            family[2:] = [largest, f"{name} at {where}"]
        others += [(name, *leaf) for leaf in leaves]
    differing = sum(family[1] for family in families.values())
    if not differing:
        print(f"{len(before)} probes identical")
        return 0
    print(f"{differing} of {len(before)} probes differ")
    print("largest float change relative to the probe's largest finite float:")
    for family, (total, count, largest, where) in families.items():
        print(f"  {family}: {count} of {total} differ, {largest:.2g}"
              + (f" ({where})" if where else ""))
    for name, path, x, y in others:
        print(f"{name}: non-float leaf differs at {path or 'top level'}")
        print(f"  parent: {json.dumps(x)[:300]}")
        print(f"  change: {json.dumps(y)[:300]}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
