"""Command-line interface.

Subcommands load representations, multicurves, laminations and circle
graphs from files, run the constructions, and emit deterministic JSON
reports plus OBJ/CSV artifacts.  Stdout carries exactly one JSON
document, the report or the error.  Every invariant check appears in the
report with its numeric residual.  The exit status is 0 when every
check passes, 1 when a check fails or the computation fails on its
input (a RuntimeError, or a MemoryError), and 2 when an input is invalid
(a RecursionError is a JSON input nested too deep).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import time

import numpy as np

from . import adshull, flatspace, quakes
from . import laminations as lamins
from .fuchsian import GroupBall, Representation, euler_class
from .minkowski import CausalClass, circle_distance, classify, finite, inner

# SHA-256 from CPython's built-in module, not from hashlib, whose import
# loads OpenSSL: _sha2 from Python 3.12, _sha256 before
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SCHEMA_PREFIX = "lorentz21"


def _digest(path):
    h = sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _check(name, residual, tolerance):
    residual = float(residual)
    return {
        "name": name,
        "residual": residual,
        "tolerance": float(tolerance),
        "ok": bool(residual <= tolerance),
    }


def _dump(data, fh):
    """JSON text of data (sorted keys, indent 2, a final newline) written
    to fh 4096 encoder chunks at a time: never held whole, and one write
    per batch, not per chunk, to an unbuffered stdout."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(data)
    for batch in iter(lambda: "".join(itertools.islice(chunks, 4096)), ""):
        fh.write(batch)
    fh.write("\n")


def _lines(rows):
    return "\n".join(rows) + "\n"


def _finish(name, args, inputs, values, checks, diagnostics=None, artifacts=None):
    """The one exit of every command: stream the report to stdout; with
    --out, first write each artifact ({file name: text, or a JSON
    document}), then the report as report.json, and copy that file to
    stdout.  A failed write removes the files this call wrote, so it
    leaves none of them and the error document is the only JSON on
    stdout.  Reports and documents hold JSON values only, so a stream
    cannot stop halfway."""
    report = {
        "schema": "%s/%s/1" % (SCHEMA_PREFIX, name),
        "command": [name] + ["%s=%s" % (k, v) for k, v in sorted(vars(args).items())
                             if k != "func"],
        "inputs": {k: {"path": p, "sha256": _digest(p)} for k, p in inputs.items()},
        "values": values,
        "checks": checks,
        # what the run did (counts, fallbacks that fired), kept out of values
        "diagnostics": diagnostics or {},
    }
    if args.out is None:
        _dump(report, sys.stdout)
    else:
        os.makedirs(args.out, exist_ok=True)
        written = []
        try:
            for fname, body in {**(artifacts or {}), "report.json": report}.items():
                with open(os.path.join(args.out, fname), "w") as fh:
                    written.append(fh.name)
                    if isinstance(body, dict):
                        _dump(body, fh)
                    else:
                        fh.write(body)
        except OSError:
            for path in written:
                os.remove(path)
            raise
        with open(written[-1]) as fh:
            shutil.copyfileobj(fh, sys.stdout)
    return 0 if all(c["ok"] for c in checks) else 1


def cmd_euler(args):
    rep = Representation.load(args.rep)
    e = euler_class(rep)
    bound = max(0, 2 * rep.genus - 2)
    checks = [
        _check("relator-defect", rep.relator_defect(), args.tol),
        _check("milnor-wood", max(0, abs(e) - bound), 0),
    ]
    values = {"euler_class": e, "genus": rep.genus, "milnor_wood_bound": bound,
              "milnor_wood_ok": abs(e) <= bound}
    return _finish("euler", args, {"rep": args.rep}, values, checks)


def cmd_flat(args):
    if args.flat_mode == "build" and args.density < 2:
        raise ValueError("--density must be >= 2")
    rep = Representation.load(args.rep)
    mc = lamins.WeightedMulticurve.load(args.multicurve)
    # the basepoint's lift radius is refused before the disjointness
    # check builds a ball below it
    lamins.first_collect_radius(mc, args.ball)
    disjoint = lamins.disjointness_check(rep, mc, args.ball)
    checks = [_check("multicurve-disjoint", 0.0 if disjoint else 1.0, 0)]
    values = {"mode": args.flat_mode, "curves": len(mc)}
    # the lifts the check compared, read back from leaf_lifts' memo
    diagnostics = {"leaf_lifts": len(lamins.multicurve_lifts(rep, mc, args.ball))}
    artifacts = None
    if disjoint:
        coc = flatspace.cocycle_from_lamination(rep, mc, L=args.ball)
        # the identity sweep's radius is capped at 2 whatever --ball says
        ball = GroupBall(rep, min(2, args.ball))
        checks += [
            _check("cocycle-identity", flatspace.cocycle_identity_sweep(coc, ball), args.tol),
            _check("relator-residual", flatspace.relator_residual(coc), args.tol),
        ]
        diagnostics["sweep_ball_radius"] = ball.radius
        values["generator_vectors"] = coc.to_json()["t"]
        values["basepoint"] = [float(v) for v in coc.basepoint]
    if disjoint and args.flat_mode == "build":
        patch = flatspace.develop_surface(rep, mc, density=args.density,
                                          L=args.ball, seed=args.seed)
        slope = flatspace.graph_slope_check(patch)
        gap = flatspace.injectivity_gap(patch, seed=args.seed + 1)
        bad_x = sum(1 for x in patch.xvals
                    if classify(x) not in (CausalClass.SPACELIKE, CausalClass.ZERO))
        normals, offsets = flatspace.support_planes(patch)
        checks += [
            _check("graph-slope", slope, 1.0),
            _check("injectivity-gap", -gap, 1e-9),
            _check("x-spacelike-or-zero", bad_x, 0),
        ]
        values["samples"] = len(patch)
        diagnostics["perturbed_samples"] = int(patch.perturbed.sum())
        values["support_planes"] = len(offsets)
        artifacts = {
            "cocycle.json": {"schema": "%s/cocycle/1" % SCHEMA_PREFIX,
                             "t": values["generator_vectors"],
                             "basepoint": values["basepoint"]},
            "surface.obj": _lines(["# developed surface point cloud, coordinates (x, y, t)"]
                                  + ["v %.9f %.9f %.9f" % tuple(p) for p in patch.fvals]),
            "support_planes.json": {"schema": "%s/support-planes/1" % SCHEMA_PREFIX,
                                    "planes": [{"normal": n, "offset": c} for n, c
                                               in zip(normals.tolist(), offsets.tolist())]},
        }
    return _finish("flat", args, {"rep": args.rep, "multicurve": args.multicurve},
                   values, checks, diagnostics, artifacts)


def cmd_quake(args):
    with open(args.lamination) as fh:
        lamination = quakes.lamination_from_json(json.load(fh))
    quake = quakes.EarthquakeMap(lamination, side=args.side, scale=args.scale)
    cm = quakes.boundary_value(quake, samples=args.density)
    checks = [_check("boundary-monotone", 0.0 if cm.is_monotone() else 1.0, 0)]
    values = {"leaves": len(lamination.leaves), "scale": args.scale,
              "side": args.side, "boundary_samples": len(cm)}
    inputs = {"lamination": args.lamination}
    artifacts = {"boundary.csv": _lines(cm.to_csv_rows())}
    if args.points is not None:
        inputs["points"] = args.points
        rows = []
        ambiguous = 0
        with open(args.points) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                named = "points row %r is not a point (x, y, t) of the hyperboloid" % line
                try:
                    p = finite([float(v) for v in line.split(",")], "point")
                except ValueError as exc:
                    raise ValueError("%s: %s" % (named, exc)) from None
                # future timelike, with |<p, p> + 1| <= 1e-9 |p|^2 (Euclidean)
                with np.errstate(over="ignore", invalid="ignore"):
                    sq = float(inner(p, p)) if p.shape == (3,) else 0.0
                    norm = float(p @ p)
                if not (sq < 0 < p[2] and abs(sq + 1.0) <= 1e-9 * norm):
                    raise ValueError(named)
                try:
                    images = [("ok", quake.apply(p))]
                except ValueError:
                    ambiguous += 1
                    images = zip(("limit1", "limit2"), quake.one_sided_values(p))
                rows += ["%.12f,%.12f,%.12f,%.12f,%.12f,%.12f,%s" % (*p, *q, tag)
                         for tag, q in images]
        values["points"] = len(rows)
        values["ambiguous_points"] = ambiguous
        artifacts["images.csv"] = _lines(rows)
    return _finish("quake", args, inputs, values, checks,
                   {"shear_trace_error": quake.shear_trace_error()}, artifacts)


def _hull_pipeline(args, graph, inputs, extra_values, sampling):
    checks = [
        _check("graph-monotone", 0.0 if graph.is_monotone() else 1.0, 0),
        _check("graph-spacelike", 0.0 if graph.spacelike_consecutive() else 1.0, 0),
    ]
    hull = adshull.convex_hull(graph)
    quake = adshull.extract_left_earthquake(hull)
    spacing = 1.0 / len(graph)
    roundtrip = float(circle_distance(quake.boundary_map.samples[:, 1],
                                      graph.samples[:, 1]).max(initial=0.0))
    lorentzian = int((hull.faces.classes == "lorentzian").sum())
    pairs, shared, start, weights = quake.bending
    bent = ~np.isnan(weights)
    checks += [
        _check("no-lorentzian-faces", lorentzian, 0),
        _check("vertices-on-quadric", hull.vertex_on_quadric_error(), args.tol),
        _check("convexity-slack", -hull.convexity_slack(), 1e-6),
        _check("boundary-roundtrip", roundtrip, 10.0 * spacing),
    ]
    values = dict(extra_values)
    values.update({
        "flat": hull.flat,
        "samples": len(graph),
        "hull_vertices": int(len(hull.vertex_ids)),
        "future_faces": int(hull.faces.future.sum()),
        "past_faces": int((~hull.faces.future).sum()),
        "total_shear": float(quake.dominant_shear),
        "shear_edges": [[w, i, j] for w, (i, j) in zip((2.0 * weights[bent]).tolist(),
                                                       pairs[bent].tolist())],
        "boundary_roundtrip_sup": roundtrip,
    })
    diagnostics = dict(sampling, qhull_facets=hull.qhull_facets, merged_faces=len(hull.faces),
                       qhull_joggled=hull.joggled, strata=quake.strata,
                       null_future_faces_skipped=int(
                           (hull.faces.future & (hull.faces.classes == "null")).sum()))
    if hull.flat:
        values["notice"] = "flat hull: graph lies on a single plane, identity earthquake"
    artifacts = None
    # the hull's OBJ and bending texts are costly, so they are formatted for --out only
    if args.out is not None:
        shared, start = shared.tolist(), start.tolist()
        bend = [{"face_i": i, "face_j": j, "weight": w if ok else None,
                 "shared_vertices": shared[lo:hi]} for (i, j), w, ok, lo, hi
                in zip(pairs.tolist(), weights.tolist(), bent.tolist(), start[:-1], start[1:])]
        artifacts = {"hull.obj": hull.to_obj(),
                     "bending.json": {"schema": "%s/bending/1" % SCHEMA_PREFIX, "edges": bend},
                     "boundary.csv": _lines(quake.boundary_map.to_csv_rows()),
                     "graph.csv": _lines(graph.to_csv_rows())}
    return _finish("ads", args, inputs, values, checks, diagnostics, artifacts)


def cmd_ads_hull(args):
    with open(args.graph) as fh:
        graph = adshull.CircleGraph.from_csv_rows(fh.readlines())
    return _hull_pipeline(args, graph, {"graph": args.graph}, {"mode": "hull"}, {})


def cmd_ads_between(args):
    if args.density < 0 or args.density in (1, 2):
        raise ValueError("--density must be 0 or >= 3")
    rep_l = Representation.load(args.repL)
    rep_r = Representation.load(args.repR)
    graph = adshull.sample_conjugacy(rep_l, rep_r, args.ball)
    sampling = graph.diagnostics
    if args.density and args.density < len(graph):
        step = len(graph) / float(args.density)
        keep = sorted({int(i * step) for i in range(args.density)})
        graph = adshull.CircleGraph(graph.samples[keep])
    extra = {"mode": "between", "genus": rep_l.genus,
             "relator_defect_L": rep_l.relator_defect(),
             "relator_defect_R": rep_r.relator_defect()}
    return _hull_pipeline(args, graph, {"repL": args.repL, "repR": args.repR}, extra, sampling)


def build_parser():
    p = argparse.ArgumentParser(prog="lorentz21",
                                description="flat and anti-de Sitter constant-curvature "
                                            "spacetime constructions")
    sub = p.add_subparsers(dest="cmd", required=True)

    def options(sp, *names, density=200):
        """--out, and the named ones of --tol, --ball, --density, --seed."""
        kinds = {"tol": (float, 1e-8), "ball": (int, 3), "density": (int, density),
                 "seed": (int, 0)}
        for name in names:
            sp.add_argument("--" + name, type=kinds[name][0], default=kinds[name][1])
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("euler", help="Euler class of a representation")
    sp.add_argument("rep")
    options(sp, "tol")
    sp.set_defaults(func=cmd_euler)

    spf = sub.add_parser("flat", help="flat spacetimes from weighted multicurves")
    fsub = spf.add_subparsers(dest="flat_mode", required=True)
    for mode in ("build", "check"):
        sp = fsub.add_parser(mode)
        sp.add_argument("rep")
        sp.add_argument("multicurve")
        options(sp, "tol", "ball", "density", "seed")
        sp.set_defaults(func=cmd_flat, flat_mode=mode)

    sp = sub.add_parser("quake", help="earthquake along a finite lamination")
    sp.add_argument("lamination")
    sp.add_argument("scale", type=float)
    sp.add_argument("--points", default=None)
    sp.add_argument("--side", choices=("left", "right"), default="left")
    options(sp, "density", density=256)
    sp.set_defaults(func=cmd_quake)

    spa = sub.add_parser("ads", help="anti-de Sitter convex hulls")
    asub = spa.add_subparsers(dest="ads_mode", required=True)
    sp = asub.add_parser("hull")
    sp.add_argument("graph")
    options(sp, "tol")
    sp.set_defaults(func=cmd_ads_hull)
    sp = asub.add_parser("between")
    sp.add_argument("repL")
    sp.add_argument("repR")
    options(sp, "tol", "ball", "density")
    sp.set_defaults(func=cmd_ads_between)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if finite(getattr(args, "tol", 0.0), "--tol") < 0:
            raise ValueError("--tol must be >= 0")
        code = args.func(args)
    except (OSError, ValueError, KeyError, TypeError, RuntimeError, MemoryError) as exc:
        _dump({"schema": "%s/error/1" % SCHEMA_PREFIX,
               "error": "%s: %s" % (type(exc).__name__, exc)}, sys.stdout)
        # invalid input exits 2: JSON errors are ValueErrors, and the JSON
        # decoder is the program's only recursion, so a RecursionError is
        # an input nested too deep; a failure on valid input, such as an
        # enumeration cap, Qhull or an allocation, exits 1
        if isinstance(exc, RecursionError):
            return 2
        return 1 if isinstance(exc, (RuntimeError, MemoryError)) else 2
    # timing goes to stderr so reports stay byte-identical across runs
    sys.stderr.write("elapsed %.3fs\n" % (time.perf_counter() - t0))
    return code


if __name__ == "__main__":
    sys.exit(main())
