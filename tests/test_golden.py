"""Reports and artifacts pinned byte for byte.

The files under data/golden hold the `values` and `checks` of the CLI
runs below, the artifacts `flat build` writes, and a seeded 12-leaf
lamination with its points file, quaked on both sides with the
boundary and image CSVs it writes.  The tests rebuild the inputs,
rerun the same commands and assert exact equality, so a refactor that
changes any printed digit fails here.  The OBJ and bending record that
`ads between --out` writes are pinned by their sha256 in ADS_ARTIFACTS.
After an intended output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and record the new digests by hand.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random

import lorentz21
from lorentz21 import quakes
from lorentz21.cli import main
from lorentz21.fuchsian import Representation
from lorentz21.laminations import WeightedMulticurve
from lorentz21.minkowski import RP1Point, geodesic_normal, hyperboloid_normalize, inner

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
ARTIFACTS = ("cocycle.json", "surface.obj", "support_planes.json")


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sheared_octagon():
    """The octagon sheared along b1 (weight 1) by 0.55, as rep JSON."""
    rep = Representation.load(lorentz21.bundled("octagon_rep.json"))
    mc = WeightedMulticurve([("b1", 1.0)])
    return _dumps(quakes.rep_after_earthquake(rep, mc, 0.55, L=3).to_json())


def _matching(rng, ends):
    """A random non-crossing perfect matching of the cyclically ordered
    ends: the first end pairs with one an odd number of steps on, and
    the arcs inside and outside that chord are matched the same way."""
    if not ends:
        return []
    k = rng.randrange(1, len(ends), 2)
    return [(ends[0], ends[k])] + _matching(rng, ends[1:k]) + _matching(rng, ends[k + 1:])


def _quake_inputs(leaves=12, seed=5):
    """A seeded lamination of disjoint leaves with log-uniform weights
    in [0.05, 2], and a points file: one point on each of three leaves
    (the point of the leaf nearest the apex), six points beyond random
    leaves (4 to 8 from the apex, toward the middle of the leaf's shorter
    arc) and three at 1 to 6 from the apex toward random ideal points."""
    rng = random.Random(seed)
    ends = sorted(round(rng.random(), 6) for _ in range(2 * leaves))
    chords = _matching(rng, ends)
    lamination = {"leaves": [
        {"end1": a, "end2": b, "weight": round(math.exp(rng.uniform(math.log(0.05),
                                                                   math.log(2.0))), 6)}
        for a, b in chords]}
    apex = [0.0, 0.0, 1.0]
    points = []
    for a, b in chords[:3]:
        n = geodesic_normal(RP1Point.from_theta(a).null_vector(),
                            RP1Point.from_theta(b).null_vector())
        points.append(hyperboloid_normalize(apex - inner(n, apex) * n))
    for k in range(9):
        if k < 6:
            a, b = rng.choice(chords)
            theta, r = (a + b) / 2 + (0.5 if b - a > 0.5 else 0.0), rng.uniform(4.0, 8.0)
        else:
            theta, r = rng.random(), rng.uniform(1.0, 6.0)
        x, y, _ = RP1Point.from_theta(theta).null_vector()
        points.append([math.sinh(r) * x, math.sinh(r) * y, math.cosh(r)])
    rows = ["# x,y,t on the hyperboloid; the first three lie on leaves"]
    rows += [",".join(repr(float(x)) for x in p) for p in points]
    return _dumps(lamination), "\n".join(rows) + "\n"


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    report = json.loads(buf.getvalue())
    return _dumps({"values": report["values"], "checks": report["checks"]})


def _outputs(workdir):
    """Name -> text of every golden file, computed in workdir."""
    octagon = lorentz21.bundled("octagon_rep.json")
    curve = lorentz21.bundled("single_curve.json")
    outdir = os.path.join(workdir, "build")
    sheared = os.path.join(workdir, "sheared_b1.json")
    out = {"sheared_b1.json": _sheared_octagon()}
    with open(sheared, "w") as fh:
        fh.write(out["sheared_b1.json"])
    out["flat_check.json"] = _run(["flat", "check", octagon, curve])
    out["flat_build.json"] = _run(["flat", "build", octagon, curve, "--out", outdir])
    for name in ARTIFACTS:
        with open(os.path.join(outdir, name)) as fh:
            out[name] = fh.read()
    out["ads_between.json"] = _run(["ads", "between", octagon, sheared,
                                    "--ball", "4", "--density", "0"])
    out["quake_lamination.json"], out["quake_points.csv"] = _quake_inputs()
    for name in ("quake_lamination.json", "quake_points.csv"):
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(out[name])
    for side in ("left", "right"):
        quakedir = os.path.join(workdir, "quake_" + side)
        out["quake_%s.json" % side] = _run(
            ["quake", os.path.join(workdir, "quake_lamination.json"), "0.8",
             "--side", side, "--density", "512",
             "--points", os.path.join(workdir, "quake_points.csv"), "--out", quakedir])
        for name in ("boundary.csv", "images.csv"):
            with open(os.path.join(quakedir, name)) as fh:
                out["quake_%s_%s" % (side, name)] = fh.read()
    return out


def test_golden_reports(tmp_path):
    for name, text in _outputs(str(tmp_path)).items():
        with open(os.path.join(GOLDEN, name)) as fh:
            assert text == fh.read(), name


# sha256 of the artifacts `ads between` writes from the octagon to its
# golden b1 shear at ball 4 on the full graph; the two files take 317 kB,
# so their digests are pinned rather than the files
ADS_ARTIFACTS = {
    "hull.obj": "6216ac58925e39457ee3f14e5e27343c978b531e76bc0bf7a080e2c793c0c650",
    "bending.json": "fac07c85194de1e9dc089fa202e9c950da7c12864e72e76d3ad1b27ca079852f",
}


def test_ads_artifacts_pinned(tmp_path):
    outdir = str(tmp_path / "ads")
    _run(["ads", "between", lorentz21.bundled("octagon_rep.json"),
          os.path.join(GOLDEN, "sheared_b1.json"), "--ball", "4", "--density", "0",
          "--out", outdir])
    for name, digest in ADS_ARTIFACTS.items():
        with open(os.path.join(outdir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = _outputs(tmp)
    os.makedirs(GOLDEN, exist_ok=True)
    for name, text in outputs.items():
        with open(os.path.join(GOLDEN, name), "w") as fh:
            fh.write(text)
        print("wrote", os.path.join(GOLDEN, name))
