"""Reports and artifacts pinned byte for byte.

The files under data/golden hold the `values` and `checks` of three CLI
runs and the artifacts `flat build` writes.  The test reruns the same
commands and asserts exact equality, so a refactor that changes any
printed digit fails here.  After an intended output change, regenerate
the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import lorentz21
from lorentz21 import quakes
from lorentz21.cli import main
from lorentz21.fuchsian import Representation
from lorentz21.laminations import WeightedMulticurve

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
ARTIFACTS = ("cocycle.json", "surface.obj", "support_planes.json")


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sheared_octagon():
    """The octagon sheared along b1 (weight 1) by 0.55, as rep JSON."""
    rep = Representation.load(lorentz21.bundled("octagon_rep.json"))
    mc = WeightedMulticurve([("b1", 1.0)])
    return _dumps(quakes.rep_after_earthquake(rep, mc, 0.55, L=3).to_json())


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
    return out


def test_golden_reports(tmp_path):
    for name, text in _outputs(str(tmp_path)).items():
        with open(os.path.join(GOLDEN, name)) as fh:
            assert text == fh.read(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = _outputs(tmp)
    os.makedirs(GOLDEN, exist_ok=True)
    for name, text in outputs.items():
        with open(os.path.join(GOLDEN, name), "w") as fh:
            fh.write(text)
        print("wrote", os.path.join(GOLDEN, name))
