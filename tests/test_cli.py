import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lorentz21
from lorentz21 import adshull, cli, flatspace, fuchsian
from lorentz21 import laminations as lamins
from lorentz21.cli import main
from lorentz21.fuchsian import Representation, regular_polygon_rep
from reference import ball_radii, hull_obj, steep_graph_rows


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_euler_bundled_octagon(capsys):
    code, report = run_cli(["euler", lorentz21.bundled("octagon_rep.json")], capsys)
    assert code == 0
    assert report["schema"] == "lorentz21/euler/1"
    assert abs(report["values"]["euler_class"]) == 2
    assert all(c["ok"] for c in report["checks"])


def test_euler_trivial_rep(capsys):
    code, report = run_cli(["euler", lorentz21.bundled("trivial_rep.json")], capsys)
    assert code == 0
    assert report["values"]["euler_class"] == 0


def test_euler_corrupt_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_cli(["euler", str(bad)], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert "error" in report


def test_missing_file(capsys):
    code, report = run_cli(["euler", "/nonexistent/rep.json"], capsys)
    assert code == 2


def test_report_determinism():
    cmd = [sys.executable, "-m", "lorentz21.cli", "euler",
           lorentz21.bundled("octagon_rep.json")]
    out1 = subprocess.run(cmd, capture_output=True).stdout
    out2 = subprocess.run(cmd, capture_output=True).stdout
    assert out1 == out2


def test_flat_check(capsys):
    code, report = run_cli(["flat", "check", lorentz21.bundled("octagon_rep.json"),
                            lorentz21.bundled("single_curve.json")], capsys)
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["multicurve-disjoint"]["ok"]
    assert names["cocycle-identity"]["residual"] < 1e-8
    assert names["relator-residual"]["residual"] < 1e-8


def test_flat_check_crossing_curves_fails(tmp_path, capsys):
    mc = tmp_path / "mc.json"
    mc.write_text(json.dumps({"curves": [{"word": "a1", "weight": 1.0},
                                         {"word": "b1", "weight": 1.0}]}))
    code, report = run_cli(["flat", "check", lorentz21.bundled("octagon_rep.json"),
                            str(mc)], capsys)
    assert code == 1
    names = {c["name"]: c for c in report["checks"]}
    assert not names["multicurve-disjoint"]["ok"]
    # the failed check still reports the leaf lifts it compared
    lifts = lamins.multicurve_lifts(Representation.load(lorentz21.bundled("octagon_rep.json")),
                                    lamins.WeightedMulticurve.load(str(mc)), 3)
    assert report["diagnostics"] == {"leaf_lifts": len(lifts)} and len(lifts) > 0


@pytest.mark.parametrize("mode", ["check", "build"])
@pytest.mark.parametrize("curves", [[("a1", 0.7), ("B1 a1 b1", 0.4)],
                                    [("B1 a1 b1", 0.4), ("a1", 0.7)]],
                         ids=["a1-first", "a1-second"])
def test_flat_conjugate_classes_fail_disjointness(tmp_path, capsys, mode, curves):
    """Two conjugate classes share their leaves: flat fails the
    disjointness check (exit 1) before any lift query could refuse them."""
    mc = tmp_path / "mc.json"
    mc.write_text(json.dumps({"curves": [{"word": w, "weight": x} for w, x in curves]}))
    code, report = run_cli(["flat", mode, lorentz21.bundled("octagon_rep.json"), str(mc)], capsys)
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["multicurve-disjoint"]


def test_flat_build_empty_multicurve(tmp_path, capsys):
    code, report = run_cli(["flat", "build", lorentz21.bundled("octagon_rep.json"),
                            lorentz21.bundled("empty_multicurve.json"),
                            "--density", "25", "--out", str(tmp_path)], capsys)
    assert code == 0
    vecs = report["values"]["generator_vectors"]
    assert max(abs(v) for t in vecs for v in t) == 0.0
    for name in ("report.json", "cocycle.json", "surface.obj", "support_planes.json"):
        assert os.path.exists(os.path.join(str(tmp_path), name))


def test_flat_build_artifacts_and_checks(tmp_path, capsys):
    code, report = run_cli(["flat", "build", lorentz21.bundled("octagon_rep.json"),
                            lorentz21.bundled("single_curve.json"),
                            "--density", "40", "--out", str(tmp_path)], capsys)
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["graph-slope"]["residual"] < 1.0
    assert names["injectivity-gap"]["ok"]
    assert names["x-spacelike-or-zero"]["ok"]
    obj = open(os.path.join(str(tmp_path), "surface.obj")).read()
    assert sum(1 for line in obj.split("\n") if line.startswith("v ")) == 40


def test_quake_single_leaf(tmp_path, capsys):
    s = 2.0
    code, report = run_cli(["quake", lorentz21.bundled("single_leaf_lamination.json"),
                            "1.0", "--density", "64", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert report["values"]["leaves"] == 1
    rows = open(os.path.join(str(tmp_path), "boundary.csv")).read().strip().split("\n")
    assert len(rows) == 64
    # negative-real arc (theta in (0.5, 1)) maps identically
    for row in rows:
        a, b = map(float, row.split(","))
        if 0.55 < a < 0.95:
            assert abs(a - b) < 1e-9


def test_quake_scale_zero_identity_images(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0,0.5,1.5\n-2.0,2.0,3.0\n")
    code, report = run_cli(["quake", lorentz21.bundled("single_leaf_lamination.json"),
                            "0.0", "--points", str(pts), "--density", "16",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    for row in open(os.path.join(str(tmp_path), "images.csv")).read().strip().split("\n"):
        vals = row.split(",")
        assert vals[-1] == "ok"
        p = [float(v) for v in vals[:3]]
        q = [float(v) for v in vals[3:6]]
        assert max(abs(a - b) for a, b in zip(p, q)) < 1e-12


def test_quake_flags_on_leaf_points(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.0,0.0,1.0\n")  # on the (0, infinity) leaf
    code, report = run_cli(["quake", lorentz21.bundled("single_leaf_lamination.json"),
                            "1.0", "--points", str(pts), "--density", "16"], capsys)
    assert code == 0
    assert report["values"]["ambiguous_points"] == 1


def test_ads_hull_sshear(tmp_path, capsys):
    s = 4.0
    rows = []
    n = 64
    r = math.sqrt(s)
    for k in range(n):
        t = k / n
        a = math.pi * t
        u, v = math.cos(a), math.sin(a)
        if v < 1e-15 or u / v >= 0:
            from lorentz21.minkowski import Mat2, RP1Point
            import numpy as np

            out = RP1Point([u, v]).apply(Mat2(np.diag([r, 1 / r])).m).theta
        else:
            out = t
        rows.append("%.12f,%.12f" % (t, out))
    graph = tmp_path / "graph.csv"
    graph.write_text("\n".join(rows) + "\n")
    code, report = run_cli(["ads", "hull", str(graph), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert report["values"]["future_faces"] == 2
    assert abs(report["values"]["total_shear"] - math.log(s)) < 1e-6
    for name in ("hull.obj", "bending.json", "boundary.csv", "graph.csv"):
        assert os.path.exists(os.path.join(str(tmp_path), name))
    bend = json.load(open(os.path.join(str(tmp_path), "bending.json")))
    weights = [e["weight"] for e in bend["edges"] if e["weight"]]
    assert any(abs(w - 0.5 * math.log(s)) < 1e-6 for w in weights)


@pytest.mark.parametrize("seed", [0, 1, 5, 6])
def test_ads_hull_artifacts_match_references(tmp_path, capsys, seed):
    graph = tmp_path / "graph.csv"
    graph.write_text("\n".join(steep_graph_rows(seed)) + "\n")
    out = tmp_path / "out"
    code, report = run_cli(["ads", "hull", str(graph), "--out", str(out)], capsys)
    assert code in (0, 1)
    hull = adshull.convex_hull(adshull.CircleGraph.from_csv_rows(graph.read_text().split("\n")))
    pairs, shared, start, weights = adshull.bending_data(hull)
    assert np.isnan(weights).any()
    assert (out / "hull.obj").read_text() == hull_obj(hull)
    edges = json.loads((out / "bending.json").read_text())["edges"]
    assert [e["weight"] is None for e in edges] == np.isnan(weights).tolist()
    assert [[e["face_i"], e["face_j"]] for e in edges] == pairs.tolist()
    assert [e["shared_vertices"] for e in edges] == [shared[lo:hi].tolist() for lo, hi
                                                     in zip(start[:-1], start[1:])]
    assert [e["weight"] for e in edges if e["weight"] is not None] == \
        weights[~np.isnan(weights)].tolist()
    assert report["values"]["shear_edges"] == [[2.0 * e["weight"], e["face_i"], e["face_j"]]
                                               for e in edges if e["weight"] is not None]


@pytest.mark.parametrize("seed", [119, 60])
def test_ads_hull_refuses_a_left_factor_without_determinant(tmp_path, capsys, seed):
    # near-null future faces have duals with entries near 2e4; the
    # recomputed determinant of a left factor cancels (seed 119 once
    # reported a NaN total_shear, seed 60 one built from an inf factor,
    # both with exit 0)
    graph = tmp_path / "graph.csv"
    graph.write_text("\n".join(steep_graph_rows(seed, n=40)) + "\n")
    code, report = run_cli(["ads", "hull", str(graph)], capsys)
    assert code == 1
    assert report["error"] == "RuntimeError: a left factor lost its determinant to rounding"


def test_ads_between_same_rep_flat(capsys):
    rep = lorentz21.bundled("octagon_rep.json")
    code, report = run_cli(["ads", "between", rep, rep, "--ball", "4"], capsys)
    assert code == 0
    assert report["values"]["flat"] is True
    assert report["values"]["total_shear"] == 0.0
    assert "notice" in report["values"]


def test_flat_check_out_of_range_generator(tmp_path, capsys):
    mc = tmp_path / "mc.json"
    mc.write_text(json.dumps({"curves": [{"word": "a9", "weight": 1.0}]}))
    code, report = run_cli(["flat", "check", lorentz21.bundled("octagon_rep.json"),
                            str(mc)], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert "out of range" in report["error"]


def _too_few_samples(ball, count):
    return "ValueError: the radius-%d ball gives %d conjugacy samples; need at least 3" % (
        ball, count)


def test_ads_between_ball_zero(capsys):
    rep = lorentz21.bundled("octagon_rep.json")
    code, report = run_cli(["ads", "between", rep, rep, "--ball", "0"], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert report["error"] == _too_few_samples(0, 0)


def test_ads_between_ball_one_on_one_axis(tmp_path, capsys):
    # the octagon's radius-1 ball gives 8 samples; generators that share
    # one axis attract to its two ends, so their 8 words give two samples
    rep = tmp_path / "one_axis.json"
    rep.write_text(json.dumps({"genus": 2, "generators": [np.diag([k, 1.0 / k]).tolist()
                                                          for k in (2.0, 3.0, 2.0, 3.0)]}))
    code, report = run_cli(["ads", "between", str(rep), str(rep), "--ball", "1"], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert report["error"] == _too_few_samples(1, 2)


def test_ads_between_ball_one_with_one_generator(tmp_path, capsys):
    # the ball holds one word per group element, so the generators the
    # representation sends to the identity are elements that are not
    # hyperbolic: no Fuchsian conjugacy samples them
    rep = tmp_path / "one_generator.json"
    rep.write_text(json.dumps({"genus": 2, "generators": [[[2.0, 0.0], [0.0, 0.5]]] + [_I] * 3}))
    code, report = run_cli(["ads", "between", str(rep), str(rep), "--ball", "1"], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert report["error"] == "ValueError: element is not hyperbolic (trace 2.000000)"


def test_ads_between_mirrored_octagon_is_not_monotone(tmp_path, capsys):
    # J g J with J = diag(1, -1) reverses the circle, so the conjugacy
    # from the octagon runs backwards
    rep = lorentz21.bundled("octagon_rep.json")
    j = np.diag([1.0, -1.0])
    generators = [(j @ g @ j).tolist() for g in Representation.load(rep).generators]
    mirrored = tmp_path / "mirrored.json"
    mirrored.write_text(json.dumps({"genus": 2, "generators": generators}))
    code, report = run_cli(["ads", "between", rep, str(mirrored), "--ball", "3"], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert report["error"] == "ValueError: conjugacy samples are not cyclically monotone"


_OCTAGON, _CURVE = lorentz21.bundled("octagon_rep.json"), lorentz21.bundled("single_curve.json")


@pytest.mark.parametrize("argv", [
    ["euler", "BAD"], ["flat", "check", "BAD", _CURVE], ["flat", "build", "BAD", _CURVE],
    ["ads", "between", _OCTAGON, "BAD", "--ball", "4"],
    ["ads", "between", "BAD", _OCTAGON, "--ball", "4"]],
    ids=["euler", "flat-check", "flat-build", "ads-between-right", "ads-between-left"])
def test_every_command_refuses_a_representation_failing_the_relator(tmp_path, capsys, argv):
    """Every command reads a representation through Representation.load,
    which refuses one failing is_valid(1e-6), as the Euler class does:
    here the octagon with b1 right-multiplied by [[1, 1e-5], [0, 1]],
    whose relator is 1.4e-4 from the identity."""
    generators = Representation.load(_OCTAGON).generators.copy()
    generators[1] = generators[1] @ np.array([[1.0, 1e-5], [0.0, 1.0]])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"genus": 2, "generators": generators.tolist()}))
    code, report = run_cli([str(bad) if arg == "BAD" else arg for arg in argv], capsys)
    assert code == 2
    assert report["error"] == "ValueError: relator is not central; representation invalid"


@pytest.mark.parametrize("genus", [1, 3])
def test_ads_between_genus_mismatch(tmp_path, capsys, genus):
    if genus == 1:
        other = {"genus": 1, "generators": [[[1.0, 0.0], [0.0, 1.0]]] * 2}
    else:
        other = regular_polygon_rep(3).to_json()
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    rep = lorentz21.bundled("octagon_rep.json")
    code, report = run_cli(["ads", "between", rep, str(path), "--ball", "2"], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert "genus" in report["error"]


def test_cli_import_leaves_scipy_unloaded():
    # only the hull needs scipy, and it loads Qhull when it is built;
    # euler and flat never pay for it
    code = ("import sys, lorentz21.cli; "
            "sys.exit(int('scipy' in sys.modules or 'multiprocessing' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# runs the argv argv[1] (JSON) through cli.main in a fresh interpreter;
# prints [exit code, stdout, {each later argv: loaded}, a child unreaped]
_FRESH_CLI = """
import contextlib, io, json, os, sys
from lorentz21.cli import main

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[1]))
try:
    os.waitpid(-1, os.WNOHANG)
    child = True
except ChildProcessError:
    child = False
print(json.dumps([code, out.getvalue(), {m: m in sys.modules for m in sys.argv[2:]}, child]))
"""


_BETWEEN = ["ads", "between", lorentz21.bundled("octagon_rep.json"),
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden",
                         "sheared_b1.json"), "--ball", "3", "--density", "0"]


def test_ads_between_loads_qhull_alone(capsys):
    # a fresh CLI process loads Qhull's extension module and no scipy
    # package beside it, starts no process, and prints the report of
    # this process, which may hold all of scipy.spatial
    modules = ["scipy.spatial._qhull", "scipy.spatial", "scipy.linalg", "scipy.sparse",
               "scipy.special", "multiprocessing"]
    run = subprocess.run([sys.executable, "-c", _FRESH_CLI, json.dumps(_BETWEEN)] + modules,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    code, out, loaded, child = json.loads(run.stdout)
    assert (code, child) == (0, False)
    assert [m for m in modules if loaded[m]] == ["scipy.spatial._qhull"]
    assert main(_BETWEEN) == 0
    assert out == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["euler", lorentz21.bundled("octagon_rep.json")], _BETWEEN,
    ["quake", lorentz21.bundled("single_leaf_lamination.json"), "1.0", "--density", "8"]],
    ids=["euler", "ads between", "quake"])
def test_cli_loads_neither_openssl_nor_numpy_ma(argv):
    # the input digests come from CPython's built-in SHA-256, and the
    # hull calls Qhull without scipy's wrapper; hashlib would load
    # OpenSSL and scipy's wrapper or a plain np.unique numpy.ma
    modules = ["_hashlib", "hashlib", "numpy.ma"]
    run = subprocess.run([sys.executable, "-c", _FRESH_CLI, json.dumps(argv)] + modules,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    code, _, loaded, _ = json.loads(run.stdout)
    assert code == 0
    assert [m for m in modules if loaded[m]] == []


def test_input_digests_are_sha256():
    import hashlib

    from lorentz21.cli import _digest

    data = os.path.dirname(lorentz21.bundled("octagon_rep.json"))
    for name in sorted(os.listdir(data)):
        with open(os.path.join(data, name), "rb") as fh:
            assert _digest(os.path.join(data, name)) == hashlib.sha256(fh.read()).hexdigest()


def _nan_rep(path):
    data = json.load(open(lorentz21.bundled("octagon_rep.json")))
    data["generators"][1][0][1] = math.nan
    path.write_text(json.dumps(data))
    return ["euler", str(path)]


def _weight(value):
    def argv(path):
        path.write_text(json.dumps({"curves": [{"word": "a1", "weight": value}]}))
        return ["flat", "check", lorentz21.bundled("octagon_rep.json"), str(path)]
    return argv


def _lamination(field, value):
    def argv(path):
        data = json.load(open(lorentz21.bundled("single_leaf_lamination.json")))
        if field == "basepoint":
            data["basepoint"] = value
        else:
            data["leaves"][0][field] = value
        path.write_text(json.dumps(data))
        return ["quake", str(path), "1.0", "--density", "8"]
    return argv


def _general_leaf(scale):
    def argv(path):
        path.write_text(json.dumps({"leaves": [{"end1": 0.1, "end2": 0.3, "weight": 1.0}]}))
        return ["quake", str(path), scale, "--density", "8"]
    return argv


def _rep(genus, generators):
    def argv(path):
        path.write_text(json.dumps({"genus": genus, "generators": generators}))
        return ["euler", str(path)]
    return argv


_I = [[1.0, 0.0], [0.0, 1.0]]


def _malformed(command, data):
    """A command reading a file that holds data: the octagon's flat
    check of a multicurve, a quake along a lamination, or the Euler
    class of a representation."""
    def argv(path):
        path.write_text(json.dumps(data))
        return {"flat": ["flat", "check", lorentz21.bundled("octagon_rep.json"), str(path)],
                "quake": ["quake", str(path), "1.0", "--density", "8"],
                "euler": ["euler", str(path)]}[command]
    return argv


def _points(path):
    path.write_text("1.0,0.5,1.5\nnan,0.5,1.5\n")
    return ["quake", lorentz21.bundled("single_leaf_lamination.json"), "1.0",
            "--points", str(path), "--density", "8"]


def _graph(path):
    path.write_text("0.0,0.0\n0.25,nan\n0.5,0.5\n0.75,0.75\n")
    return ["ads", "hull", str(path)]


@pytest.mark.parametrize("make_argv", [
    _nan_rep, _weight(math.nan), _weight(math.inf), _lamination("end1", math.nan),
    _lamination("weight", math.inf), _lamination("basepoint", [-math.inf, 0.0, 1.0]), _points,
    _graph],
    ids=["rep-nan", "weight-nan", "weight-inf", "end-nan", "leaf-weight-inf",
         "basepoint-inf", "point-nan", "graph-nan"])
def test_non_finite_input_is_invalid(tmp_path, capsys, make_argv):
    code, report = run_cli(make_argv(tmp_path / "input"), capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert "must be finite" in report["error"]


_LEAF = lorentz21.bundled("single_leaf_lamination.json")
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
_GOLDEN_LAMINATION = os.path.join(_GOLDEN, "quake_lamination.json")


def _point(lamination, row):
    def argv(path):
        path.write_text(row + "\n")
        return ["quake", lamination, "1.0", "--points", str(path), "--density", "8"]
    return argv


def _graph_row(row):
    def argv(path):
        path.write_text("0.0,0.0\n%s\n0.5,0.5\n0.75,0.75\n" % row)
        return ["ads", "hull", str(path)]
    return argv


def _golden_point(scale):
    """The first golden point, which lies on a leaf of the golden
    lamination, times scale, as a points row."""
    with open(os.path.join(_GOLDEN, "quake_points.csv")) as fh:
        row = [line for line in fh if not line.startswith("#")][0]
    return ",".join(repr(scale * float(v)) for v in row.split(","))


@pytest.mark.parametrize("argv, message", [
    (["euler", lorentz21.bundled("octagon_rep.json"), "--tol", "nan"], "must be finite"),
    (["euler", lorentz21.bundled("octagon_rep.json"), "--tol", "-1"], ">= 0"),
    (["flat", "check", lorentz21.bundled("octagon_rep.json"),
      lorentz21.bundled("single_curve.json"), "--tol", "nan"], "must be finite"),
    (["quake", _LEAF, "nan"], "must be finite"),
    (["quake", _LEAF, "inf"], "must be finite"),
    (["quake", _LEAF, "1.0", "--density", "0"], ">= 1"),
    (["quake", _LEAF, "1.0", "--density", "-5"], ">= 1"),
    # shears past exp's range: a huge scale, or a huge leaf weight
    (["quake", _LEAF, "2500", "--density", "8"], "overflows"),
    (_lamination("weight", 1e300), "overflows"),
    # shears within exp's range whose matrix overflows, or whose
    # recomputed determinant cancels to <= 0 (from about scale 38), and
    # one past exp's range
    (_general_leaf("1000"), "a shear of 1000 along a leaf overflows"),
    (_general_leaf("38"), "a shear of 38 along a leaf lost its determinant to rounding"),
    (_general_leaf("2500"), "a shear of 2500 along a leaf overflows"),
    # a generator whose determinant overflows; a genus that is not a JSON integer
    (_rep(2, [[[1e200, 0.0], [0.0, 1e200]]] + [_I] * 3), "finite positive determinant"),
    (_rep(2.7, [_I] * 4), "genus must be an integer"),
    (_rep(True, [_I] * 2), "genus must be an integer"),
    # a record that is not an object, or lacks a key, is named
    (_malformed("flat", {"curves": [["a1", 1.0]]}), "curves[0] must be a JSON object"),
    (_malformed("flat", {"curves": [{"word": "a1"}]}), "curves[0] lacks the key 'weight'"),
    (_malformed("quake", {"leaves": [[0.1, 0.3, 1.0]]}), "leaves[0] must be a JSON object"),
    (_malformed("euler", []), "representation must be a JSON object"),
    # a list of records that is not a JSON array is named
    (_malformed("flat", {"curves": {"word": "a1", "weight": 1.0}}),
     "curves must be a JSON array, not dict"),
    (_malformed("flat", {"curves": 5}), "curves must be a JSON array, not int"),
    (_malformed("quake", {"leaves": 5}), "leaves must be a JSON array, not int"),
    (_malformed("euler", {"genus": 2, "generators": 5}),
     "generators must be a JSON array, not int"),
    # a spacelike basepoint, and the apex, which lies on the bundled leaf
    (_lamination("basepoint", [2.0, 0.0, 1.0]), "future timelike"),
    (_lamination("basepoint", [0.0, 0.0, 1.0]), "within 1e-9 of a leaf"),
    # a null direction whose Minkowski square overflows
    (_lamination("basepoint", [1e200, 0.0, 1e200]), "future timelike"),
    # points off the hyperboloid: a spacelike one, and an on-leaf one scaled
    (_point(_LEAF, "2,0,1"), "not a point (x, y, t) of the hyperboloid"),
    (_point(_GOLDEN_LAMINATION, _golden_point(1e9)), "not a point (x, y, t) of the hyperboloid"),
    # a cell that is no number, or not finite, names its row
    (_point(_LEAF, "0.1,0.2,x"),
     "points row '0.1,0.2,x' is not a point (x, y, t) of the hyperboloid"),
    (_point(_LEAF, "nan,0.5,1.5"),
     "points row 'nan,0.5,1.5' is not a point (x, y, t) of the hyperboloid"),
    (_point(_LEAF, "1e200,0,1e200"),
     "points row '1e200,0,1e200' is not a point (x, y, t) of the hyperboloid"),
    # graph rows that are not two numbers are named
    *[(_graph_row(row), "graph row %r is not two numbers theta_in,theta_out" % row)
      for row in ("0.3,0.4,0.5", "0.3", "0.3,x")],
    # a build needs two samples for its injectivity pairs
    *[(["flat", "build", lorentz21.bundled("octagon_rep.json"),
        lorentz21.bundled("single_curve.json"), "--density", d], "--density must be >= 2")
      for d in ("-5", "0", "1")],
    # a hull needs three samples; the missing second file shows that the
    # density is refused before either representation is read
    *[(["ads", "between", lorentz21.bundled("octagon_rep.json"), "missing_rep.json",
        "--density", d], "--density must be 0 or >= 3") for d in ("-5", "1", "2")],
    # a negative ball radius or quake scale
    (["flat", "check", lorentz21.bundled("octagon_rep.json"),
      lorentz21.bundled("single_curve.json"), "--ball", "-1"], "radius must be >= 0"),
    (["ads", "between", lorentz21.bundled("octagon_rep.json"),
      os.path.join(_GOLDEN, "sheared_b1.json"), "--ball", "-1"], "radius must be >= 0"),
    (["quake", _LEAF, "-1"], "scale must be >= 0")],
    ids=["tol-nan", "tol-negative", "flat-tol-nan", "scale-nan", "scale-inf",
         "density-zero", "density-negative", "scale-overflow", "weight-overflow",
         "matrix-overflow", "shear-determinant-lost", "leaf-scale-overflow",
         "generator-overflow", "genus-float", "genus-bool",
         "curve-not-object", "curve-without-weight", "leaf-not-object", "rep-not-object",
         "curves-object", "curves-int", "leaves-int", "generators-int",
         "basepoint-spacelike", "basepoint-on-leaf", "basepoint-overflow", "point-spacelike",
         "point-scaled", "point-text", "point-nan-named", "point-overflow",
         "graph-row-three", "graph-row-one", "graph-row-text",
         "flat-density-negative", "flat-density-zero", "flat-density-one",
         "ads-density-negative", "ads-density-one", "ads-density-two",
         "flat-ball-negative", "ads-ball-negative", "scale-negative"])
def test_invalid_scalar_option_is_invalid(tmp_path, capsys, argv, message):
    if callable(argv):
        argv = argv(tmp_path / "input")
    code, report = run_cli(argv, capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert message in report["error"]


def _word(value):
    return _malformed("flat", {"curves": [{"word": value, "weight": 1.0}]})


def _generator(value, entry=True):
    """The octagon with generators[1]'s top right entry, or all of
    generators[1], replaced by value."""
    data = json.load(open(lorentz21.bundled("octagon_rep.json")))
    if entry:
        data["generators"][1][0][1] = value
    else:
        data["generators"][1] = value
    return _malformed("euler", data)


@pytest.mark.parametrize("make_argv, message", [
    (_weight(True), "curves[0].weight takes only JSON numbers, not bool"),
    (_weight("2.5"), "curves[0].weight takes only JSON numbers, not str"),
    (_weight(None), "curves[0].weight takes only JSON numbers, not NoneType"),
    (_weight({"value": 2.5}), "curves[0].weight takes only JSON numbers, not dict"),
    (_weight([2.5]), "curves[0].weight must be one JSON number, not list"),
    (_word([1, 2]), "curves[0].word must be a JSON string, not list"),
    (_word(5), "curves[0].word must be a JSON string, not int"),
    (_generator("-0.8662103659328324"), "generators[1] takes only JSON numbers, not str"),
    (_generator(False), "generators[1] takes only JSON numbers, not bool"),
    (_generator(None), "generators[1] takes only JSON numbers, not NoneType"),
    (_generator("a1", entry=False), "generators[1] takes only JSON numbers, not str"),
    (_generator([[0.5, 0.2], [0.86]], entry=False), "generators[1] must be a 2x2 matrix"),
    (_generator([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], entry=False),
     "generators[1] must be a 2x2 matrix"),
    (_generator([], entry=False), "generators[1] must be a 2x2 matrix"),
    (_lamination("end1", "0.1"), "leaves[0].end1 takes only JSON numbers, not str"),
    (_lamination("end2", [0.3]), "leaves[0].end2 must be one JSON number, not list"),
    (_lamination("weight", True), "leaves[0].weight takes only JSON numbers, not bool"),
    (_lamination("basepoint", ["0.1", 0.0, 1.0]), "basepoint takes only JSON numbers, not str"),
    (_lamination("basepoint", {"x": 0.1}), "basepoint takes only JSON numbers, not dict"),
    (_lamination("basepoint", [[0.1], 0.0, 1.0]), "basepoint must hold arrays of equal lengths")],
    ids=["weight-true", "weight-text", "weight-null", "weight-object", "weight-array",
         "word-array", "word-int", "entry-text", "entry-false", "entry-null", "generator-text",
         "generator-ragged", "generator-two-by-three", "generator-empty", "end1-text", "end2-array", "leaf-weight-true", "basepoint-text", "basepoint-object",
         "basepoint-ragged"])
def test_numeric_json_fields_take_only_numbers(tmp_path, capsys, make_argv, message):
    """A numeric field holds JSON numbers and a word a JSON string; any
    other JSON value is invalid input, named by its field."""
    code, report = run_cli(make_argv(tmp_path / "input"), capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert message in report["error"]


def test_refused_points_write_no_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code, report = run_cli(_point(_LEAF, "2,0,1")(tmp_path / "pts.csv") + ["--out", str(out)],
                           capsys)
    assert code == 2
    assert not out.exists()


_OCTAGON = lorentz21.bundled("octagon_rep.json")


@pytest.mark.parametrize("argv", [
    ["euler", _OCTAGON, "--ball", "3"], ["euler", _OCTAGON, "--density", "200"],
    ["euler", _OCTAGON, "--seed", "1"], ["quake", _LEAF, "1.0", "--tol", "1e-8"],
    ["quake", _LEAF, "1.0", "--ball", "3"], ["quake", _LEAF, "1.0", "--seed", "1"],
    ["ads", "hull", "graph.csv", "--ball", "3"], ["ads", "hull", "graph.csv", "--density", "200"],
    ["ads", "hull", "graph.csv", "--seed", "1"],
    ["ads", "between", _OCTAGON, _OCTAGON, "--seed", "1"]],
    ids=["euler-ball", "euler-density", "euler-seed", "quake-tol", "quake-ball", "quake-seed",
         "hull-ball", "hull-density", "hull-seed", "between-seed"])
def test_unread_flag_is_refused(argv, capsys):
    # each command takes only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_FINISHING = ["euler", "flat check", "flat build", "quake", "quake points", "ads hull",
              "ads between"]


def _finishing(name, tmp_path):
    """A command that finishes with a report, with its inputs."""
    graph = tmp_path / "graph.csv"
    graph.write_text("\n".join(steep_graph_rows(0)) + "\n")
    curve = lorentz21.bundled("single_curve.json")
    return {"euler": ["euler", _OCTAGON],
            "flat check": ["flat", "check", _OCTAGON, curve, "--ball", "2"],
            "flat build": ["flat", "build", _OCTAGON, curve, "--ball", "2", "--density", "8"],
            "quake": ["quake", _LEAF, "1.0", "--density", "8"],
            "quake points": ["quake", _GOLDEN_LAMINATION, "0.7", "--density", "8", "--points",
                             os.path.join(_GOLDEN, "quake_points.csv")],
            "ads hull": ["ads", "hull", str(graph)],
            "ads between": _BETWEEN}[name]


@pytest.mark.parametrize("name", _FINISHING)
def test_out_naming_a_file_prints_the_error_alone(tmp_path, capsys, name):
    # --out is filled before the report is printed, so a failed write
    # leaves one JSON document on stdout, the error
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    code, report = run_cli(_finishing(name, tmp_path) + ["--out", str(taken)], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert taken.read_text() == "a regular file\n"


def test_failed_write_removes_the_written_artifacts(tmp_path, capsys):
    # report.json, written last, cannot be written here, so boundary.csv,
    # written before it, is removed again
    out = tmp_path / "D"
    (out / "report.json").mkdir(parents=True)
    code, report = run_cli(["quake", _LEAF, "1.0", "--density", "8", "--out", str(out)], capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert os.listdir(out) == ["report.json"]


@pytest.mark.parametrize("name", _FINISHING)
def test_report_json_is_stdout(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert main(_finishing(name, tmp_path) + ["--out", str(out)]) in (0, 1)
    assert (out / "report.json").read_bytes() == capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", _FINISHING)
def test_stdout_without_out_is_report_json(tmp_path, capsys, name):
    """The report streams to stdout, or with --out into report.json,
    which is then copied to stdout: the two paths give the same bytes,
    but for the one `command` entry that records --out."""
    argv = _finishing(name, tmp_path)
    assert main(argv) in (0, 1)
    plain = capsys.readouterr().out
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) in (0, 1)
    capsys.readouterr()
    report = (out / "report.json").read_text()
    entry = '"out=%s"' % out
    assert report.count(entry) == 1
    assert report.replace(entry, '"out=None"') == plain


def _json_native(value):
    """Whether value is built from dict (str keys), list, str, int,
    float, bool and None alone, by exact type."""
    if type(value) is dict:
        return all(type(k) is str and _json_native(v) for k, v in value.items())
    if type(value) is list:
        return all(_json_native(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("name", _FINISHING)
def test_reports_hold_json_values_only(tmp_path, capsys, monkeypatch, name):
    """Reports and JSON artifacts are streamed, so a value the encoder
    refuses (a numpy integer, a tuple key) would stop one halfway, and
    the error document would follow a partial report on stdout: every
    report part and JSON artifact handed to _finish holds JSON values
    only, by exact type (a numpy float would encode, but is not one)."""
    finish, handed = cli._finish, []

    def recording(name, args, inputs, values, checks, diagnostics=None, artifacts=None):
        documents = [body for body in (artifacts or {}).values() if isinstance(body, dict)]
        handed.append([inputs, values, checks, diagnostics] + documents)
        return finish(name, args, inputs, values, checks, diagnostics, artifacts)

    monkeypatch.setattr(cli, "_finish", recording)
    assert main(_finishing(name, tmp_path) + ["--out", str(tmp_path / "out")]) in (0, 1)
    json.loads(capsys.readouterr().out)
    assert len(handed) == 1
    assert all(_json_native(part) for part in handed[0])


def test_enumeration_cap_is_an_internal_failure(monkeypatch, capsys):
    monkeypatch.setattr(fuchsian, "HARD_CAP", 3)
    code, report = run_cli(["flat", "check", lorentz21.bundled("octagon_rep.json"),
                            lorentz21.bundled("single_curve.json"), "--ball", "3"], capsys)
    assert code == 1
    assert report["schema"] == "lorentz21/error/1"
    assert report["error"].startswith("EnumerationCapError: ")


@pytest.mark.parametrize("cap, ball", [(3, 4), (4, 3), (8, 7), (8, 8)])
def test_flat_ball_above_the_cap_builds_no_ball_above_it(monkeypatch, capsys, cap, ball):
    # the basepoint's lift radius L + 2, above the cap, is refused before
    # the disjointness check builds the radius-L ball (at the real cap 8,
    # 1.08 M elements for --ball 7)
    monkeypatch.setattr(fuchsian, "HARD_CAP", cap)
    with ball_radii() as radii:
        code, report = run_cli(["flat", "check", lorentz21.bundled("octagon_rep.json"),
                                lorentz21.bundled("single_curve.json"), "--ball", str(ball)],
                               capsys)
    assert code == 1
    assert report["error"] == ("EnumerationCapError: ball radius %d is above the cap %d"
                               % (ball + 2, cap))
    assert radii == []


def test_ads_between_ball_above_the_cap_builds_no_ball(monkeypatch, capsys):
    # the conjugacy's ball is refused before it is built, as a lift's is
    monkeypatch.setattr(fuchsian, "HARD_CAP", 3)
    with ball_radii() as radii:
        code, report = run_cli(["ads", "between", lorentz21.bundled("octagon_rep.json"),
                                os.path.join(_GOLDEN, "sheared_b1.json"), "--ball", "4"],
                               capsys)
    assert code == 1
    assert report["error"].startswith("EnumerationCapError: ")
    assert radii == []


@pytest.mark.parametrize("ball", [7, 12])
def test_empty_multicurve_passes_at_any_ball(capsys, ball):
    # no class, so no lift radius to refuse: only the sweep builds balls
    with ball_radii() as radii:
        code, report = run_cli(["flat", "check", lorentz21.bundled("octagon_rep.json"),
                                lorentz21.bundled("empty_multicurve.json"), "--ball",
                                str(ball)], capsys)
    assert code == 0
    assert all(check["ok"] for check in report["checks"])
    assert sorted(radii) == [2, 4]


def test_no_basepoint_off_the_leaves_is_an_internal_failure(tmp_path, capsys):
    # a leaf through the apex and every nudge of laminations.basepoint_off
    theta = math.atan2(0.0271, 0.0131) / (2.0 * math.pi) + 0.25
    path = tmp_path / "lamination.json"
    path.write_text(json.dumps(
        {"leaves": [{"end1": theta, "end2": theta + 0.5, "weight": 1.0}]}))
    code, report = run_cli(["quake", str(path), "1.0", "--density", "8"], capsys)
    assert code == 1
    assert report["schema"] == "lorentz21/error/1"
    assert report["error"].startswith("RuntimeError: no basepoint off all leaves")


def test_qhull_failure_is_an_internal_failure(tmp_path, monkeypatch, capsys):
    from scipy.spatial import QhullError

    from lorentz21 import adshull

    def fail(points, qhull_options=None):
        raise QhullError("QH6154 initial simplex is flat, options %r" % qhull_options)

    monkeypatch.setattr(adshull, "ConvexHull", fail)
    graph = tmp_path / "stairs.csv"
    graph.write_text("\n".join(_staircase_rows()) + "\n")
    code, report = run_cli(["ads", "hull", str(graph)], capsys)
    assert code == 1
    assert report["schema"] == "lorentz21/error/1"
    # the failure is retried with the QJ joggle, whose failure is reported
    assert report["error"] == "QhullError: QH6154 initial simplex is flat, options 'QJ'"


def test_failed_allocation_is_an_internal_failure(monkeypatch, capsys):
    # a --density too large to allocate; patched, as a real allocation
    # of that size may succeed lazily on a system that overcommits
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 146. TiB")

    monkeypatch.setattr(flatspace, "develop_surface", fail)
    code, report = run_cli(["flat", "build", lorentz21.bundled("octagon_rep.json"),
                            lorentz21.bundled("single_curve.json"), "--ball", "1",
                            "--density", "10000000000000"], capsys)
    assert code == 1
    assert report == {"schema": "lorentz21/error/1",
                      "error": "MemoryError: Unable to allocate 146. TiB"}


@pytest.mark.parametrize("make_argv", [
    lambda deep: ["euler", deep],
    lambda deep: ["quake", deep, "0.5"],
    lambda deep: ["ads", "between", _OCTAGON, deep],
    lambda deep: ["flat", "check", _OCTAGON, deep],
], ids=["euler", "quake", "ads-between", "flat-check"])
def test_too_deeply_nested_input_is_invalid(tmp_path, capsys, make_argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, report = run_cli(make_argv(str(deep)), capsys)
    assert code == 2
    assert report["schema"] == "lorentz21/error/1"
    assert report["error"].startswith("RecursionError: ")


def _staircase_rows(steps=3, m=5):
    """Alternating runs of constant right and constant left angle; the
    hull's faces through the corners are null, future ones among them."""
    rows = []
    for k in range(steps):
        a, b = k / steps, (k + 0.5) / steps
        rows += ["%.12f,%.12f" % (a + 0.5 * j / (steps * m), b) for j in range(m)]
        rows += ["%.12f,%.12f" % (a + 0.5 / steps, b + 0.5 * j / (steps * m)) for j in range(m)]
    return rows




def test_diagnostics_block(tmp_path, capsys):
    graph = tmp_path / "stairs.csv"
    graph.write_text("\n".join(_staircase_rows()) + "\n")
    octagon = lorentz21.bundled("octagon_rep.json")
    curve = lorentz21.bundled("single_curve.json")
    runs = {"ads": ["ads", "hull", str(graph)], "between": _BETWEEN,
            "flat": ["flat", "build", octagon, curve, "--ball", "3", "--density", "50"],
            "quake": ["quake", _GOLDEN_LAMINATION, "0.8", "--density", "8"]}
    hull_keys = {"qhull_facets", "merged_faces", "qhull_joggled", "strata",
                 "null_future_faces_skipped"}
    keys = {"ads": hull_keys,
            "between": hull_keys | {"conjugacy_candidates", "conjugacy_dedup_kept"},
            "flat": {"leaf_lifts", "sweep_ball_radius", "perturbed_samples"},
            "quake": {"shear_trace_error"}}
    for name, argv in runs.items():
        first = run_cli(argv, capsys)[1]
        second = run_cli(argv, capsys)[1]
        assert set(first["diagnostics"]) == keys[name]
        assert first["diagnostics"] == second["diagnostics"]
        assert "diagnostics" not in first["values"]
        diag = first["diagnostics"]
        if name == "ads":
            assert diag["merged_faces"] == first["values"]["future_faces"] + \
                first["values"]["past_faces"]
            assert diag["merged_faces"] < diag["qhull_facets"]
            assert diag["null_future_faces_skipped"] > 0
            assert diag["qhull_joggled"] is False
        elif name == "between":
            # every nontrivial element of the radius-3 ball is a candidate;
            # at --density 0 the graph holds every sample the dedup keeps
            assert diag["conjugacy_candidates"] == 456
            assert diag["conjugacy_dedup_kept"] == first["values"]["samples"]
        elif name == "flat":
            # the identity sweep stops at radius 2 whatever --ball says
            assert diag["sweep_ball_radius"] == 2
            assert diag["leaf_lifts"] > 0
            assert 0 <= diag["perturbed_samples"] <= first["values"]["samples"]
        else:
            # the golden lamination's shears are formed to rounding
            assert diag["shear_trace_error"] < 1e-12
    right = run_cli(runs["quake"] + ["--side", "right"], capsys)[1]
    assert right["diagnostics"]["shear_trace_error"] < 1e-12
    # a shear of 36 along a general leaf is formed only to about 15%
    leaf = tmp_path / "leaf.json"
    leaf.write_text(json.dumps({"leaves": [{"end1": 0.1, "end2": 0.3, "weight": 1.0}]}))
    far = run_cli(["quake", str(leaf), "36", "--density", "8"], capsys)[1]
    assert far["diagnostics"]["shear_trace_error"] > 0.1


@pytest.mark.parametrize("curve, w", [("b1", 0.3), ("b1", 0.55), ("b2", 0.6)])
def test_default_density_shear_in_band(tmp_path, capsys, curve, w):
    """At the default density, index thinning splits the regions on
    either side of the b1 and b2 leaves into many faces; the shear
    between the two largest strata still lies in criterion 6's band
    (the two largest faces once read about 0.0005)."""
    from lorentz21.laminations import WeightedMulticurve
    from lorentz21.quakes import rep_after_earthquake

    octagon = lorentz21.bundled("octagon_rep.json")
    sheared = rep_after_earthquake(regular_polygon_rep(2), WeightedMulticurve([(curve, 1.0)]), w)
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(sheared.to_json()))
    code, report = run_cli(["ads", "between", octagon, str(path), "--ball", "6"], capsys)
    assert code == 0
    assert abs(report["values"]["total_shear"] - w) < 0.05 * w
    assert report["diagnostics"]["strata"] >= 2


def _conjugated(path, t, out):
    """The representation file at path conjugated by diag(e^t, e^-t), a
    translation by 2t in H^2, written to out."""
    rep = Representation.load(path).conjugate(np.diag(np.exp([t, -t])))
    out.write_text(json.dumps(rep.to_json()))
    return str(out)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: conjugating the input changes the flat verdict "
                   "(cocycle-identity 6.3e-5, relator-residual 9.2e-6 at t = 2)")
def test_flat_check_is_conjugation_invariant(tmp_path, capsys):
    rep = _conjugated(lorentz21.bundled("octagon_rep.json"), 2.0, tmp_path / "rep.json")
    code, report = run_cli(["flat", "check", rep, lorentz21.bundled("single_curve.json")], capsys)
    assert code == 0, report["checks"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: conjugating both inputs changes the ads shear "
                   "(0.2836 with 2 strata at t = 6, against 0.55)")
def test_ads_between_is_conjugation_invariant(tmp_path, capsys):
    pair = [lorentz21.bundled("octagon_rep.json"), os.path.join(_GOLDEN, "sheared_b1.json")]
    flags = ["--ball", "5", "--density", "0"]
    want = run_cli(["ads", "between", *pair, *flags], capsys)[1]["values"]["total_shear"]
    conjugated = [_conjugated(path, 6.0, tmp_path / ("%d.json" % i))
                  for i, path in enumerate(pair)]
    code, report = run_cli(["ads", "between", *conjugated, *flags], capsys)
    assert code == 0
    assert abs(report["values"]["total_shear"] - want) < 1e-6
