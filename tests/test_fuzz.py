"""Random inputs for `quake`, `ads hull`, `euler`, `flat check` and
`ads between`: whatever the input and flags, the command exits 0, 1 or
2 and prints a JSON report or error with a schema, `quake` and `ads
hull` write no non-finite number, `ads hull` writes an OBJ of its
reported vertices and faces, `euler`, `flat check` and `ads between`
raise no warning, `euler` and `ads between` refuse a malformed
representation with exit 2, and `flat check` under a ball cap of 4
refuses at the cap only a valid curve at a --ball L with L + 2 above
it, building no ball above L.
Endpoints, weights, scales and points are drawn near the values that
matter (0, negatives, 1e300, non-finite, crossing and duplicate leaves,
points on leaves); graphs are monotone, planar, non-monotone,
duplicated, short, malformed or non-finite; representations have odd
genera, miscounted generators, or generators scaled out of range,
singular, non-finite or misshapen; multicurves on the octagon have
valid, inverse, repeated, trivial, out-of-range or malformed words,
duplicated or crossing curves, and extreme weights; `ads between` pairs
a representation file with the octagon, on either side.  A fixed seed
makes each run try the same cases."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

import lorentz21
from lorentz21 import fuchsian
from lorentz21 import laminations as lamins
from lorentz21.cli import main
from lorentz21.fuchsian import regular_polygon_rep
from lorentz21.minkowski import RP1Point, geodesic_normal, hyperboloid_normalize, inner
from reference import ball_radii, steep_graph_rows

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# most cases are valid; the rest carry one fault or extreme value
FAULTS = [None] * 6 + ["duplicate", "crossing", "touching", "weight", "end"]
EXTREMES = [0.0, -1.0, 1e300, 1e-300, math.nan, math.inf]
SCALES = st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
                   st.sampled_from([0.0, -1.0, 2500.0, 1e300, math.nan, math.inf]))
# a density below 1 is invalid
DENSITIES = st.sampled_from(list(range(1, 49)) + [0, -2])


@st.composite
def laminations(draw):
    """Disjoint leaves (side by side, or nested around one arc) with
    weights in [0.01, 3], then at most one fault: a duplicate, crossing
    or touching leaf, an extreme weight or a non-finite endpoint.  Also
    returns the point of the first leaf nearest the apex, if any."""
    n = draw(st.integers(0, 6))
    gaps = draw(st.lists(st.integers(1, 100), min_size=2 * n + 1, max_size=2 * n + 1))
    ends = [sum(gaps[:k + 1]) / sum(gaps) for k in range(2 * n)]
    if draw(st.booleans()):
        chords = [(ends[i], ends[2 * n - 1 - i]) for i in range(n)]
    else:
        chords = [(ends[2 * i], ends[2 * i + 1]) for i in range(n)]
    leaves = [{"end1": a, "end2": b, "weight": draw(st.floats(0.01, 3.0))} for a, b in chords]
    fault = draw(st.sampled_from(FAULTS)) if leaves else None
    if fault == "duplicate":
        leaves.append(dict(draw(st.sampled_from(leaves))))
    elif fault == "crossing":
        a, b = chords[0]
        leaves.append({"end1": (a + b) / 2, "end2": b + 0.5 * (1.0 - b + a), "weight": 1.0})
    elif fault == "touching":
        leaves.append({"end1": chords[0][1], "end2": (chords[0][1] + 1.0) / 2, "weight": 1.0})
    elif fault == "weight":
        draw(st.sampled_from(leaves))["weight"] = draw(st.sampled_from(EXTREMES))
    elif fault == "end":
        draw(st.sampled_from(leaves))["end2"] = draw(st.sampled_from([math.nan, math.inf, -0.5, 3.0]))
    on_leaf = []
    if chords:
        a, b = (RP1Point.from_theta(t).null_vector() for t in chords[0])
        n = geodesic_normal(a, b)
        apex = np.array([0.0, 0.0, 1.0])
        on_leaf.append(hyperboloid_normalize(apex - inner(n, apex) * n).tolist())
    return {"leaves": leaves}, on_leaf


@st.composite
def hyperboloid_points(draw):
    """A point of the hyperboloid, the apex, or an arbitrary triple."""
    kind = draw(st.sampled_from(["h2", "apex", "any"]))
    if kind == "apex":
        return [0.0, 0.0, 1.0]
    x, y = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    if kind == "h2":
        return [x, y, math.sqrt(1.0 + x * x + y * y)]
    return [x, y, draw(st.floats(-5.0, 5.0))]


@st.composite
def quake_cases(draw):
    lamination, on_leaf = draw(laminations())
    if draw(st.booleans()):
        lamination["basepoint"] = draw(hyperboloid_points())
    points = draw(st.none() | st.lists(hyperboloid_points(), max_size=4))
    if points is not None and draw(st.booleans()):
        points += on_leaf
    flags = ["--side", draw(st.sampled_from(["left", "right"])),
             "--density", str(draw(DENSITIES))]
    return lamination, repr(draw(SCALES)), flags, points


def _refuse_constant(name):
    raise AssertionError("JSON output holds %s" % name)


def _run(argv):
    """Exit code and JSON report of one command, checked against the
    exit-code contract; a report holding NaN or Infinity is no JSON."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    report = json.loads(buf.getvalue(), parse_constant=_refuse_constant)
    assert "schema" in report
    return code, report


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
@hypothesis.given(quake_cases())
# a shear past exp's range once escaped as an OverflowError traceback
@hypothesis.example(({"leaves": [{"end1": 0.5, "end2": 0.0, "weight": 0.7}]}, "2500.0",
                     ["--side", "left", "--density", "8"], None))
# a shear within exp's range but past the matrix's once wrote nan
@hypothesis.example(({"leaves": [{"end1": 0.1, "end2": 0.3, "weight": 1.0}]}, "1000.0",
                     ["--side", "left", "--density", "8"], None))
def test_quake_exit_contract(case):
    lamination, scale, flags, points = case
    with tempfile.TemporaryDirectory() as tmp:
        lam_path = os.path.join(tmp, "lamination.json")
        with open(lam_path, "w") as fh:
            json.dump(lamination, fh)
        out = os.path.join(tmp, "out")
        argv = ["quake", lam_path, scale] + flags + ["--out", out]
        if points is not None:
            argv += ["--points", os.path.join(tmp, "points.csv")]
            with open(argv[-1], "w") as fh:
                fh.write("".join("%r,%r,%r\n" % tuple(p) for p in points))
        code, report = _run(argv)
        written = ""
        for name in ("boundary.csv", "images.csv"):
            if os.path.exists(os.path.join(out, name)):
                with open(os.path.join(out, name)) as fh:
                    written += fh.read()
    assert not re.search("nan|inf", written)
    # --hypothesis-show-statistics tallies the outcomes
    hypothesis.event("ambiguous points" if report.get("values", {}).get("ambiguous_points")
                     else report.get("error", "exit %d" % code)[:60])


GRAPH_KINDS = ["monotone"] * 4 + ["planar", "non-monotone", "duplicate", "short",
                                  "malformed", "non-finite"]


@st.composite
def graph_rows(draw):
    """Rows of a graph CSV: 3 to 40 samples of a monotone degree-one
    circle map (the identity, whose graph is planar, for that kind),
    then one fault of the drawn kind."""
    kind = draw(st.sampled_from(GRAPH_KINDS))
    n = draw(st.integers(3, 40))
    left = np.cumsum(draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)))
    right = np.cumsum(draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)))
    left = left / left[-1] * draw(st.floats(0.999, 1.0))
    right = (right / right[-1] + draw(st.floats(0.0, 1.0))) % 1.0
    rows = ["%r,%r" % (a, a if kind == "planar" else b)
            for a, b in zip(left.tolist(), right.tolist())]
    if kind == "non-monotone":
        rows = ["%s,%s" % (a.split(",")[0], b.split(",")[1])
                for a, b in zip(rows, draw(st.permutations(rows)))]
    elif kind == "duplicate":
        rows.insert(draw(st.integers(0, n)), draw(st.sampled_from(rows)))
    elif kind == "short":
        rows = rows[:draw(st.integers(0, 2))]
    elif kind == "malformed":
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            ["0.5", "0.5,0.5,0.5", "a,b", "0.5;0.5", ",", "0x1p-1,0.5"]))
    elif kind == "non-finite":
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            ["nan,0.5", "0.5,inf", "-inf,-inf", "1e400,0.5"]))
    return rows


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
@hypothesis.given(graph_rows())
# steep graphs whose left factors lose their determinant once reported a
# NaN total_shear (seed 119) and one built from an inf factor (seed 60)
@hypothesis.example(steep_graph_rows(119, n=40))
@hypothesis.example(steep_graph_rows(60, n=40))
def test_ads_hull_exit_contract(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "graph.csv"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        code, report = _run(["ads", "hull", path, "--out", out])
        # a report, not an error, exits 0 or 1 and comes with its artifacts
        if "error" not in report:
            with open(os.path.join(out, "hull.obj")) as fh:
                lines = fh.read().split("\n")
            nv = report["values"]["hull_vertices"]
            faces = [line.split()[1:] for line in lines if line.startswith("f ")]
            assert sum(line.startswith("v ") for line in lines) == nv
            assert len(faces) == report["diagnostics"]["merged_faces"]
            assert all(1 <= int(i) <= nv for face in faces for i in face)
            with open(os.path.join(out, "bending.json")) as fh:
                json.loads(fh.read(), parse_constant=_refuse_constant)
    hypothesis.event(report.get("error", "exit %d" % code)[:60])


# most genera are proper; the rest are not positive integers
GENERA = [2] * 6 + [1, 3] * 2 + [0, -1, 2.7, True, "2"]
# most generators are valid; the rest carry one fault in one generator
GENERATOR_FAULTS = [None] * 5 + ["huge", "tiny", "singular", "non-finite", "shape"]
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


@st.composite
def rep_files(draw):
    """A representation file: a genus from GENERA and 2g generators (4
    for a genus that is not a positive integer), now and then one too
    many or too few, drawn as random SL(2,R) matrices or as a randomly
    conjugated polygon representation, then at most one fault: one
    generator scaled by 1e200 or 1e-200, singular or of determinant -1,
    with a non-finite entry, or of the wrong shape.  Also returns
    whether the file is malformed, which `euler` must refuse."""
    genus = draw(st.sampled_from(GENERA))
    proper = type(genus) is int and genus >= 1
    n = 2 * genus if proper else 4
    n += draw(st.sampled_from([0] * 4 + [1, -1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def sl2():
        m = rng.normal(size=(2, 2))
        return m[[1, 0] if np.linalg.det(m) < 0 else [0, 1]] / math.sqrt(abs(np.linalg.det(m)))

    if proper and genus >= 2 and n == 2 * genus and draw(st.booleans()):
        gens = regular_polygon_rep(genus).conjugate(sl2()).generators.tolist()
    else:
        gens = [sl2().tolist() for _ in range(n)]
    fault = draw(st.sampled_from(GENERATOR_FAULTS)) if gens else None
    i = draw(st.integers(0, len(gens) - 1)) if gens else 0
    if fault in ("huge", "tiny"):
        gens[i] = (np.array(gens[i]) * (1e200 if fault == "huge" else 1e-200)).tolist()
    elif fault == "singular":
        gens[i] = draw(st.sampled_from([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]],
                                        [[1.0, 2.0], [2.0, 4.0]]]))
    elif fault == "non-finite":
        gens[i][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    elif fault == "shape":
        gens[i] = draw(st.sampled_from([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                        [[1.0, 0.0], [0.0]], [1.0, 0.0], 1.0, "I"]))
    malformed = not proper or n != 2 * genus or fault is not None
    return {"genus": genus, "generators": gens}, malformed


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
@hypothesis.given(rep_files())
# the determinant of 1e200 I once overflowed with a warning, to the zero matrix
@hypothesis.example(({"genus": 2, "generators": [[[1e200, 0.0], [0.0, 1e200]]] + [IDENTITY] * 3},
                     True))
# a genus of 2.7 was once read as 2
@hypothesis.example(({"genus": 2.7, "generators": [IDENTITY] * 4}, True))
def test_euler_exit_contract(case):
    rep, malformed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rep.json")
        with open(path, "w") as fh:
            json.dump(rep, fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = _run(["euler", path])
    assert not caught, [str(w.message) for w in caught]
    assert code == 2 or not malformed
    hypothesis.event(report.get("error", "exit %d" % code)[:60])


@st.composite
def between_cases(draw):
    """A representation file from rep_files() and the bundled octagon, in
    a drawn order, at --ball 0 to 3 and a drawn --density (0 keeps the
    whole graph, a negative one is invalid)."""
    rep, malformed = draw(rep_files())
    flags = ["--ball", str(draw(st.integers(0, 3))),
             "--density", str(draw(st.sampled_from([0, 1, 5, 50, 200, -2])))]
    return rep, malformed, draw(st.booleans()), flags


BIG = {"genus": 2, "generators": [[[1e100, 0.0], [0.0, 1e-100]]] + [IDENTITY] * 3}


@hypothesis.settings(max_examples=500, derandomize=True, deadline=None, database=None)
@hypothesis.given(between_cases())
# a generator of trace 1e100 once overflowed with warnings: the fixed
# points' discriminant from --ball 2, the ball's level products at --ball 4
@hypothesis.example((BIG, False, False, ["--ball", "2", "--density", "200"]))
@hypothesis.example((BIG, False, False, ["--ball", "4", "--density", "0"]))
@hypothesis.example((BIG, False, True, ["--ball", "4", "--density", "0"]))
def test_ads_between_exit_contract(case):
    rep, malformed, rep_left, flags = case
    octagon = lorentz21.bundled("octagon_rep.json")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rep.json")
        with open(path, "w") as fh:
            json.dump(rep, fh)
        pair = [path, octagon] if rep_left else [octagon, path]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = _run(["ads", "between"] + pair + flags)
    assert not caught, [str(w.message) for w in caught]
    assert code == 2 or not malformed
    hypothesis.event(report.get("error", "exit %d" % code)[:60])


# most words are valid curves on the octagon; the rest are inverse,
# repeated, trivial after reduction, out of range or malformed
WORDS = ["a1", "b1", "a2", "b2", "a1 a2", "a1 b1 A1 B1"] * 4 + [
    "A1", "B2", "a1 a1", "b2 b2 b2", "a1 A1", "a2 b1 B1 A2", "a3", "g5", "b0",
    "x1", "a", "1", "", "a1,b1", 7, None]
WEIGHTS = st.one_of(*[st.floats(0.01, 10.0)] * 4,
                    st.sampled_from([0.0, -1.0, 1e300, 1e-300, 1e308, math.nan, math.inf]))


@st.composite
def multicurve_files(draw):
    """A multicurve file of up to three curves drawn from WORDS with
    weights from WEIGHTS, now and then with one curve repeated or a
    crossing b1 added to a1."""
    curves = [{"word": draw(st.sampled_from(WORDS)), "weight": draw(WEIGHTS)}
              for _ in range(draw(st.integers(0, 3)))]
    extra = draw(st.sampled_from([None] * 4 + ["duplicate", "crossing"]))
    if extra == "duplicate" and curves:
        curves.append(dict(draw(st.sampled_from(curves))))
    elif extra == "crossing":
        curves += [{"word": "a1", "weight": 1.0}, {"word": "b1", "weight": 1.0}]
    return {"curves": curves}


@hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
@hypothesis.given(multicurve_files())
# a weight of 1e308 once overflowed the transverse sums with warnings
@hypothesis.example({"curves": [{"word": "a1", "weight": 1e308}]})
def test_flat_check_exit_contract(multicurve):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "multicurve.json")
        with open(path, "w") as fh:
            json.dump(multicurve, fh)
        rep = os.path.join(tmp, "rep.json")
        with open(rep, "w") as fh:
            json.dump(regular_polygon_rep(2).to_json(), fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = _run(["flat", "check", rep, path, "--ball", "2"])
    assert not caught, [str(w.message) for w in caught]
    hypothesis.event(report.get("error", "exit %d" % code)[:60])


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hypothesis.given(multicurve_files(), st.integers(0, 6))
def test_flat_check_lift_cap(multicurve, ball):
    """With the ball cap at 4, `flat check` at --ball L refuses with an
    EnumerationCapError only for a multicurve that holds a valid curve,
    when L + 2 is above the cap, and then builds no ball above L.  The
    cap is patched per example: the monkeypatch fixture is not reset
    between examples."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fuchsian, "HARD_CAP", 4), \
            ball_radii() as radii:
        path = os.path.join(tmp, "multicurve.json")
        with open(path, "w") as fh:
            json.dump(multicurve, fh)
        code, report = _run(["flat", "check", lorentz21.bundled("octagon_rep.json"), path,
                             "--ball", str(ball)])
    if report.get("error", "").startswith("EnumerationCapError"):
        assert len(lamins.WeightedMulticurve.from_json(multicurve)) > 0
        assert ball + 2 > 4
        assert max(radii, default=0) <= ball
    hypothesis.event(report.get("error", "exit %d" % code)[:60])
