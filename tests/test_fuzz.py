"""Random inputs for `quake` and `ads hull`: whatever the input and
flags, the command exits 0, 1 or 2 and prints a JSON report or error
with a schema, and `quake` writes no non-finite number.  Endpoints,
weights, scales and points are drawn near the values that matter (0,
negatives, 1e300, non-finite, crossing and duplicate leaves, points on
leaves); graphs are monotone, planar, non-monotone, duplicated, short,
malformed or non-finite.  A fixed seed makes each run try the same
cases."""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

from lorentz21.cli import main
from lorentz21.minkowski import RP1Point, geodesic_normal, hyperboloid_normalize, inner

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
        n = geodesic_normal(RP1Point.from_theta(chords[0][0]), RP1Point.from_theta(chords[0][1]))
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


def _run(argv):
    """Exit code and JSON report of one command, checked against the
    exit-code contract."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    report = json.loads(buf.getvalue())
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
def test_ads_hull_exit_contract(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        code, report = _run(["ads", "hull", path])
    hypothesis.event(report.get("error", "exit %d" % code)[:60])
