"""Random inputs for `quake`: whatever the lamination, points and flags,
the command exits 0, 1 or 2 and prints a JSON report or error with a
schema.  Endpoints, weights, scales and points are drawn near the
values that matter (0, negatives, 1e300, non-finite, crossing and
duplicate leaves, points on leaves), with a fixed seed so each run
tries the same cases."""

import contextlib
import io
import json
import math
import os
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


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
@hypothesis.given(quake_cases())
# a shear past exp's range once escaped as an OverflowError traceback
@hypothesis.example(({"leaves": [{"end1": 0.5, "end2": 0.0, "weight": 0.7}]}, "2500.0",
                     ["--side", "left", "--density", "8"], None))
def test_quake_exit_contract(case):
    lamination, scale, flags, points = case
    with tempfile.TemporaryDirectory() as tmp:
        lam_path = os.path.join(tmp, "lamination.json")
        with open(lam_path, "w") as fh:
            json.dump(lamination, fh)
        argv = ["quake", lam_path, scale] + flags
        if points is not None:
            argv += ["--points", os.path.join(tmp, "points.csv")]
            with open(argv[-1], "w") as fh:
                fh.write("".join("%r,%r,%r\n" % tuple(p) for p in points))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    report = json.loads(buf.getvalue())
    assert "schema" in report
    # --hypothesis-show-statistics tallies the outcomes
    hypothesis.event("ambiguous points" if report.get("values", {}).get("ambiguous_points")
                     else report.get("error", "exit %d" % code)[:60])
