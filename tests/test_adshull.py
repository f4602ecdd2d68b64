import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lorentz21 import adshull
from lorentz21.adshull import (
    ROTATION_GENERATOR,
    CircleGraph,
    ConvexHull,
    _dual_distances,
    _face_mobius,
    _group_means,
    attracting_thetas,
    bending_data,
    chart_coords,
    chart_quadric_point,
    convex_hull,
    dependence_membership,
    disjoint_spacelike_plane,
    extract_left_earthquake,
    face_adjacency,
    lemma5_configuration,
    plane_classes,
    plane_label,
    plane_separates,
    plane_z_equals,
    qform,
    qpair,
    rulings_of,
    sample_conjugacy,
)
from lorentz21.fuchsian import GroupBall, Representation, axis, euler_class, regular_polygon_rep
from lorentz21.laminations import WeightedMulticurve
from lorentz21.minkowski import (Mat2, RP1Point, adjugate, hyperboloid_normalize, null_vectors,
                                 rp1_from_thetas)
from lorentz21.quakes import EquivariantEarthquakeMap, rep_after_earthquake
import reference
from reference import hull_obj, segre


def proj_err(u, v):
    u = np.asarray(u, float) / np.linalg.norm(u)
    v = np.asarray(v, float) / np.linalg.norm(v)
    return min(np.max(np.abs(u - v)), np.max(np.abs(u + v)))


def shear_map(s):
    """Boundary map of the left quake of strength log s along the upper
    half-plane geodesic (0, infinity): identity on the negative reals,
    multiplication by s on the positives."""
    mpos = Mat2(np.diag([math.sqrt(s), 1.0 / math.sqrt(s)])).m

    def f(t):
        x = RP1Point.from_theta(t)
        u, v = x.v
        if abs(v) < 1e-15 or u / v >= 0:
            return x.apply(mpos).theta
        return t

    return f


def shear_graph(s, n=96):
    # sample at k/n so the corner points 0 and 1/2 are included exactly
    f = shear_map(s)
    return CircleGraph([(k / n, f(k / n)) for k in range(n)])


def identity_graph(n=48):
    return CircleGraph([(k / n, k / n) for k in range(n)])


def plane_class(label):
    return str(plane_classes(np.asarray(label, dtype=float)[None])[0][0])


def test_segre_examples():
    assert proj_err(segre([1, 1], [1, 1]), [1, 1, 1, 1]) == 0.0
    assert proj_err(segre([1, 0], [1, 0]), [1, 0, 0, 0]) == 0.0
    s = 3.0
    assert proj_err(segre([1, 1], [s, 1]), [s, 1, s, 1]) < 1e-15
    assert abs(qform(segre([0.3, 1.7], [-2.0, 0.4]))) < 1e-15
    with pytest.raises(ValueError):
        segre([0, 0], [1, 1])


def test_rulings_examples():
    l, r = map(RP1Point.normalized, rulings_of(np.array([1.0, 1.0, 1.0, 1.0])))
    assert l.dist(RP1Point([1, 1])) < 1e-12
    assert r.dist(RP1Point([1, 1])) < 1e-12
    s = 3.0
    l, r = map(RP1Point.normalized, rulings_of(np.array([s, 1.0, s, 1.0])))
    assert l.dist(RP1Point([1, 1])) < 1e-12
    assert r.dist(RP1Point([s, 1])) < 1e-12
    with pytest.raises(ValueError):
        rulings_of(np.array([1.0, 0.0, 0.0, 1.0]))


def test_rulings_roundtrip_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        l = RP1Point(rng.normal(size=2))
        r = RP1Point(rng.normal(size=2))
        l2, r2 = map(RP1Point.normalized, rulings_of(segre(l.v, r.v)))
        assert l2.dist(l) < 1e-12
        assert r2.dist(r) < 1e-12


def test_plane_classify_examples():
    assert plane_class(plane_label([0.0, 1.0, -1.0, 0.0])) == "spacelike"
    assert plane_class(plane_label([1.0, 0.0, 0.0, 0.0])) == "null"
    assert plane_class(plane_label([0.0, 1.0, 1.0, 0.0])) == "lorentzian"


def test_dual_point_examples():
    # the plane {b = c} has dual point the class of [[0,1],[-1,0]]
    p = plane_label([0.0, 1.0, -1.0, 0.0])
    assert proj_err(p, np.array([[0.0, 1.0], [-1.0, 0.0]]).reshape(4)) == 0.0
    # the dual of a spacelike plane is an AdS point off the plane
    assert qform(p) > 0
    assert abs(qpair(p, p)) > 0.1
    # a null plane is tangent to the quadric at its own label
    n = plane_label([1.0, 0.0, 0.0, 0.0])
    assert abs(qform(n)) < 1e-15
    assert abs(qpair(n, n)) < 1e-15
    # duality is an involution
    assert proj_err(plane_label(p), p) == 0.0
    with pytest.raises(ValueError, match="zero label is not a plane"):
        plane_label(np.zeros((2, 2)))
    # a null plane has no dual matrix, nor has one with q > 0 that
    # plane_classes calls null, and it is no chart plane
    for label in ([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1e-12]):
        classes, duals = plane_classes(plane_label(label)[None])
        assert classes.tolist() == ["null"] and np.isnan(duals).all()
        with pytest.raises(ValueError, match="chart plane must be spacelike"):
            convex_hull(shear_graph(2.0, 16), label)


def test_plane_incidence_is_quadric_polarization():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert abs(qpair(u, u) - qform(u)) < 1e-12
        assert abs(qpair(u, v) - 0.25 * (qform(u + v) - qform(u - v))) < 1e-12


def test_chart_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        l = RP1Point(rng.normal(size=2))
        r = RP1Point(rng.normal(size=2))
        p = segre(l.v, r.v)
        if abs(p[0] + p[3]) < 0.1:
            continue
        X, Y, Z = chart_coords(p)
        assert abs(X * X + Y * Y - Z * Z - 1.0) < 1e-9
        assert proj_err(chart_quadric_point(X, Y, Z), p) < 1e-9


def test_disjoint_spacelike_plane_properties():
    for graph in (shear_graph(2.0), identity_graph()):
        plane = disjoint_spacelike_plane(graph)
        assert plane_class(plane) == "spacelike"
        pts = graph.points
        inc = qpair(plane, pts)
        assert np.all(inc > 0) or np.all(inc < 0)


@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_disjoint_spacelike_plane_recentres(t):
    """The shear graph with its images moved by diag(e^(t/2), e^(-t/2))
    is crossed by the first planes {Z = +-1/4} of the scan, so with the
    scan cut there the plane through three spread samples recentres the
    graph, and the scan then finds a plane that misses it."""
    g = np.diag([math.exp(t / 2), math.exp(-t / 2)])
    graph = CircleGraph([(tl, RP1Point.from_theta(tr).apply(g).theta)
                         for tl, tr in shear_graph(2.0).samples])
    pts = graph.points
    assert not plane_separates(plane_z_equals(0.25), pts)
    assert not plane_separates(plane_z_equals(-0.25), pts)
    label = disjoint_spacelike_plane(graph, cap=1)
    assert label.dtype == float and label.shape == (4,)
    assert plane_class(label) == "spacelike"
    assert plane_separates(label, pts)
    hull = convex_hull(graph, label)
    assert not hull.flat and same_bits(hull.chart_plane, label)
    assert hull.convexity_slack() > -1e-6


def test_flat_hull_identity_graph():
    hull = convex_hull(identity_graph())
    assert hull.flat
    assert plane_class(hull.flat_plane) == "spacelike"
    # the identity graph lies on the plane {b = c}
    assert proj_err(hull.flat_plane, [0.0, 1.0, -1.0, 0.0]) < 1e-9
    assert "\nf " not in hull.to_obj() and hull.to_obj() == hull_obj(hull)
    pairs, shared, start, weights = bending_data(hull)
    assert pairs.shape == (0, 2) and len(shared) == len(weights) == 0 and start.tolist() == [0]
    quake = extract_left_earthquake(hull)
    assert quake.dominant_shear == 0.0
    for (tl, tr), (_, out) in zip(hull.graph.samples, quake.boundary_map.samples):
        d = abs(out - tr)
        assert min(d, 1.0 - d) < 1e-9


@pytest.mark.parametrize("n", [16, 64, 96])
def test_sshear_hull_two_future_faces(n):
    hull = convex_hull(shear_graph(2.0, n))
    assert not hull.flat
    assert hull.faces.future.sum() == 2


@pytest.mark.parametrize("s", [2.0, 4.0, 9.0])
def test_sshear_bending_oracle(s):
    """Two explicit support planes: {b = c} with dual [[0,1],[-1,0]] and
    {c = s b} with dual [[0,-1],[s,0]]/sqrt(s); their dual-point distance
    is arccosh((sqrt(s) + 1/sqrt(s))/2) = (1/2) log s."""
    hull = convex_hull(shear_graph(s))
    pairs, _, _, weights = bending_data(hull)
    edges = weights[~np.isnan(weights) & hull.faces.future[pairs].all(axis=1)]
    assert len(edges) == 1
    oracle = math.acosh((math.sqrt(s) + 1.0 / math.sqrt(s)) / 2.0)
    assert abs(edges[0] - oracle) < 1e-9
    assert abs(edges[0] - 0.5 * math.log(s)) < 1e-9


@pytest.mark.parametrize("s", [2.0, 4.0, 9.0])
def test_sshear_extraction(s):
    hull = convex_hull(shear_graph(s))
    quake = extract_left_earthquake(hull)
    assert abs(quake.dominant_shear - math.log(s)) < 1e-9
    # recovered boundary map equals the input on samples
    for (tl, tr), (_, out) in zip(hull.graph.samples, quake.boundary_map.samples):
        d = abs(out - tr)
        assert min(d, 1.0 - d) < 1e-8
    # the left factor between the two faces translates along the leaf
    # axis: up to sign its trace is sqrt(s) + 1/sqrt(s)
    traces = sorted(abs(quake.left_factors[:, 0, 0] + quake.left_factors[:, 1, 1]))
    assert abs(traces[-1] - (math.sqrt(s) + 1.0 / math.sqrt(s))) < 1e-9


def test_hull_causality_and_convexity():
    for graph in (shear_graph(2.0), shear_graph(9.0, 64)):
        hull = convex_hull(graph)
        assert all(c != "lorentzian" for c in hull.faces.classes)
        assert hull.vertex_on_quadric_error() < 1e-9
        assert hull.convexity_slack() > -1e-6


def test_hull_obj_export():
    hull = convex_hull(shear_graph(2.0, 16))
    obj = hull.to_obj()
    lines = obj.strip().split("\n")
    assert lines[0].startswith("#")
    assert sum(1 for l in lines if l.startswith("v ")) == len(hull.vertex_ids)
    assert sum(1 for l in lines if l.startswith("f ")) == len(hull.faces)


def scalar_points(samples):
    """The per-sample Segre points with signs aligned one at a time."""
    out = np.empty((len(samples), 4))
    for i, (tl, tr) in enumerate(samples):
        out[i] = segre(RP1Point.from_theta(tl).v, RP1Point.from_theta(tr).v)
        if i > 0 and float(np.dot(out[i], out[i - 1])) < 0:
            out[i] = -out[i]
    return out


def test_graph_points_match_scalar_segre():
    # the last two samples lie half a turn apart on the left, and their
    # raw dot product is exactly zero: the sign run restarts at +1 there
    g = CircleGraph([(0.0, 0.8), (0.25, 0.25), (0.75, 0.25)])
    raw = [segre(RP1Point.from_theta(tl).v, RP1Point.from_theta(tr).v) for tl, tr in g.samples]
    assert float(np.dot(raw[1], raw[0])) < 0
    assert float(np.dot(raw[2], raw[1])) == 0.0
    ref = scalar_points(g.samples)
    assert np.array_equal(g.points, ref)
    assert np.array_equal(ref, np.array(raw) * np.array([[1.0], [-1.0], [1.0]]))
    rng = np.random.default_rng(3)
    for graph in (shear_graph(3.0), CircleGraph(rng.random((40, 2)))):
        assert np.array_equal(graph.points, scalar_points(graph.samples))


def test_attracting_thetas_match_axis(octagon):
    mats = GroupBall(octagon, 4).elements[1:]
    thetas = attracting_thetas([mats])
    for m, t in zip(mats, thetas):
        d = abs(RP1Point.normalized(axis(m)[0]).theta - t)
        assert min(d, 1.0 - d) < 1e-12


def test_attracting_thetas_near_diagonal():
    # (b, lam - a) vanishes for diag(2, 1/2): the fallback (lam - d, c)
    # gives the x-axis
    mats = np.array([np.diag([2.0, 0.5]), np.diag([0.5, 2.0]), -np.diag([2.0, 0.5])])
    assert attracting_thetas([mats]).tolist() == [0.0, 0.5, 0.0]
    with pytest.raises(ValueError, match="not hyperbolic"):
        attracting_thetas([np.array([np.diag([2.0, 0.5]), np.eye(2)])])


def test_blocked_fixed_points_match_one_block(octagon):
    """The radius-5 ball's 22,288 nontrivial rows, read as one stack, as
    seven and as blocks of EVALUATE_BLOCK rows, give at every ascending
    set of kept rows (none, a random one, all) the one stack's angles
    at those rows, bit for bit."""
    mats = GroupBall(octagon, 5).elements[1:]
    assert len(mats) == 22288 > adshull.EVALUATE_BLOCK
    whole = attracting_thetas([mats])
    rng = np.random.default_rng(0)
    keeps = [np.zeros(0, dtype=int), np.sort(rng.choice(len(mats), 3000, replace=False)),
             np.arange(len(mats))]
    for splits in ([mats], np.array_split(mats, 7),
                   [mats[a:a + adshull.EVALUATE_BLOCK]
                    for a in range(0, len(mats), adshull.EVALUATE_BLOCK)]):
        assert attracting_thetas(splits).tobytes() == whole.tobytes()
        for keep in keeps:
            assert attracting_thetas(splits, keep).tobytes() == whole[keep].tobytes()


def test_blocked_fixed_points_keep_the_refusal_order():
    """One pass over a stack refuses an overflowing discriminant anywhere
    before a matrix that is not hyperbolic, and names the first such
    matrix by its trace; seven stacks, blocks of 2**14 rows and a pass
    that keeps neither bad row must refuse the same way."""
    mats = np.tile(np.diag([2.0, 0.5]), (adshull.EVALUATE_BLOCK + 16, 1, 1))
    mats[5], mats[-3] = np.eye(2), np.diag([1e200, 1e-200])
    refusals = (lambda m: attracting_thetas([m]),
                lambda m: attracting_thetas(np.array_split(m, 7)),
                lambda m: attracting_thetas([m[:adshull.EVALUATE_BLOCK],
                                             m[adshull.EVALUATE_BLOCK:]]),
                lambda m: attracting_thetas(np.array_split(m, 7), keep=np.array([0, 6, 7])))
    for refuse in refusals:
        with pytest.raises(ValueError, match="a trace is too large for its fixed points"):
            refuse(mats)
    mats[-3] = -np.eye(2)
    for refuse in refusals:
        with pytest.raises(ValueError, match=r"not hyperbolic \(trace 2\.000000\)"):
            refuse(mats)
    mats[5] = np.diag([2.0, 0.5])
    with pytest.raises(ValueError, match=r"not hyperbolic \(trace -2\.000000\)"):
        attracting_thetas([mats])


def test_graph_monotone_and_spacelike():
    g = shear_graph(3.0)
    assert g.is_monotone()
    assert g.spacelike_consecutive()
    assert not g.is_planar()
    bad = CircleGraph([(0.1, 0.5), (0.2, 0.3), (0.6, 0.7)])
    assert not bad.is_monotone()


def test_three_samples_are_planar():
    # any three points lie on a plane, though their SVD has three values
    g = CircleGraph([(0.1, 0.15), (0.4, 0.5), (0.7, 0.8)])
    assert g.is_planar()
    assert dependence_membership(plane_z_equals(5.0), g) is None


def test_graph_csv_roundtrip():
    g = shear_graph(2.0, 16)
    g2 = CircleGraph.from_csv_rows(g.to_csv_rows())
    assert np.max(np.abs(np.array(g.samples) - np.array(g2.samples))) < 1e-11


@pytest.fixture(scope="module")
def octagon():
    return regular_polygon_rep(2)


def test_sample_conjugacy_identity(octagon):
    g = sample_conjugacy(octagon, octagon, 4)
    assert g.is_planar()
    for tl, tr in g.samples:
        d = abs(tl - tr)
        assert min(d, 1.0 - d) < 1e-12


def test_sample_conjugacy_mobius(octagon):
    c = np.array([[1.2, 0.3], [0.1, 0.9]])
    g = sample_conjugacy(octagon, octagon.conjugate(c), 4)
    assert g.is_monotone()
    for tl, tr in g.samples:
        d = abs(RP1Point.from_theta(tl).apply(Mat2(c).m).theta - tr)
        assert min(d, 1.0 - d) < 1e-9


@pytest.fixture(scope="module")
def conjugacy_pairs(octagon):
    """(right representation, radius) of the pairs whose conjugacy graphs
    are checked against the reference: the golden b1 shear at radii 5
    and 6, and the octagon sheared along a2 by 0.8 at radius 6."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
    b1 = Representation.load(os.path.join(golden, "sheared_b1.json"))
    a2 = rep_after_earthquake(octagon, WeightedMulticurve([("a2", 1.0)]), 0.8)
    return [(b1, 5), (b1, 6), (a2, 6)]


@pytest.fixture(scope="module")
def conjugacy_graphs(octagon, conjugacy_pairs):
    return [sample_conjugacy(octagon, rep_r, radius) for rep_r, radius in conjugacy_pairs]


# the hull arrays of adshull.ConvexHull, with and without QJ, on the
# points in the .npy file argv[1], from a fresh interpreter that loads
# Qhull alone, saved to the .npz file argv[2]
_LOADED_ALONE = """
import sys
import numpy as np
from lorentz21.adshull import ConvexHull
from lorentz21.minkowski import sorted_unique

points = np.load(sys.argv[1])
hulls = {}
for options in (None, "QJ"):
    simplices, equations = ConvexHull(points, qhull_options=options)
    hulls[str(options)] = {"equations": equations, "simplices": simplices,
                           "vertices": sorted_unique(simplices)}
assert not {"scipy.spatial", "scipy.linalg", "numpy.ma"} & set(sys.modules)
np.savez(sys.argv[2], **{"%s %s" % (options, name): array
                         for options, hull in hulls.items() for name, array in hull.items()})
"""


def test_qhull_loaded_alone_is_scipys(tmp_path, conjugacy_graphs):
    """Qhull's extension module loaded by itself, called without scipy's
    wrapper, gives the arrays of scipy.spatial.ConvexHull, joggled or
    not, on the chart points of the octagon to golden b1 conjugacy graph,
    and loads neither scipy's packages nor numpy.ma: a scipy whose _qhull
    moved or cimports more, or whose _Qhull call changed, fails here."""
    import scipy.spatial

    points = convex_hull(conjugacy_graphs[0]).chart_points
    np.save(tmp_path / "points.npy", points)
    subprocess.run([sys.executable, "-c", _LOADED_ALONE, str(tmp_path / "points.npy"),
                    str(tmp_path / "hulls.npz")], check=True)
    alone = np.load(tmp_path / "hulls.npz")
    for options in (None, "QJ"):
        hull = scipy.spatial.ConvexHull(points, qhull_options=options)
        for name in ("equations", "simplices", "vertices"):
            assert same_bits(alone["%s %s" % (options, name)], getattr(hull, name))


def test_sample_conjugacy_matches_reference(octagon, conjugacy_pairs, conjugacy_graphs):
    """The chain over kept samples, with right angles taken only on their
    runs of equal left angles, gives the lexsort-and-loop samples bit for
    bit; exact left-angle ties (95 at radius 5, 506 at 6) occur among the
    kept samples, where the smallest right angle must win."""
    for (rep_r, radius), graph in zip(conjugacy_pairs, conjugacy_graphs):
        ball = GroupBall(octagon, radius)
        want = reference.sample_conjugacy(ball, rep_r).samples
        assert graph.samples.shape == want.shape
        assert graph.samples.tobytes() == want.tobytes()
        left = attracting_thetas([ball.elements[1:]])
        values, counts = np.unique(left, return_counts=True)
        assert np.isin(graph.samples[:, 0], values[counts > 1]).any()


def test_convexity_slack_matches_reference(conjugacy_graphs):
    graphs = conjugacy_graphs + [CircleGraph.from_csv_rows(reference.steep_graph_rows(seed))
                                 for seed in (0, 1, 5, 6)]
    for graph in graphs:
        hull = convex_hull(graph)
        assert same_bits(hull.convexity_slack(), reference.convexity_slack(hull))


def _with_points(hull, points):
    return adshull.HullComplex(hull.graph, hull.chart_plane, points, hull.faces,
                               hull.vertex_ids)


def _moved_out(hull, row, face, by=1e-3):
    """hull with chart point `row` moved `by` outward along face's normal."""
    points = hull.chart_points.copy()
    points[row] += by * hull.faces.normals[face]
    return _with_points(hull, points)


def test_convexity_slack_sees_a_point_outside_a_face(conjugacy_graphs):
    """A vertex moved 1e-3 outside one of its faces, for faces spread over
    the hull: the slack reads about -1e-3, the reference's bits."""
    hull = convex_hull(conjugacy_graphs[0])
    for face in np.linspace(0, len(hull.faces) - 1, 7).astype(int):
        moved = _moved_out(hull, hull.faces.ids[hull.faces.start[face]], face)
        slack = moved.convexity_slack()
        assert -1.1e-3 < slack < -0.9e-3
        assert same_bits(slack, reference.convexity_slack(moved))


def test_convexity_slack_ignores_the_point_order(conjugacy_graphs):
    """The blocks follow chart_points' order, the graph's; any other
    order widens the capsules, and keeps the bits."""
    hull = convex_hull(conjugacy_graphs[0])
    order = np.random.default_rng(0).permutation(len(hull.chart_points))
    for h in (hull, _moved_out(hull, hull.faces.ids[0], 0)):
        shuffled = _with_points(h, h.chart_points[order])
        assert same_bits(shuffled.convexity_slack(), h.convexity_slack())
        assert same_bits(shuffled.convexity_slack(), reference.convexity_slack(shuffled))


@pytest.mark.parametrize("tail", [1, 2])
def test_convexity_slack_last_block(conjugacy_graphs, tail):
    """N = 64 k + 1 and 64 k + 2 points: the last block is padded to 64
    rows, as a one-row product is a dot, whose bits differ from the
    gemv's on a fifth to a third of rows.  The last point is moved
    outside each of its faces by 8 distances in turn, so its row sets
    the slack."""
    samples = conjugacy_graphs[0].samples
    n = 64 * 8 + tail
    hull = convex_hull(CircleGraph(samples[np.linspace(0, len(samples) - 1, n).astype(int)]))
    assert len(hull.chart_points) == n
    assert same_bits(hull.convexity_slack(), reference.convexity_slack(hull))
    faces = hull.faces.owner[hull.faces.ids == n - 1]
    assert len(faces) >= 3
    for face, by in itertools.product(faces, 2.5e-4 * np.arange(1, 9)):
        moved = _moved_out(hull, n - 1, face, by)
        assert same_bits(moved.convexity_slack(), reference.convexity_slack(moved))


@pytest.mark.parametrize("bad, message", [
    (np.eye(2), "not hyperbolic"),
    (np.diag([1e200, 1e-200]), "a trace is too large")])
def test_sample_conjugacy_refuses_a_dropped_row(monkeypatch, octagon, bad, message):
    """The hyperbolicity and finite-trace refusals read every ball row of
    the right representation, not only those whose samples are kept."""
    ball = GroupBall(octagon, 3)
    kept = sample_conjugacy(octagon, octagon, 3).samples[:, 0]
    dropped = 1 + np.flatnonzero(~np.isin(attracting_thetas([ball.elements[1:]]), kept))[0]
    products = GroupBall.products

    def patched(self, hol):
        for lo, block in products(self, hol):
            if lo <= dropped < lo + len(block):
                block[dropped - lo] = bad
            yield lo, block

    monkeypatch.setattr(GroupBall, "products", patched)
    with pytest.raises(ValueError, match=message):
        sample_conjugacy(octagon, octagon, 3)
    with pytest.raises(ValueError, match=message):
        attracting_thetas([ball.evaluate(octagon)[1:]])


def test_sample_conjugacy_refuses_any_step_back(monkeypatch, octagon):
    """A kept right angle 1e-9 below the one before it is refused: no
    step back is small enough to be dropped as jitter."""
    samples = sample_conjugacy(octagon, octagon, 3).samples
    i = len(samples) // 2
    thetas, moved = adshull.attracting_thetas, []

    def stepped_back(stacks, keep=None):
        out = thetas(stacks, keep)
        if keep is not None:
            hit = out == samples[i, 1]
            out[hit] = samples[i - 1, 1] - 1e-9
            moved.append(hit.sum())
        return out

    monkeypatch.setattr(adshull, "attracting_thetas", stepped_back)
    with pytest.raises(ValueError, match="^conjugacy samples are not cyclically monotone$"):
        sample_conjugacy(octagon, octagon, 3)
    assert moved and moved[0] > 0


def test_sample_conjugacy_refuses_the_mirrored_octagon(octagon):
    """Conjugating by the reflection J = diag(1, -1) reverses the circle,
    so the conjugacy from the octagon to J g J runs backwards."""
    j = np.diag([1.0, -1.0])
    mirrored = Representation(2, [j @ g @ j for g in octagon.generators])
    message = "^conjugacy samples are not cyclically monotone$"
    with pytest.raises(ValueError, match=message):
        sample_conjugacy(octagon, mirrored, 3)
    with pytest.raises(ValueError, match=message):
        reference.sample_conjugacy(GroupBall(octagon, 3), mirrored)


def test_right_fixed_points_only_on_the_dedup_runs(monkeypatch, octagon, conjugacy_pairs):
    """At radius 4 every nontrivial left row reaches rp1_stack, and of
    the right rows only the runs of left angles equal to a kept head's."""
    left = np.sort(attracting_thetas([GroupBall(octagon, 4).elements[1:]]))
    heads = left[adshull._chain_heads(memoryview(left), adshull.DEDUP)]
    runs = np.isin(left, heads).sum()
    assert len(heads) <= runs < len(left)
    sizes, rp1_stack = [], adshull.rp1_stack
    monkeypatch.setattr(adshull, "rp1_stack", lambda v: sizes.append(len(v)) or rp1_stack(v))
    sample_conjugacy(octagon, conjugacy_pairs[0][0], 4)
    assert sum(sizes) == len(left) + runs


_GAP = math.nextafter(1e-4, 1.0)


@pytest.mark.parametrize("values, gap, expected", [
    # the bisection on a + gap lands on the second value, closer than
    # gap to the first, and the forward step moves past it
    ([0.6369616873214543, 0.6370616873214543, 1.1370616873214543], 1e-4, [0, 2]),
    # a + gap rounds up past b while b - a rounds to gap: the bisection
    # lands past b and the backward step returns to it.  Both are ties
    # broken to even, which needs a gap with an even significand; DEDUP,
    # 1e-4, has an odd one, so there this step does not run
    ([1.5 * math.ulp(_GAP), _GAP + math.ulp(_GAP)], _GAP, [0, 1])],
    ids=["forward", "backward"])
def test_chain_heads_match_the_greedy_loop(values, gap, expected):
    heads = [0]
    for j, v in enumerate(values):
        if v - values[heads[-1]] >= gap:
            heads.append(j)
    assert adshull._chain_heads(values, gap).tolist() == heads == expected


def test_conjugacy_pair_euler_classes(octagon):
    # both holonomies of a sheared spacelike surface keep Euler class 2-2g
    rep_r = rep_after_earthquake(octagon, WeightedMulticurve([("a1", 0.4)]), 1.0)
    assert euler_class(octagon) == euler_class(rep_r) == -2


def test_dual_distance_refuses_a_product_without_determinant():
    # two unipotent duals of size 1e9: m1 m2^-1 = [[1 + 1e18, 1e9], [1e9, 1]],
    # whose recomputed determinant cancels to 0; a NaN dual is carried
    m1, m2 = np.array([[1.0, 1e9], [0.0, 1.0]]), np.array([[1.0, 0.0], [-1e9, 1.0]])
    nan = np.full((2, 2), np.nan)
    with pytest.raises(RuntimeError, match="two face duals lost its determinant to rounding"):
        _dual_distances(np.array([nan, m1]), np.array([m2, m2]))
    assert np.isnan(_dual_distances(np.array([nan, m1]), np.array([m2, nan]))).all()
    assert _dual_distances(np.array([m1]), np.array([m1])).tolist() == [0.0]


def test_extraction_equivariance():
    """Applying (gL, gR) to the graph leaves bending weights unchanged."""
    s = 2.0
    gl = Mat2(np.array([[1.1, 0.2], [0.3, 1.0]])).m
    gr = Mat2(np.array([[0.9, -0.1], [0.2, 1.2]])).m
    f = shear_map(s)
    n = 96
    moved = CircleGraph([(RP1Point.from_theta(k / n).apply(gl).theta,
                          RP1Point.from_theta(f(k / n)).apply(gr).theta)
                         for k in range(n)])
    hull = convex_hull(moved)
    quake = extract_left_earthquake(hull)
    assert abs(quake.dominant_shear - math.log(s)) < 1e-6
    pairs, _, _, weights = bending_data(hull)
    edges = weights[~np.isnan(weights) & hull.faces.future[pairs].all(axis=1)]
    assert len(edges) == 1
    assert abs(edges[0] - 0.5 * math.log(s)) < 1e-9


@pytest.mark.parametrize("golden, curves, scale", [
    ("sheared_b1.json", [("b1", 1.0)], 0.55),
    (None, [("a1", 0.7), ("a2", 0.4)], 1.0),
    (None, [("a1", 0.5), ("b2", 0.3)], 1.0),
    (None, [("a1 b1 A1 B1", 0.6)], 1.0)], ids=["b1-golden", "a1-a2", "a1-b2", "a1b1A1B1"])
def test_face_duals_match_region_isometries(octagon, golden, curves, scale):
    """The dual of a spacelike future face is the left earthquake's
    isometry E on one complementary region, up to fixed factors, so on
    the three largest such faces |tr(m_i m_j^-1)| = |tr(E_i^-1 E_j)|:
    m_i the face's dual and E_i the isometry of the region that holds
    the mean of the face's left ideal vertices.  Traces ignore the
    conjugation between the two sides."""
    mc = WeightedMulticurve(curves)
    if golden:
        rep_r = Representation.load(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                  "data", "golden", golden))
    else:
        rep_r = rep_after_earthquake(octagon, mc, scale, L=3)
    graph = sample_conjugacy(octagon, rep_r, 5)
    faces = convex_hull(graph).faces
    kept = np.flatnonzero(faces.future & (faces.classes == "spacelike"))
    top = kept[np.argsort(-np.diff(faces.start)[kept], kind="stable")[:3]]
    quake = EquivariantEarthquakeMap(octagon, mc, "left", scale)
    regions = []
    for i in top:
        left = graph.samples[faces.ids[faces.start[i]:faces.start[i + 1]], 0]
        p = hyperboloid_normalize(null_vectors(rp1_from_thetas(left)).mean(axis=0))
        regions.append(quake.region_isometry(p)[0])
    for i, j in itertools.combinations(range(3), 2):
        dual = abs(np.trace(faces.duals[top[i]] @ adjugate(faces.duals[top[j]])))
        quake_side = abs(np.trace(adjugate(regions[i]) @ regions[j]))
        assert abs(dual - quake_side) < 1e-6


def test_dependence_membership_cases():
    g = shear_graph(2.0, 64)
    # the identity point's dual plane misses the graph
    assert dependence_membership(np.eye(2), g) is True
    # a rotation-subgroup point beyond the domain: its dual plane crosses
    th = 1.4
    m = math.cos(th) * np.eye(2) + math.sin(th) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert dependence_membership(m, g) is False
    # planar graphs are flagged indeterminate
    assert dependence_membership(np.eye(2), identity_graph()) is None
    # so is a point whose dual plane passes within EPS of a sample: the
    # identity moved along (1, 0, 0, 0) until its plane meets sample 10
    q, e, r = g.points[10], np.eye(2).ravel(), np.array([1.0, 0.0, 0.0, 0.0])
    p = e - qpair(e, q) / qpair(r, q) * r
    assert 0.0 < abs(qpair(e, q)) and abs(qpair(p, q)) < 1e-15
    assert dependence_membership(p, g) is None


def test_lemma5_plane_family():
    pts = lemma5_configuration()
    assert len(pts) == 9
    for p in pts:
        assert abs(qform(p)) < 1e-12
    # the planes z = k separate the configuration exactly when |k| > sqrt(3)
    for k in (2.0, 2.5, -2.0):
        assert plane_separates(plane_z_equals(k), pts)
    for k in (0.0, 1.0, 1.5, -1.5):
        assert not plane_separates(plane_z_equals(k), pts)
    assert plane_class(plane_z_equals(2.0)) == "spacelike"


def scalar_hull_faces(hull):
    """The per-face loop that HullFaces replaced, kept as the reference:
    Qhull's facets merged in a dict keyed by rounded equations, then one
    plane_label, one class, one Mat2 dual and one flow sum per face.
    Returns (normal, offset, label, class, dual or None, future, ids) per face."""
    minv = np.linalg.inv(plane_classes(hull.chart_plane[None])[1][0])
    pts4 = np.einsum("ij,njk->nik", minv, hull.graph.points.reshape(-1, 2, 2)).reshape(-1, 4)
    pts4 = pts4 * np.sign(0.5 * (pts4[:, 0] + pts4[:, 3]))[:, None]
    simplices, equations = ConvexHull(hull.chart_points)
    groups = {}
    for eq, simplex in zip(equations, simplices):
        ids, eqs = groups.setdefault(tuple(np.round(eq, 6)), (set(), []))
        ids.update(int(i) for i in simplex)
        eqs.append(eq)
    chart_mat = np.linalg.inv(minv)
    faces = []
    for ids, eqs in groups.values():
        ids = np.array(sorted(ids))
        eq = np.mean(eqs, axis=0)
        normal, offset = eq[:3] / np.linalg.norm(eq[:3]), float(eq[3])
        n1, n2, n3 = normal
        cov = 0.5 * np.array([[offset + n2, n1 + n3], [n1 - n3, offset - n2]])
        label = plane_label(chart_mat @ adjugate(cov.T))
        flow = 0.0
        for i in ids[:8]:
            dp = (pts4[i].reshape(2, 2) @ ROTATION_GENERATOR).reshape(4)
            wp = 0.5 * (pts4[i, 0] + pts4[i, 3])
            dw = 0.5 * (dp[0] + dp[3])
            d3 = np.array([0.5 * (dp[1] + dp[2]), 0.5 * (dp[0] - dp[3]),
                           0.5 * (dp[1] - dp[2])])
            flow += float(np.dot(normal, (d3 - hull.chart_points[i] * dw) / wp))
        q, scale = float(qform(label)), float(np.dot(label, label))
        kind = "spacelike" if q > 1e-9 * scale else "lorentzian" if q < -1e-9 * scale else "null"
        dual = Mat2(label.reshape(2, 2) / math.sqrt(q)) if kind == "spacelike" else None
        faces.append((normal, offset, label, kind, dual, flow > 0, ids))
    return faces


def scalar_adjacency(faces):
    """Future-face pairs sharing >= 2 vertices, by the dict scan."""
    vmap = {}
    for i, face in enumerate(faces):
        if face[5]:
            for v in face[6]:
                vmap.setdefault(int(v), []).append(i)
    counts = {}
    for v, fs in vmap.items():
        for a in range(len(fs)):
            for b in range(a + 1, len(fs)):
                counts.setdefault((fs[a], fs[b]), []).append(v)
    return [(i, j, shared) for (i, j), shared in counts.items() if len(shared) >= 2]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _sheared_graph(octagon, curve, w):
    rep_r = rep_after_earthquake(octagon, WeightedMulticurve([(curve, 1.0)]), w, L=3)
    return sample_conjugacy(octagon, rep_r, 4)


def _random_monotone_graph():
    rng = np.random.default_rng(11)
    return CircleGraph(list(zip(np.sort(rng.random(300)), np.sort(rng.random(300)))))


def staircase_graph(steps=3, m=5):
    """Alternating runs of constant right and constant left angle: the
    runs through each corner lie on its two rulings, so the hull has
    null faces, future ones among them."""
    samples = []
    for k in range(steps):
        a, b = k / steps, (k + 0.5) / steps
        samples += [(a + 0.5 * j / (steps * m), b) for j in range(m)]
        samples += [(a + 0.5 / steps, b + 0.5 * j / (steps * m)) for j in range(m)]
    return CircleGraph(samples)


@pytest.mark.parametrize("make", [lambda o: _sheared_graph(o, "b1", 0.55),
                                  lambda o: _sheared_graph(o, "a1", 0.3),
                                  lambda o: _random_monotone_graph(),
                                  lambda o: staircase_graph()],
                         ids=["b1-golden", "a1", "random", "staircase"])
def test_hull_faces_match_scalar_reference(octagon, make):
    hull = convex_hull(make(octagon))
    assert not hull.flat and not hull.joggled
    ref = scalar_hull_faces(hull)
    faces = hull.faces
    assert len(faces) == len(ref) == len(set(map(tuple, faces.labels.tolist())))
    assert same_bits(faces.normals, [r[0] for r in ref])
    assert same_bits(faces.offsets, [r[1] for r in ref])
    assert same_bits(faces.labels, [r[2] for r in ref])
    assert faces.classes.tolist() == [r[3] for r in ref]
    assert same_bits(faces.duals, [np.full((2, 2), np.nan) if r[4] is None else r[4].m
                                   for r in ref])
    assert faces.future.tolist() == [r[5] for r in ref]
    assert [ids.tolist() for ids in np.split(faces.ids, faces.start[1:-1])] == [r[6].tolist()
                                                                       for r in ref]

    adjacency = scalar_adjacency(ref)
    pairs, shared, start = face_adjacency(hull)
    assert [(i, j, shared[lo:hi].tolist()) for (i, j), lo, hi
            in zip(pairs.tolist(), start[:-1], start[1:])] == adjacency
    weights = []
    for i, j, _ in adjacency:
        if ref[i][4] is None or ref[j][4] is None:
            weights.append(None)
        else:
            rel = ref[i][4] @ ref[j][4].inverse()
            weights.append(math.acosh(max(abs(rel.trace()) / 2.0, 1.0)))
    bend = bending_data(hull)
    assert all(same_bits(a, b) for a, b in zip(bend[:3], face_adjacency(hull)))
    assert np.isnan(bend[3]).tolist() == [w is None for w in weights]
    assert [None if np.isnan(w) else w for w in bend[3].tolist()] == weights
    assert hull.to_obj() == hull_obj(hull)

    order = [i for i, r in enumerate(ref) if r[5] and r[4] is not None]
    m_ref = ref[sorted(order, key=lambda i: -len(ref[i][6]))[0]][4]
    quake = extract_left_earthquake(hull)
    assert same_bits(quake.left_factors, [(m_ref @ ref[i][4].inverse()).m for i in order])
    assert same_bits(_face_mobius(faces.duals[order]),
                     [Mat2(ROTATION_GENERATOR @ adjugate(ref[i][4].m)).m for i in order])


def test_group_means_match_np_mean():
    rng = np.random.default_rng(5)
    # one group of 1,200 rows among many small ones, in shuffled order
    group = rng.permutation(np.concatenate([np.zeros(1200, int),
                                            rng.integers(1, 400, size=2000)]))
    group = np.unique(group, return_inverse=True)[1]
    rows = rng.normal(size=(len(group), 4)) * 10.0 ** rng.integers(-8, 8, size=(len(group), 1))
    means = _group_means(rows, group)
    assert np.bincount(group).max() >= 1000
    assert same_bits(means, [np.mean(rows[group == g], axis=0) for g in range(len(means))])


def test_convex_hull_peak_memory():
    """The largest face of this graph merges about 1,200 facets, so a
    (faces, largest count, 4) padded stack would take about 92 MB.  The
    per-face loop's tracemalloc peak on it was 4.55 MB (numpy 2.4,
    scipy 1.17); the record's is about 1.9 MB."""
    graph = shear_graph(2.0, 2400)
    convex_hull(graph)  # load Qhull and cache the graph points first
    tracemalloc.start()
    try:
        hull = convex_hull(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.diff(hull.faces.start).max() >= 1000
    assert peak <= 1.5 * 4.55e6


def test_flat_hull_peak_memory():
    """A flat graph's plane is the least-squares SVD of one row per
    sample.  The full SVD's (N, N) left factor made the tracemalloc peak
    of this 3,000-sample graph 72 MB (numpy 2.4); the reduced SVD's is
    about 0.6 MB."""
    graph = identity_graph(3000)
    convex_hull(graph)  # load scipy and cache the graph points first
    tracemalloc.start()
    try:
        hull = convex_hull(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hull.flat
    assert peak <= 8e6


def test_sample_conjugacy_peak_memory(octagon, conjugacy_pairs):
    """The ball's matrices go once the left fixed points are taken, and
    the right representation is evaluated in blocks along the ball's
    words, keeping only the rows the dedup keeps, so its products are
    never alive whole.  The tracemalloc peak of this radius-6 conjugacy
    (octagon to the golden b1 shear) was 34.0 MB with one product per
    level, 27.7 MB with GroupBall.evaluate in blocks and a sort of 32-byte
    keys per level, 16.5 MB with hashed keys and the whole right-hand
    evaluation, and is 11.4 MB (numpy 2.4): the ball's matrices, words
    and left angles while those angles are taken.  In `ads between` the
    hull and the report now set the process's resident peak."""
    rep_r, radius = conjugacy_pairs[1]
    assert radius == 6
    tracemalloc.start()
    try:
        sample_conjugacy(octagon, rep_r, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5e6


def test_ball_six_hull_and_extraction_peak_memory(conjugacy_graphs):
    """On the radius-6 octagon to golden b1 graph (6,996 samples, 12,427
    merged faces), _merged_faces drops each temporary once spent and
    face_adjacency concatenates its per-distance hits once: the
    tracemalloc peaks of convex_hull and extract_left_earthquake were
    8.34 and 4.37 MB, and are 6.05 and 3.79 MB (numpy 2.4, scipy 1.17).
    Each bound is that peak plus about 12%."""
    graph = conjugacy_graphs[1]
    assert len(graph) == 6996
    convex_hull(graph)  # load Qhull and cache the graph points first
    tracemalloc.start()
    try:
        hull = convex_hull(graph)
        hull_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        extract_left_earthquake(hull)
        extract_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(hull.faces) == 12427
    assert hull_peak <= 6.8e6
    assert extract_peak <= 4.25e6


@pytest.mark.parametrize("radius, message", [
    (1, r"element is not hyperbolic \(trace 2\.000000\)"),
    (2, "a trace is too large for its fixed points"),
    (4, "a product along the ball's words overflows")],
    ids=["not-hyperbolic", "trace-too-large", "overflow"])
def test_streamed_right_evaluation_keeps_the_refusal_order(octagon, radius, message):
    """b1, a2 and b2 go to the identity, which is not hyperbolic, from
    radius 1; a1^2 has a trace whose square overflows, and a1^4 entries
    past the float range.  Evaluated in blocks, the right representation
    is refused as the whole evaluation and one pass over its fixed
    points refuse it: an overflowing product anywhere first, then a
    trace too large, then the first matrix that is not hyperbolic."""
    rep_r = Representation(2, [np.diag([1e100, 1e-100])] + [np.eye(2)] * 3)
    for run in (lambda: sample_conjugacy(octagon, rep_r, radius),
                lambda: reference.sample_conjugacy(GroupBall(octagon, radius), rep_r)):
        with pytest.raises(ValueError, match=message):
            run()
