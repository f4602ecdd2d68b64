import math

import numpy as np
import pytest

from lorentz21.adshull import (
    CircleGraph,
    ProjectivePlane,
    bending_data,
    chart_coords,
    chart_quadric_point,
    convex_hull,
    dependence_membership,
    disjoint_spacelike_plane,
    extract_left_earthquake,
    lemma5_configuration,
    plane_separates,
    plane_z_equals,
    qform,
    qpair,
    rulings_of,
    sample_conjugacy,
    segre,
    vec_of,
)
from lorentz21.fuchsian import Mat2, euler_class, regular_polygon_rep
from lorentz21.laminations import WeightedMulticurve
from lorentz21.minkowski import RP1Point
from lorentz21.quakes import rep_after_earthquake


def proj_err(u, v):
    u = np.asarray(u, float) / np.linalg.norm(u)
    v = np.asarray(v, float) / np.linalg.norm(v)
    return min(np.max(np.abs(u - v)), np.max(np.abs(u + v)))


def shear_map(s):
    """Boundary map of the left quake of strength log s along the upper
    half-plane geodesic (0, infinity): identity on the negative reals,
    multiplication by s on the positives."""
    mpos = Mat2(np.diag([math.sqrt(s), 1.0 / math.sqrt(s)]))

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


def test_segre_examples():
    assert proj_err(segre([1, 1], [1, 1]), [1, 1, 1, 1]) == 0.0
    assert proj_err(segre([1, 0], [1, 0]), [1, 0, 0, 0]) == 0.0
    s = 3.0
    assert proj_err(segre([1, 1], [s, 1]), [s, 1, s, 1]) < 1e-15
    assert abs(qform(segre([0.3, 1.7], [-2.0, 0.4]))) < 1e-15
    with pytest.raises(ValueError):
        segre([0, 0], [1, 1])


def test_rulings_examples():
    l, r = rulings_of(np.array([1.0, 1.0, 1.0, 1.0]))
    assert l.dist(RP1Point([1, 1])) < 1e-12
    assert r.dist(RP1Point([1, 1])) < 1e-12
    s = 3.0
    l, r = rulings_of(np.array([s, 1.0, s, 1.0]))
    assert l.dist(RP1Point([1, 1])) < 1e-12
    assert r.dist(RP1Point([s, 1])) < 1e-12
    with pytest.raises(ValueError):
        rulings_of(np.array([1.0, 0.0, 0.0, 1.0]))


def test_rulings_roundtrip_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        l = RP1Point(rng.normal(size=2))
        r = RP1Point(rng.normal(size=2))
        l2, r2 = rulings_of(segre(l, r))
        assert l2.dist(l) < 1e-12
        assert r2.dist(r) < 1e-12


def test_plane_classify_examples():
    assert ProjectivePlane([0.0, 1.0, -1.0, 0.0]).classify() == "spacelike"
    assert ProjectivePlane([1.0, 0.0, 0.0, 0.0]).classify() == "null"
    assert ProjectivePlane([0.0, 1.0, 1.0, 0.0]).classify() == "lorentzian"


def test_dual_point_examples():
    # the plane {b = c} has dual point the class of [[0,1],[-1,0]]
    p = ProjectivePlane([0.0, 1.0, -1.0, 0.0])
    assert proj_err(p.dual_point(), vec_of(np.array([[0.0, 1.0], [-1.0, 0.0]]))) == 0.0
    # the dual of a spacelike plane is an AdS point off the plane
    assert qform(p.dual_point()) > 0
    assert abs(p.incidence(p.dual_point())) > 0.1
    # a null plane is tangent to the quadric at its own label
    n = ProjectivePlane([1.0, 0.0, 0.0, 0.0])
    assert abs(qform(n.dual_point())) < 1e-15
    assert abs(n.incidence(n.dual_point())) < 1e-15
    # duality is an involution
    assert proj_err(ProjectivePlane(p.dual_point()).label, p.label) == 0.0
    with pytest.raises(ValueError):
        n.dual_mat2()


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
        p = segre(l, r)
        if abs(p[0] + p[3]) < 0.1:
            continue
        X, Y, Z = chart_coords(p)
        assert abs(X * X + Y * Y - Z * Z - 1.0) < 1e-9
        assert proj_err(chart_quadric_point(X, Y, Z), p) < 1e-9


def test_disjoint_spacelike_plane_properties():
    for graph in (shear_graph(2.0), identity_graph()):
        plane = disjoint_spacelike_plane(graph)
        assert plane.classify() == "spacelike"
        pts = graph.points()
        inc = qpair(plane.label, pts)
        assert np.all(inc > 0) or np.all(inc < 0)


def test_flat_hull_identity_graph():
    hull = convex_hull(identity_graph())
    assert hull.flat
    assert hull.flat_plane.classify() == "spacelike"
    # the identity graph lies on the plane {b = c}
    assert proj_err(hull.flat_plane.label, [0.0, 1.0, -1.0, 0.0]) < 1e-9
    assert bending_data(hull) == []
    quake = extract_left_earthquake(hull)
    assert quake.total_shear() == 0.0
    for (tl, tr), (_, out) in zip(hull.graph.samples, quake.boundary_map.samples):
        d = abs(out - tr)
        assert min(d, 1.0 - d) < 1e-9


@pytest.mark.parametrize("n", [16, 64, 96])
def test_sshear_hull_two_future_faces(n):
    hull = convex_hull(shear_graph(2.0, n))
    assert not hull.flat
    assert len(hull.future_faces()) == 2


@pytest.mark.parametrize("s", [2.0, 4.0, 9.0])
def test_sshear_bending_oracle(s):
    """Two explicit support planes: {b = c} with dual [[0,1],[-1,0]] and
    {c = s b} with dual [[0,-1],[s,0]]/sqrt(s); their dual-point distance
    is arccosh((sqrt(s) + 1/sqrt(s))/2) = (1/2) log s."""
    hull = convex_hull(shear_graph(s))
    edges = [b for b in bending_data(hull) if b.weight is not None
             and hull.faces[b.face_i].future and hull.faces[b.face_j].future]
    assert len(edges) == 1
    oracle = math.acosh((math.sqrt(s) + 1.0 / math.sqrt(s)) / 2.0)
    assert abs(edges[0].weight - oracle) < 1e-9
    assert abs(edges[0].weight - 0.5 * math.log(s)) < 1e-9


@pytest.mark.parametrize("s", [2.0, 4.0, 9.0])
def test_sshear_extraction(s):
    hull = convex_hull(shear_graph(s))
    quake = extract_left_earthquake(hull)
    assert abs(quake.total_shear() - math.log(s)) < 1e-9
    # recovered boundary map equals the input on samples
    for (tl, tr), (_, out) in zip(hull.graph.samples, quake.boundary_map.samples):
        d = abs(out - tr)
        assert min(d, 1.0 - d) < 1e-8
    # the left factor between the two faces translates along the leaf
    # axis: up to sign its trace is sqrt(s) + 1/sqrt(s)
    traces = sorted(abs(m.trace()) for m in quake.left_factors)
    assert abs(traces[-1] - (math.sqrt(s) + 1.0 / math.sqrt(s))) < 1e-9


def test_hull_causality_and_convexity():
    for graph in (shear_graph(2.0), shear_graph(9.0, 64)):
        hull = convex_hull(graph)
        assert all(f.plane.classify() != "lorentzian" for f in hull.faces)
        assert hull.vertex_on_quadric_error() < 1e-9
        assert hull.convexity_slack() > -1e-6


def test_hull_obj_export():
    hull = convex_hull(shear_graph(2.0, 16))
    obj = hull.to_obj()
    lines = obj.strip().split("\n")
    assert lines[0].startswith("#")
    assert sum(1 for l in lines if l.startswith("v ")) == len(hull.vertex_ids)
    assert sum(1 for l in lines if l.startswith("f ")) == len(hull.faces)


def test_graph_monotone_and_spacelike():
    g = shear_graph(3.0)
    assert g.is_monotone()
    assert g.spacelike_consecutive()
    assert not g.is_planar()
    bad = CircleGraph([(0.1, 0.5), (0.2, 0.3), (0.6, 0.7)])
    assert not bad.is_monotone()


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
    c = Mat2(np.array([[1.2, 0.3], [0.1, 0.9]]))
    g = sample_conjugacy(octagon, octagon.conjugate(c), 4)
    assert g.is_monotone()
    for tl, tr in g.samples:
        d = abs(RP1Point.from_theta(tl).apply(c).theta - tr)
        assert min(d, 1.0 - d) < 1e-9


def test_conjugacy_pair_euler_classes(octagon):
    # both holonomies of a sheared spacelike surface keep Euler class 2-2g
    rep_r = rep_after_earthquake(octagon, WeightedMulticurve([("a1", 0.4)]), 1.0)
    assert euler_class(octagon) == euler_class(rep_r) == -2


def test_extraction_equivariance():
    """Applying (gL, gR) to the graph leaves bending weights unchanged."""
    s = 2.0
    gl = Mat2(np.array([[1.1, 0.2], [0.3, 1.0]]))
    gr = Mat2(np.array([[0.9, -0.1], [0.2, 1.2]]))
    f = shear_map(s)
    n = 96
    moved = CircleGraph([(RP1Point.from_theta(k / n).apply(gl).theta,
                          RP1Point.from_theta(f(k / n)).apply(gr).theta)
                         for k in range(n)])
    hull = convex_hull(moved)
    quake = extract_left_earthquake(hull)
    assert abs(quake.total_shear() - math.log(s)) < 1e-6
    edges = [b.weight for b in bending_data(hull) if b.weight is not None
             and hull.faces[b.face_i].future and hull.faces[b.face_j].future]
    assert len(edges) == 1
    assert abs(edges[0] - 0.5 * math.log(s)) < 1e-9


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
    assert plane_z_equals(2.0).classify() == "spacelike"
