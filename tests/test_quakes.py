import json
import math
import os

import numpy as np
import pytest

import lorentz21
from lorentz21.fuchsian import Mat2, regular_polygon_rep
from lorentz21.laminations import WeightedMulticurve, closed_geodesic_of, crossings
from lorentz21.minkowski import (
    G,
    RP1Point,
    adjoint_to_so21,
    hyperboloid_normalize,
    inner,
    null_vectors,
    rp1_from_thetas,
)
from lorentz21.quakes import (
    CircleMap,
    EarthquakeMap,
    EquivariantEarthquakeMap,
    FiniteLaminationH2,
    boundary_value,
    equivariant_lamination,
    lamination_from_json,
    lamination_to_json,
    quadric_action_example,
    real_boundary_point,
    rep_after_earthquake,
    uhp_point,
)
from reference import GeodesicH2, leaves_of


def single_leaf(weight, base_negative=True):
    """The upper-half-plane geodesic (0, infinity), weighted; base region
    on the negative reals when base_negative."""
    leaf = GeodesicH2(real_boundary_point(0.0), real_boundary_point(None))
    base = uhp_point(-1.0, 1.0) if base_negative else uhp_point(1.0, 1.0)
    return FiniteLaminationH2(leaves_of([(leaf, weight)]), base)


def bpoint(quake, r):
    """Image of the boundary real r (None = infinity) as a real again."""
    x = quake.boundary_point(real_boundary_point(r))
    u, v = x.v
    if abs(v) < 1e-12:
        return None
    return u / v


def test_uhp_point():
    p = uhp_point(0.0, 1.0)
    assert np.max(np.abs(p - np.array([0.0, 0.0, 1.0]))) < 1e-15
    with pytest.raises(ValueError):
        uhp_point(0.0, -1.0)


@pytest.mark.parametrize("s", [2.0, 4.0, 9.0])
def test_single_leaf_boundary_anchor(s):
    """Left quake along (0, infinity) with weight log s and base on the
    negatives: identity on the negative reals, multiplication by s on
    the positives."""
    quake = EarthquakeMap(single_leaf(math.log(s)), side="left")
    for r in (-3.0, -0.5, -17.0):
        assert abs(bpoint(quake, r) - r) < 1e-12
    for r in (0.5, 1.0, 7.0):
        assert abs(bpoint(quake, r) - s * r) < 1e-12 * max(1.0, s * r)
    assert abs(bpoint(quake, 0.0)) < 1e-12
    assert bpoint(quake, None) is None


def test_single_leaf_interior_points():
    s = 4.0
    quake = EarthquakeMap(single_leaf(math.log(s)))
    p = uhp_point(-2.0, 1.0)
    assert np.max(np.abs(quake(p) - p)) < 1e-12
    q = uhp_point(1.0, 1.0)
    expect = uhp_point(s * 1.0, s * 1.0)
    assert np.max(np.abs(quake(q) - expect)) < 1e-12


def test_scale_additivity():
    lamination = single_leaf(0.3)
    q1 = EarthquakeMap(lamination, scale=1.0)
    q2 = EarthquakeMap(lamination, scale=2.5)
    q35 = EarthquakeMap(lamination, scale=3.5)
    p = uhp_point(2.0, 1.5)
    assert np.max(np.abs(q35(p) - q1(q2(p)))) < 1e-12


def test_right_after_left_fixes_base_side():
    lamination = single_leaf(0.7)
    left = EarthquakeMap(lamination, side="left")
    right = EarthquakeMap(lamination, side="right")
    # the two quakes are inverse on every region
    for u, v in [(-1.0, 1.0), (2.0, 0.5), (0.3, 2.0)]:
        p = uhp_point(u, v)
        assert np.max(np.abs(right(left(p)) - p)) < 1e-9


def test_scale_zero_is_identity():
    quake = EarthquakeMap(single_leaf(1.0), scale=0.0)
    p = uhp_point(3.0, 2.0)
    assert np.max(np.abs(quake(p) - p)) < 1e-15


def test_on_leaf_point_two_valued():
    lamination = single_leaf(math.log(2.0))
    quake = EarthquakeMap(lamination)
    p = uhp_point(0.0, 1.0)  # on the leaf
    with pytest.raises(ValueError):
        quake.apply(p)
    lo, hi = quake.one_sided_values(p, eps=1e-8)
    vals = sorted([np.max(np.abs(v - p)) for v in (lo, hi)])
    # one limit fixes the point, the other moves it along the leaf
    assert vals[0] < 1e-6
    assert vals[1] > 0.1


def test_mobius_equivariance():
    """Conjugating the lamination and basepoint transforms the quake by
    conjugation."""
    g = Mat2(np.array([[1.3, 0.4], [0.2, 1.0]]))
    A = adjoint_to_so21(g)
    leaf = GeodesicH2(RP1Point.from_theta(0.12), RP1Point.from_theta(0.55))
    base = uhp_point(0.3, 0.8)
    lam1 = FiniteLaminationH2(leaves_of([(leaf, 0.6)]), base)
    lam2 = FiniteLaminationH2(leaves_of([(leaf.apply(g), 0.6)]), A @ base)
    q1 = EarthquakeMap(lam1)
    q2 = EarthquakeMap(lam2)
    p = uhp_point(1.7, 0.4)
    assert np.max(np.abs(q2(A @ p) - A @ q1(p))) < 1e-12


def test_boundary_map_monotone():
    leaf1 = GeodesicH2(RP1Point.from_theta(0.1), RP1Point.from_theta(0.4))
    leaf2 = GeodesicH2(RP1Point.from_theta(0.55), RP1Point.from_theta(0.8))
    lamination = FiniteLaminationH2(leaves_of([(leaf1, 0.9), (leaf2, 1.4)]))
    cm = boundary_value(EarthquakeMap(lamination), samples=128)
    assert cm.is_monotone()
    cm_r = boundary_value(EarthquakeMap(lamination, side="right"), samples=128)
    assert cm_r.is_monotone()


def test_lamination_disjointness_enforced():
    leaf1 = GeodesicH2(RP1Point.from_theta(0.1), RP1Point.from_theta(0.5))
    leaf2 = GeodesicH2(RP1Point.from_theta(0.3), RP1Point.from_theta(0.7))
    with pytest.raises(ValueError):
        FiniteLaminationH2(leaves_of([(leaf1, 1.0), (leaf2, 1.0)]))
    with pytest.raises(ValueError):
        FiniteLaminationH2(leaves_of([(leaf1, -1.0)]))


def test_lamination_basepoint_leaves_a_leaf_through_the_apex():
    leaf = GeodesicH2(RP1Point.from_theta(0.0), RP1Point.from_theta(0.5))
    assert abs(leaf.side(np.array([0.0, 0.0, 1.0]))) < 1e-12
    lamination = FiniteLaminationH2(leaves_of([(leaf, 1.0)]))
    assert abs(leaf.side(lamination.basepoint)) > 1e-6
    assert abs(inner(lamination.basepoint, lamination.basepoint) + 1.0) < 1e-12


def test_lamination_disjointness_names_the_leaves():
    leaves = [GeodesicH2(RP1Point.from_theta(a), RP1Point.from_theta(b))
              for a, b in ((0.1, 0.2), (0.3, 0.5), (0.6, 0.7), (0.4, 0.65))]
    with pytest.raises(ValueError, match="leaves 1 and 3 are not disjoint"):
        FiniteLaminationH2(leaves_of([(g, 1.0) for g in leaves]))
    with pytest.raises(ValueError, match="leaves 0 and 1 are not disjoint"):
        FiniteLaminationH2(leaves_of([(leaves[0], 1.0), (leaves[0], 2.0)]))


def test_lamination_json_roundtrip():
    lamination = single_leaf(0.8)
    data = lamination_to_json(lamination)
    lam2 = lamination_from_json(data)
    assert len(lam2.leaves) == 1
    assert lam2.leaves.weights[0] == 0.8
    assert np.max(np.abs(lam2.basepoint - lamination.basepoint)) < 1e-12


_GOLDEN_LAMINATION = os.path.join(os.path.dirname(__file__), "data", "golden",
                                  "quake_lamination.json")


@pytest.mark.parametrize("path", [_GOLDEN_LAMINATION,
                                  lorentz21.bundled("single_leaf_lamination.json")],
                         ids=["golden", "bundled"])
def test_lamination_record_matches_scalar_reference(path):
    """A lamination file read in one stacked pass gives, bit for bit, the
    record of its leaves read one GeodesicH2 at a time."""
    with open(path) as fh:
        data = json.load(fh)
    geos = [GeodesicH2(RP1Point.from_theta(rec["end1"]), RP1Point.from_theta(rec["end2"]))
            for rec in data["leaves"]]
    leaves = lamination_from_json(data).leaves
    assert np.array_equal(leaves.end1, [g.end1.v for g in geos])
    assert np.array_equal(leaves.end2, [g.end2.v for g in geos])
    assert leaves.thetas.tolist() == [[g.end1.theta, g.end2.theta] for g in geos]
    assert [tuple(k) for k in leaves.keys.tolist()] == [g.key(7) for g in geos]
    assert np.array_equal(leaves.normals, [g.normal for g in geos])
    assert leaves.weights.tolist() == [rec["weight"] for rec in data["leaves"]]


def test_lamination_refuses_coincident_ends():
    with pytest.raises(ValueError, match="endpoints coincide"):
        lamination_from_json({"leaves": [{"end1": 0.3, "end2": 1.3, "weight": 1.0}]})


def test_lamination_basepoint_must_be_a_point():
    # a basepoint of two coordinates once passed, then failed with an IndexError
    with pytest.raises(ValueError, match="future timelike"):
        lamination_from_json({"leaves": [], "basepoint": [1.0, 2.0]})


def test_lamination_basepoint_tolerance_is_read_on_the_hyperboloid():
    # the apex scaled down lies 1.38 from the leaf's plane once normalized:
    # it is kept as given and designates the apex's region
    leaf = {"end1": 0.1, "end2": 0.3, "weight": 1.0}
    small = lamination_from_json({"leaves": [leaf], "basepoint": [0.0, 0.0, 1e-10]})
    assert lamination_to_json(small)["basepoint"] == [0.0, 0.0, 1e-10]
    apex = lamination_from_json({"leaves": [leaf], "basepoint": [0.0, 0.0, 1.0]})
    p = uhp_point(0.3, 0.2)
    assert np.array_equal(EarthquakeMap(small)(p), EarthquakeMap(apex)(p))
    # 1e-12 off the leaf x = 0, scaled up: refused whatever the scale
    with pytest.raises(ValueError, match="within 1e-9 of a leaf"):
        lamination_from_json({"leaves": [{"end1": 0.0, "end2": 0.5, "weight": 1.0}],
                              "basepoint": [1e-3, 0.0, 1e9]})


def test_lamination_with_no_basepoint_off_its_leaves_fails():
    # the Klein diameter along (0.0131, 0.0271) holds the apex and all 33
    # nudges of laminations.basepoint_off; its end at angle phi has theta
    # phi / 2 pi + 1 / 4
    theta = math.atan2(0.0271, 0.0131) / (2.0 * math.pi) + 0.25
    with pytest.raises(RuntimeError, match="no basepoint off all leaves"):
        lamination_from_json({"leaves": [{"end1": theta, "end2": theta + 0.5, "weight": 1.0}]})


@pytest.mark.parametrize("s", [2.0, 4.0, 9.0])
def test_quadric_action_example(s):
    ex = quadric_action_example(s)
    assert np.max(np.abs(ex["start"] - np.array([[1, 1], [1, 1]]))) == 0.0
    assert np.max(np.abs(ex["mid"] - np.array([[s, 1], [s, 1]]))) < 1e-12
    assert np.max(np.abs(ex["end"] - np.array([[s * s, s], [s, 1]]))) < 1e-12
    r = math.sqrt(s)
    assert np.max(np.abs(ex["half"] - np.array([[s, r], [r, 1]]))) < 1e-12
    # the half-measure image lies on the plane {b = c}
    assert abs(ex["half"][0, 1] - ex["half"][1, 0]) < 1e-12


def test_circle_map_monotone_and_eval():
    cm = CircleMap([(0.1, 0.2), (0.4, 0.5), (0.8, 0.9)])
    assert cm.is_monotone()
    assert abs(cm.evaluate(0.4) - 0.5) < 1e-12
    bad = CircleMap([(0.1, 0.5), (0.4, 0.2), (0.8, 0.9)])
    assert not bad.is_monotone()


@pytest.fixture(scope="module")
def octagon():
    return regular_polygon_rep(2)


def test_rep_after_earthquake_zero_scale(octagon):
    mc = WeightedMulticurve([("a1", 1.0)])
    out = rep_after_earthquake(octagon, mc, 0.0)
    assert all(Mat2.normalized(a).dist(Mat2.normalized(b)) == 0.0
               for a, b in zip(out.generators, octagon.generators))


def test_rep_after_earthquake_valid_and_traces(octagon):
    mc = WeightedMulticurve([("a1", 0.4)])
    out = rep_after_earthquake(octagon, mc, 1.0, L=3)
    assert out.is_valid(1e-6)
    # the twisting curve and any disjoint curve keep their traces
    for word in ("a1", "a2"):
        from lorentz21.fuchsian import parse_word

        w = parse_word(word)
        t_old = abs(octagon.evaluate(w).trace())
        t_new = abs(out.evaluate(w).trace())
        assert abs(t_old - t_new) < 1e-8
    # a transverse curve does not
    t_old = abs(octagon.evaluate((2,)).trace())
    t_new = abs(out.evaluate((2,)).trace())
    assert abs(t_old - t_new) > 1e-3


def test_equivariant_quake_equivariance(octagon):
    mc = WeightedMulticurve([("a1", 0.4)])
    quake = EquivariantEarthquakeMap(octagon, mc, scale=1.0, L=3)
    out = rep_after_earthquake(octagon, mc, 1.0, L=3)
    p = quake.lamination.basepoint
    for i in range(4):
        lhs = quake(adjoint_to_so21(octagon.generators[i]) @ p)
        rhs = adjoint_to_so21(out.generators[i]) @ quake(p)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_equivariant_boundary_point_at_a_leaf_end(octagon):
    """A leaf's shear fixes its ends: the lifted map, as the finite map
    over the same leaves, sends each end of the a1 axis, the lift next
    to the base region, to itself."""
    mc = WeightedMulticurve([("a1", 1.0)])
    lifted = EquivariantEarthquakeMap(octagon, mc, "left", 0.8)
    finite = EarthquakeMap(equivariant_lamination(octagon, mc), "left", 0.8)
    for end in closed_geodesic_of(octagon, "a1"):
        x = RP1Point.normalized(end)
        assert lifted.boundary_point(x).dist(x) < 1e-12
        assert finite.boundary_point(x).dist(x) < 1e-12


def test_equivariant_lamination_holds_leaves_within_reach(octagon):
    mc = WeightedMulticurve([("a1", 0.4)])
    lamination = equivariant_lamination(octagon, mc, radius=2.0, L=3)
    b = lamination.basepoint
    assert all(abs(side) < math.sinh(2.0) and w == 0.4 for side, w in
               zip(inner(lamination.leaves.normals, b), lamination.leaves.weights))
    # every leaf met on a geodesic segment of length 1.9 from b is held
    held = set(map(tuple, lamination.leaves.keys.tolist()))
    crossed = []
    for k in range(8):
        v = np.array([math.cos(k * math.pi / 4), math.sin(k * math.pi / 4), 0.0])
        u = v + inner(v, b) * b
        q = math.cosh(1.9) * b + math.sinh(1.9) * u / math.sqrt(inner(u, u))
        crossed += map(tuple, crossings(octagon, mc, b, q, 3).keys.tolist())
    assert crossed and set(crossed) <= held


# The per-crossing rule, kept as the scalar reference of the shear fold:
# at each crossing of the segment from the base point, a tangent frame
# (crossing point c, direction u) decides which end lies to the left.


def _left_of(c, u):
    """Unit tangent at c obtained by rotating the tangent u by +90 deg."""
    n = G @ np.cross(c, u)
    return n / math.sqrt(max(inner(n, n), 1e-300))


def _toward(c, target):
    """Unit tangent at the hyperboloid point c toward a point or null
    vector target."""
    t = target + inner(target, c) * c
    return t / math.sqrt(max(inner(t, t), 1e-300))


def _reference_shear(end1, end2, amount, c, u, side):
    """Mat2 translating by amount along the leaf with unit end vectors
    end1, end2, toward the end on the left of the crossing direction u
    at the crossing point c (the right for side 'right')."""
    ell = _left_of(c, u)
    if side == "right":
        ell = -ell
    v1 = _toward(c, null_vectors(end1))
    target, other = (end1, end2) if inner(v1, ell) < 0 else (end2, end1)
    m = np.column_stack([target, other])
    if np.linalg.det(m) < 0:
        m = np.column_stack([target, -other])
    d = math.exp(amount / 2.0)
    return Mat2(m @ np.diag([d, 1.0 / d]) @ np.linalg.inv(m))


def _reference_isometry(leaves, b, target, scale, side):
    """Shears along the leaves that separate b from target, composed on
    the left in the order the segment b -> target crosses them, each
    oriented by the frame at its crossing."""
    sb, st = inner(leaves.normals, b), inner(leaves.normals, target)
    s = sb / (sb - st)
    crossed = np.flatnonzero((np.abs(st) >= 1e-12) & (sb * st < 0))
    g = Mat2.identity()
    for k in crossed[np.argsort(s[crossed], kind="stable")]:
        c = hyperboloid_normalize(b + s[k] * (target - b))
        g = g @ _reference_shear(leaves.end1[k], leaves.end2[k], scale * leaves.weights[k],
                                 c, _toward(c, target), side)
    return g


@pytest.mark.parametrize("side", ["left", "right"])
def test_fold_matches_per_crossing_rule_on_finite_lamination(side):
    """Shears oriented by the base region and folded base-outward give
    the per-crossing rule's isometries bit for bit, at random points
    and at the boundary map's samples of the golden lamination."""
    path = os.path.join(os.path.dirname(__file__), "data", "golden", "quake_lamination.json")
    with open(path) as fh:
        lamination = lamination_from_json(json.load(fh))
    quake = EarthquakeMap(lamination, side, 0.8)
    # up to 8 from the apex, where the farthest leaves lie
    r, a = np.random.default_rng(3).uniform([0.0, 0.0], [8.0, 2.0 * math.pi], size=(300, 2)).T
    points = np.column_stack([np.sinh(r) * np.cos(a), np.sinh(r) * np.sin(a), np.cosh(r)])
    cm = boundary_value(quake, samples=512)
    ideal = null_vectors(rp1_from_thetas([a for a, _ in cm.samples]))
    b = lamination.basepoint
    crossed = np.zeros(len(lamination.leaves), dtype=bool)
    for targets, is_ideal in ((points, False), (ideal, True)):
        got = quake.region_isometry(targets, ideal=is_ideal)
        for g, t in zip(got, targets):
            assert np.array_equal(g, _reference_isometry(lamination.leaves, b, t, 0.8, side).m)
        crossed |= quake._separating(targets, ideal=is_ideal).any(axis=0)
    # every leaf is crossed, so every leaf's orientation is compared
    assert crossed.all()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("word, weight", [("a1", 1.0), ("b1", 1.0), ("a2", 0.7)])
def test_fold_matches_per_crossing_rule_on_lifted_lamination(octagon, word, weight, side):
    """The same on the lifted multicurve: the generator translates of
    the base point and ten random points, at three scales."""
    mc = WeightedMulticurve([(word, weight)])
    xy = np.random.default_rng(4).normal(size=(10, 2)) * 2.0
    points = np.column_stack([xy, np.sqrt(1.0 + (xy ** 2).sum(axis=1))])
    for scale in (0.3, 0.55, 1.0):
        quake = EquivariantEarthquakeMap(octagon, mc, side, scale, L=3)
        b = quake.lamination.basepoint
        targets = np.vstack([[adjoint_to_so21(g) @ b for g in octagon.generators], points])
        for g, t in zip(quake.region_isometry(targets), targets):
            want = _reference_isometry(crossings(octagon, mc, b, t, 3), b, t, scale, side)
            assert np.array_equal(g, want.m)


def test_equivariant_one_sided_values_on_lifted_leaf(octagon):
    """On the a1 lift nearest the base point the lifted map has two
    limits, each the map's value just off the leaf on its side."""
    from lorentz21.laminations import multicurve_lifts

    mc = WeightedMulticurve([("a1", 1.0)])
    quake = EquivariantEarthquakeMap(octagon, mc, "left", 0.8)
    b = quake.lamination.basepoint
    normals = multicurve_lifts(octagon, mc, 3).normals
    n = normals[np.argmin(np.abs(inner(normals, b)))]
    p = hyperboloid_normalize(b - inner(n, b) * n)
    limits = quake.one_sided_values(p)
    assert np.max(np.abs(limits[0] - limits[1])) > 0.1
    for sgn, limit in zip((1.0, -1.0), limits):
        off = quake(hyperboloid_normalize(p + sgn * 1e-7 * (G @ n)))
        assert np.max(np.abs(limit - off)) < 1e-5
