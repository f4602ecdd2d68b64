import gc
import weakref

import numpy as np
import pytest

from lorentz21.fuchsian import GroupBall, regular_polygon_rep
from lorentz21.laminations import (
    WeightedMulticurve,
    closed_geodesic_of,
    crossings,
    default_basepoint,
    disjointness_check,
    first_crossing_pair,
    leaf_lifts,
    multicurve_lifts,
    same_geodesic,
    transverse_vector,
)
from lorentz21.flatspace import cyclic_boost_rep
from lorentz21.minkowski import RP1Point, hyperboloid_normalize, inner
from reference import GeodesicH2, endpoints_linked, geodesic


@pytest.fixture(scope="module")
def octagon():
    return regular_polygon_rep(2)


def geo(t1, t2):
    return GeodesicH2(RP1Point.from_theta(t1), RP1Point.from_theta(t2))


def test_geodesic_side_signs():
    g = geo(0.0, 0.5)
    p = hyperboloid_normalize(np.array([0.5, 0.0, 1.2]))
    q = hyperboloid_normalize(np.array([-0.5, 0.0, 1.2]))
    assert g.side(p) * g.side(q) < 0
    assert abs(g.side(p)) > 0.1
    with pytest.raises(ValueError):
        geo(0.3, 0.3)


def test_endpoints_linked():
    assert endpoints_linked(geo(0.0, 0.5), geo(0.25, 0.75))
    assert not endpoints_linked(geo(0.0, 0.5), geo(0.6, 0.9))
    # shared endpoint counts as unlinked
    assert not endpoints_linked(geo(0.0, 0.5), geo(0.5, 0.8))
    assert same_geodesic(geo(0.1, 0.7), geo(0.7, 0.1))


def test_multicurve_json_roundtrip():
    mc = WeightedMulticurve([("a1", 0.5), ((2, -1), 1.25)])
    mc2 = WeightedMulticurve.from_json(mc.to_json())
    assert mc2.curves == mc.curves
    with pytest.raises(ValueError):
        WeightedMulticurve([("a1 A1", 1.0)])
    with pytest.raises(ValueError):
        WeightedMulticurve([("a1", 0.0)])


def test_closed_geodesic_is_axis(octagon):
    g = GeodesicH2(*map(RP1Point.normalized, closed_geodesic_of(octagon, "a1")))
    m = octagon.generators[0]
    assert g.end1.apply(m).dist(g.end1) < 1e-9
    assert g.end2.apply(m).dist(g.end2) < 1e-9


def test_leaf_lifts_dedup(octagon):
    lifts = leaf_lifts(octagon, "a1", 1)
    keys = {tuple(k) for k in lifts.keys.tolist()}
    assert len(keys) == len(lifts)
    # conjugating by a1 itself fixes the axis, so fewer lifts than ball elements
    assert len(lifts) < 9


def test_leaf_lifts_independent_of_memo():
    # fresh representations, so the memo starts empty for each
    first = leaf_lifts(regular_polygon_rep(2), "a1", 3)
    rep = regular_polygon_rep(2)
    leaf_lifts(rep, "a1", 5)
    after = leaf_lifts(rep, "a1", 3)
    assert after.thetas.tolist() == first.thetas.tolist()


def test_leaf_lift_memo_lives_as_long_as_its_representation():
    rep = regular_polygon_rep(2)
    leaf_lifts(rep, "a1", 2)
    alive = weakref.ref(rep)
    del rep
    gc.collect()
    assert alive() is None


def test_leaf_lifts_rejects_out_of_range_generator(octagon):
    with pytest.raises(ValueError, match="out of range"):
        leaf_lifts(octagon, (17,), 1)


def test_disjointness(octagon):
    # a single simple closed curve lifts to pairwise disjoint leaves
    assert disjointness_check(octagon, WeightedMulticurve([("a1", 1.0)]), 3)
    # in this octagon construction the a1 and a2 axes are disjoint while
    # a1 and b1 cross
    assert disjointness_check(octagon, WeightedMulticurve([("a1", 1.0), ("a2", 1.0)]), 3)
    assert not disjointness_check(octagon, WeightedMulticurve([("a1", 1.0), ("b1", 1.0)]), 3)


def test_crossings_orientation_and_order(octagon):
    mc = WeightedMulticurve([("a1", 0.7)])
    p = default_basepoint(octagon, mc, 3)
    from lorentz21.minkowski import adjoint_to_so21

    # the segment p -> a1 p never crosses the invariant a1 axis, so use
    # the first generator whose translate does cross lifted leaves
    recs = []
    for m in octagon.generators:
        q = adjoint_to_so21(m) @ p
        recs = crossings(octagon, mc, p, q, 3)
        if len(recs):
            break
    assert len(recs) >= 1
    sp, sq = inner(recs.normals, p), inner(recs.normals, q)
    params = (sp / (sp - sq)).tolist()
    assert params == sorted(params)
    for normal, weight in zip(recs.normals, recs.weights):
        # normal points from p's side toward q's side
        assert inner(normal, p) < 0 < inner(normal, q)
        assert weight == 0.7


def test_crossings_empty_for_same_point(octagon):
    mc = WeightedMulticurve([("a1", 1.0)])
    p = default_basepoint(octagon, mc, 3)
    assert len(crossings(octagon, mc, p, p, 3)) == 0


def test_transverse_vector_cyclic_oracle():
    # one leaf, the y-axis geodesic: crossing it contributes exactly the
    # weighted unit normal (0, w, 0)
    rep = cyclic_boost_rep(1.3)
    mc = WeightedMulticurve([((1,), 0.45)])
    p = hyperboloid_normalize(np.array([0.1, -0.4, 1.2]))
    q = hyperboloid_normalize(np.array([0.1, 0.4, 1.2]))
    v = transverse_vector(rep, mc, p, q, 1)
    assert np.max(np.abs(v - np.array([0.0, 0.45, 0.0]))) < 1e-12


def test_transverse_vector_additive_along_segment(octagon):
    mc = WeightedMulticurve([("a1", 1.0)])
    p = default_basepoint(octagon, mc, 3)
    from lorentz21.minkowski import adjoint_to_so21

    q = adjoint_to_so21(octagon.generators[0]) @ p
    mid = hyperboloid_normalize(0.5 * (p + q))
    v_direct = transverse_vector(octagon, mc, p, q, 3)
    v_split = transverse_vector(octagon, mc, p, mid, 3) + transverse_vector(
        octagon, mc, mid, q, 3)
    assert np.max(np.abs(v_direct - v_split)) < 1e-9


def test_default_basepoint_off_leaves(octagon):
    mc = WeightedMulticurve([("a1", 1.0)])
    p = default_basepoint(octagon, mc, 3)
    assert np.all(np.abs(inner(multicurve_lifts(octagon, mc, 3).normals, p)) > 1e-6)


def scalar_lifts(rep, word, radius):
    """The reference leaf set: a GeodesicH2 per ball element, dropping
    collapsed leaves and repeated key(7)s, with the first ball index."""
    base = GeodesicH2(*map(RP1Point.normalized, closed_geodesic_of(rep, word)))
    ball = GroupBall(rep, radius)
    seen, out = set(), []
    for i, m in enumerate(ball.elements):
        e1, e2 = base.end1.apply(m), base.end2.apply(m)
        if e1.dist(e2) < 1e-6:
            continue
        g = GeodesicH2(e1, e2)
        if g.key(7) not in seen:
            seen.add(g.key(7))
            out.append((g, i))
    return out


@pytest.mark.parametrize("word", ["a1", "b1", "a2 b2"])
def test_leaf_record_matches_scalar_reference(octagon, word):
    ref = scalar_lifts(octagon, word, 5)
    offsets = GroupBall(octagon, 5).offsets
    for radius in (3, 5):
        rows = [(g, i) for g, i in ref if i < offsets[radius + 1]]
        lifts = leaf_lifts(octagon, word, radius)
        assert len(lifts) == len(rows)
        assert lifts.first.tolist() == [i for _, i in rows]
        # bit for bit, not to a tolerance
        assert np.array_equal(lifts.end1, [g.end1.v for g, _ in rows])
        assert np.array_equal(lifts.end2, [g.end2.v for g, _ in rows])
        assert np.array_equal(lifts.normals, [g.normal for g, _ in rows])
        assert lifts.thetas.tolist() == [[g.end1.theta, g.end2.theta] for g, _ in rows]
        assert [tuple(k) for k in lifts.keys.tolist()] == [g.key(7) for g, _ in rows]
    g = geodesic(lifts, 7)
    assert np.array_equal(g.normal, lifts.normals[7]) and np.array_equal(g.end1.v, lifts.end1[7])


def pairwise_first_crossing(leaves):
    """The scalar reference for disjointness_check: the first pair that
    is one geodesic of two classes, or two crossing leaves."""
    geos = [geodesic(leaves, i) for i in range(len(leaves))]
    for i in range(len(geos)):
        for j in range(i + 1, len(geos)):
            if same_geodesic(geos[i], geos[j], 1e-7):
                if leaves.classes[i] != leaves.classes[j]:
                    return i, j
                continue
            if endpoints_linked(geos[i], geos[j]):
                return i, j
    return None


@pytest.mark.parametrize("curves, disjoint", [
    (["a1"], True), (["a1", "a2"], True), (["a1", "b1"], False),
    # A1 is the inverse class: every leaf is shared between the two classes
    (["a1", "A1"], False)])
def test_disjointness_matches_pairwise_loop(octagon, curves, disjoint):
    mc = WeightedMulticurve([(c, 1.0) for c in curves])
    leaves = multicurve_lifts(octagon, mc, 3)
    pair = first_crossing_pair(leaves.thetas, leaves.classes)
    assert pair == pairwise_first_crossing(leaves)
    assert disjointness_check(octagon, mc, 3) == disjoint == (pair is None)


def test_one_enumeration_per_query(octagon, monkeypatch):
    """The cocycle, the developed surface and the equivariant earthquake
    each read their crossings from one stable_lifts call, however many
    targets they have, and each row equals the single-target query."""
    from lorentz21 import laminations
    from lorentz21.flatspace import cocycle_from_lamination, develop_surface
    from lorentz21.minkowski import adjoint_to_so21
    from lorentz21.quakes import EquivariantEarthquakeMap

    calls = []
    enumerate_lifts = laminations.stable_lifts

    def counted(*args):
        calls.append(args[2])
        return enumerate_lifts(*args)

    mc = WeightedMulticurve([("a1", 0.7), ("a2", 0.4)])
    b = default_basepoint(octagon, mc, 3)
    targets = adjoint_to_so21(octagon.generators) @ b
    rows = [transverse_vector(octagon, mc, b, t, 3) for t in targets]
    monkeypatch.setattr(laminations, "stable_lifts", counted)
    assert np.array_equal(transverse_vector(octagon, mc, b, targets, 3), rows)
    assert np.array_equal(cocycle_from_lamination(octagon, mc, b, 3).gen_vectors, rows)
    develop_surface(octagon, mc, density=20, basepoint=b)
    quake = EquivariantEarthquakeMap(octagon, mc, "left", 0.5)
    quake.region_isometry(np.vstack([targets, targets[::-1]]))
    assert len(calls) == 4
