import gc
import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from lorentz21 import fuchsian, laminations
from lorentz21.fuchsian import HARD_CAP, EnumerationCapError, GroupBall, regular_polygon_rep
from lorentz21.laminations import (
    LeafSet,
    WeightedMulticurve,
    _leaf_keys,
    _separated_and_nested,
    closed_geodesic_of,
    crossings,
    default_basepoint,
    disjointness_check,
    first_crossing_pair,
    leaf_lifts,
    multicurve_lifts,
    same_geodesic,
    separating,
    stable_lifts,
    transverse_vector,
)
from lorentz21.flatspace import cyclic_boost_rep
from lorentz21.minkowski import (RP1Point, adjoint_to_so21, hyperboloid_normalize, inner,
                                 rp1_from_thetas)
from reference import (GeodesicH2, ball_radii, endpoints_linked, geodesic,
                       stable_lifts_by_increments)


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
    keys = {tuple(k) for k in _leaf_keys(lifts.thetas).tolist()}
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


def test_leaf_lifts_refuses_a_radius_above_the_cap(octagon, monkeypatch):
    built = []
    monkeypatch.setattr(fuchsian, "_word_ball", lambda *args: built.append(args))
    with pytest.raises(EnumerationCapError, match="ball radius %d is above the cap %d"
                       % (HARD_CAP + 1, HARD_CAP)):
        leaf_lifts(octagon, "a1", HARD_CAP + 1)
    assert built == []


STABLE_CURVES = [[("a1", 1.0)], [("b1", 1.0)], [("a1 A2", 1.0)], [("a1", 0.7), ("a2", 0.4)],
                 [("a1 b1 A1 B1", 1.0)]]


def test_stable_lifts_match_unit_increments(octagon):
    """stable_lifts equals the loop of unit increments from L, row for
    row and bit for bit, on segments from the default basepoint b to
    g b, g every 13th element of the radius-2 and radius-3 spheres; the
    queries stop at every radius from L + 2 to 6."""
    ball = GroupBall(octagon, 3)
    stops = {L: set() for L in (0, 1, 2)}
    for curves in STABLE_CURVES:
        mc = WeightedMulticurve(curves)
        for L in stops:
            b = default_basepoint(octagon, mc, L)
            for g in ball.elements[ball.offsets[2]:ball.offsets[4]:13]:
                target = adjoint_to_so21(g) @ b

                def keep(lv):
                    return separating(lv.normals, b, target[None])[0]

                want, radius = stable_lifts_by_increments(octagon, mc, L, keep)
                got = stable_lifts(octagon, mc, L, keep)
                for f in fields(LeafSet):
                    assert np.array_equal(getattr(got, f.name), getattr(want, f.name))
                stops[L].add(radius)
    assert stops == {L: set(range(L + 2, 7)) for L in stops}


@pytest.mark.parametrize("curves, named", [
    ([("a1", 0.7), ("B1 a1 b1", 0.4)], ("a1", "B1 a1 b1")),
    ([("B1 a1 b1", 0.4), ("a1", 0.7)], ("B1 a1 b1", "a1")),
    ([("a1", 0.7), ("A1", 0.4)], ("a1", "A1")),
    ([("a2", 1.0), ("a1", 0.7), ("B1 B1 a1 b1 b1", 0.4)], ("a1", "B1 B1 a1 b1 b1"))],
    ids=["conjugate", "conjugate-swapped", "inverse", "conjugate-by-b1-squared"])
def test_stable_lifts_refuses_conjugate_classes(octagon, curves, named):
    """Two classes conjugate up to inverse are one set of leaves: the
    axis of one is a lift of the other, and stable_lifts and the unit
    increments both refuse them, naming both, in either order."""
    mc = WeightedMulticurve(curves)
    message = "curves %s and %s have the same leaves" % named
    for run in (stable_lifts, lambda *args: stable_lifts_by_increments(*args)[0]):
        with pytest.raises(ValueError, match=message):
            run(octagon, mc, 1, lambda lv: np.ones(len(lv), dtype=bool))


def test_stable_lifts_keeps_distinct_classes_whose_deep_keys_collide(octagon, monkeypatch):
    """Only an axis row decides conjugacy: a deep lift of a2 given the
    end parameters of a deep lift of a1, an isolated key collision, is
    not refused, and both rows stay, as in the unit increments."""
    lifts, apex = multicurve_lifts, np.array([0.0, 0.0, 1.0])

    def near(lv):
        return np.abs(inner(lv.normals, apex)) < math.sinh(2.5)

    def colliding(rep, mc, radius):
        # the first near deep lift of a2 takes the ends of the first of a1
        leaves = lifts(rep, mc, radius)
        deep = np.flatnonzero((leaves.first > 0) & near(leaves))
        p, q = deep[leaves.classes[deep] == 0][0], deep[leaves.classes[deep] == 1][0]
        thetas = leaves.thetas.copy()
        thetas[q] = thetas[p]
        return replace(leaves, thetas=thetas)

    mc = WeightedMulticurve([("a1", 0.7), ("a2", 0.4)])
    plain = stable_lifts(octagon, mc, 1, near)
    monkeypatch.setattr(laminations, "multicurve_lifts", colliding)
    got = stable_lifts(octagon, mc, 1, near)
    want = stable_lifts_by_increments(octagon, mc, 1, near)[0]
    assert len(got) == len(plain)
    for f in fields(LeafSet):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name))


@pytest.mark.parametrize("word, L, reach, radii", [
    ("a1", 3, 2.0, [5]), ("a1", 0, 3.0, [2, 3]), ("a1 b1 A1 B1", 1, 3.0, [3, 4])])
def test_stable_lifts_collects_each_radius_once(octagon, monkeypatch, word, L, reach, radii):
    """stable_lifts collects each radius once, in increasing order from
    L + 2: the selection at r - 2 is read from the rows' first index,
    not from a second collect."""
    seen, lifts = [], multicurve_lifts

    def recorded(rep, mc, radius):
        seen.append(radius)
        return lifts(rep, mc, radius)

    def near(lv):
        return np.abs(inner(lv.normals, np.array([0.0, 0.0, 1.0]))) < math.sinh(reach)

    monkeypatch.setattr(laminations, "multicurve_lifts", recorded)
    stable_lifts(octagon, WeightedMulticurve([(word, 1.0)]), L, near)
    assert seen == radii


def test_stable_lifts_builds_one_ball():
    """A query from L = 3 that stops at radius 5 builds the radius-5 ball
    alone; unit increments from L build radii 3, 4 and 5."""
    rep = regular_polygon_rep(2)

    def near(lv):
        return np.abs(inner(lv.normals, np.array([0.0, 0.0, 1.0]))) < math.sinh(2.0)

    mc = WeightedMulticurve([("a1", 1.0)])
    with ball_radii() as built:
        leaves = stable_lifts(rep, mc, 3, near)
    assert built == [5]
    want, radius = stable_lifts_by_increments(rep, mc, 3, near)
    assert radius == 5
    assert np.array_equal(_leaf_keys(leaves.thetas), _leaf_keys(want.thetas))


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
        assert [tuple(k) for k in _leaf_keys(lifts.thetas).tolist()] == [g.key(7) for g, _ in rows]
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
    assert np.array_equal(cocycle_from_lamination(octagon, mc, 3).gen_vectors, rows)
    develop_surface(octagon, mc, density=20)
    quake = EquivariantEarthquakeMap(octagon, mc, "left", 0.5)
    quake.region_isometry(np.vstack([targets, targets[::-1]]))
    assert len(calls) == 4


def nested_chords(rng, n):
    """(n, 2) ends of n random nested chords on a grid of spacing 1e-4,
    rotated so that some wrap past 0/1, in random row order and
    orientation: a random balanced bracket sequence, matched."""
    ends = np.sort(rng.choice(10000, 2 * n, replace=False)) * 1e-4
    ends = (ends + rng.random()) % 1.0
    stack, chords, opened = [], [], 0
    for pos in range(2 * n):
        if opened < n and (not stack or rng.random() < 0.5):
            stack.append(pos)
            opened += 1
        else:
            chords.append((stack.pop(), pos))
    chords = ends[np.array(chords)][rng.permutation(n)]
    flip = rng.random(n) < 0.5
    chords[flip] = chords[flip, ::-1]
    return chords


def chord_leaves(thetas, classes=None):
    leaves = LeafSet.from_ends(rp1_from_thetas(thetas[:, 0]), rp1_from_thetas(thetas[:, 1]),
                               np.ones(len(thetas)))
    return leaves if classes is None else replace(leaves, classes=np.asarray(classes))


@pytest.mark.parametrize("gap", [1e-13, 1e-9, 1e-7])
def test_from_ends_refuses_coincident_ends(gap):
    # geodesic_normal alone refuses ends closer than about 1.8e-7
    with pytest.raises(ValueError, match="^ideal endpoints coincide$"):
        chord_leaves(np.array([[0.3, 0.3 + gap]]))


def test_from_ends_accepts_ends_3e_7_apart():
    leaves = chord_leaves(np.array([[0.3, 0.3 + 3e-7]]))
    assert np.all(np.isfinite(leaves.normals))


def inserted(thetas, rng, row):
    """thetas with row inserted at a random position."""
    at = rng.integers(0, len(thetas) + 1)
    return np.insert(thetas, at, row, axis=0)


def chord_cases(seed):
    """(name, leaves) of the cases first_crossing_pair must decide as
    the pairwise loop does."""
    rng = np.random.default_rng(seed)
    base = nested_chords(rng, 30)
    a, b = base[rng.integers(30)]
    lo, span = min(a, b), abs(a - b)
    # a chord from inside the arc (lo, lo + span) to outside it crosses (a, b)
    inside, outside = lo + span * 0.5 + 3e-5, (lo + span + (1 - span) * 0.5 + 3e-5) % 1.0
    yield "nested", chord_leaves(base)
    yield "crossing", chord_leaves(inserted(base, rng, [inside, outside]))
    yield "touching", chord_leaves(inserted(base, rng, [(a + 5e-10) % 1.0, outside]))
    # sharing lo within 1e-9, it interleaves (a, b) alone, and only there
    beyond = (lo + span + 3e-5) % 1.0
    yield "touching-only", chord_leaves(inserted(base, rng, [lo + 5e-10, beyond]))
    # a leaf 5e-8 inside another at both ends: nested, yet one geodesic
    near = np.sort(base[rng.integers(30)]) + [5e-8, -5e-8]
    for classes in ([0] * 31, [0] * 30 + [1]):
        thetas = np.vstack([base, near])
        order = rng.permutation(31)
        yield "same-%d" % classes[-1], chord_leaves(thetas[order], np.array(classes)[order])
    # a chord 1.5e-7 inside (a, b) at both ends: closer than the gap the
    # sweep asks for, yet neither one geodesic nor touching
    yield "squeezed", chord_leaves(inserted(base, rng, [lo + 1.5e-7, lo + span - 1.5e-7]))


@pytest.mark.parametrize("seed", range(12))
def test_first_crossing_pair_matches_pairwise_loop_on_chords(seed):
    for name, leaves in chord_cases(seed):
        pair = first_crossing_pair(leaves.thetas, leaves.classes)
        assert pair == pairwise_first_crossing(leaves), name
        if name == "nested":
            assert pair is None and _separated_and_nested(leaves.thetas, 2e-7)
        if name in ("crossing", "same-1"):
            assert pair is not None, name
        if name in ("touching-only", "same-0", "squeezed"):
            assert pair is None, name
        if name.startswith(("touching", "same")) or name == "squeezed":
            assert not _separated_and_nested(leaves.thetas, 2e-7), name
