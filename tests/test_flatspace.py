import math

import numpy as np
import pytest

from lorentz21.flatspace import (
    StandardTorusSpacetime,
    TranslationCocycle,
    _nudge_off,
    _transport_to,
    cocycle_from_lamination,
    cyclic_boost_cocycle,
    cyclic_boost_rep,
    cyclic_initial_singularity,
    develop_surface,
    graph_slope_check,
    injectivity_gap,
    relator_residual,
    support_planes,
)
from lorentz21.fuchsian import GroupBall, parse_word, regular_polygon_rep
from lorentz21.laminations import WeightedMulticurve, default_basepoint, stable_lifts
from lorentz21.minkowski import (G, CausalClass, adjoint_to_so21, classify,
                                 hyperboloid_normalize, inner, null_vectors)
from lorentz21.quakes import rep_after_earthquake
from reference import (apex, ball_words, cocycle_identity_sweep_rows, cocycle_residual, concat,
                       margulis, nudge_off, tree_length)


@pytest.fixture(scope="module")
def octagon():
    return regular_polygon_rep(2)


@pytest.fixture(scope="module")
def curve():
    return WeightedMulticurve([("a1", 1.0)])


@pytest.fixture(scope="module")
def lam_cocycle(octagon, curve):
    return cocycle_from_lamination(octagon, curve, L=3)


@pytest.fixture(scope="module")
def ball2(octagon):
    return GroupBall(octagon, 2)


def zero_cocycle(rep):
    return TranslationCocycle(rep, [np.zeros(3)] * (2 * rep.genus))


def coboundary_cocycle(rep, v):
    """t_g = v - f(g) v, exact on the group by telescoping."""
    v = np.asarray(v, dtype=float)
    return TranslationCocycle(rep, v - adjoint_to_so21(rep.generators) @ v)


def all_pair_residual(rep, coc, ball, lookup=None):
    """Max cocycle_residual over the ball's word pairs, each product
    looked up by its matrix in `lookup` (the ball itself by default)."""
    lookup = ball if lookup is None else lookup
    words = ball_words(ball)
    worst = 0.0
    for alpha in words:
        for beta in words:
            worst = max(worst, cocycle_residual(rep, coc, alpha, beta, lookup))
    return worst


def perturbed(rep, coc):
    """coc with t_{a1} moved by (0.05, 0, 0): it no longer descends."""
    vecs = [np.array(v, dtype=float) for v in coc.to_json()["t"]]
    vecs[0] = vecs[0] + np.array([0.05, 0.0, 0.0])
    return TranslationCocycle(rep, vecs)


def test_zero_cocycle(octagon, ball2):
    coc = zero_cocycle(octagon)
    assert all_pair_residual(octagon, coc, ball2) == 0.0
    assert relator_residual(coc) == 0.0


def test_coboundary_cocycle(octagon, ball2):
    coc = coboundary_cocycle(octagon, np.array([0.3, -1.1, 0.2]))
    assert all_pair_residual(octagon, coc, ball2) < 1e-10
    assert relator_residual(coc) < 1e-10


def test_lamination_cocycle_descends(octagon, lam_cocycle, ball2):
    assert all_pair_residual(octagon, lam_cocycle, ball2) < 1e-8
    assert relator_residual(lam_cocycle) < 1e-8


def test_identity_sweep_matches_pair_loop(octagon, lam_cocycle):
    """Every product of two radius-r words lies in the radius-2r ball, so
    the pair loop looks each one up there, by its matrix: an oracle
    apart from GroupBall.find."""
    from lorentz21.flatspace import cocycle_identity_sweep

    for radius in (1, 2):
        ball, big = GroupBall(octagon, radius), GroupBall(octagon, 2 * radius)
        for coc in (lam_cocycle, perturbed(octagon, lam_cocycle)):
            assert abs(cocycle_identity_sweep(coc, ball)
                       - all_pair_residual(octagon, coc, ball, big)) < 1e-12


def test_ball_evaluate_matches_affine_fold(octagon, lam_cocycle):
    ball = GroupBall(octagon, 3)
    vals = ball.evaluate(lam_cocycle)
    assert vals.dtype == np.longdouble and vals.shape == (len(ball), 4, 4)
    for i, w in enumerate(ball_words(ball)):
        assert np.array_equal(vals[i], lam_cocycle.affine(w))


def test_relation_pairs_match_mpmath_reference(octagon):
    """The pairs whose ball product has a canonical word other than the
    free concatenation are the only ones where the cocycle identity is
    a statement about the group.  cocycle_residual on them agrees with a
    50-digit fold of the same float inputs; their exact residual stays
    below 5e-12, so criterion 2's gated maximum (4.75e-9 at w = 5) is
    longdouble rounding on free concatenations, where the exact residual
    is zero by construction."""
    mp = pytest.importorskip("mpmath")
    from lorentz21.flatspace import cocycle_identity_sweep

    coc = cocycle_from_lamination(octagon, WeightedMulticurve([("a1", 5.0)]), L=3)
    ball = GroupBall(octagon, 3)
    words = ball_words(ball)
    pairs = []
    for i, alpha in enumerate(words):
        hits = ball.find(np.full(len(ball), i), np.arange(len(ball)))
        pairs += [(alpha, words[j], words[k]) for j, k in enumerate(hits)
                  if k >= 0 and words[k] != concat(alpha, words[j])]
    assert len(pairs) == 48

    def fold(w):
        f, t = mp.eye(3), mp.matrix(3, 1)
        for x in w:
            t, f = t + f * steps[x][1], f * steps[x][0]
        return f, t

    worst = 0.0
    with mp.workdps(50):
        steps = {}
        for i, t in enumerate(coc.to_json()["t"]):
            for x in (i + 1, -(i + 1)):
                f = mp.matrix(adjoint_to_so21(octagon.evaluate((x,))).tolist())
                steps[x] = (f, mp.matrix(t) if x > 0 else -(f * mp.matrix(t)))
        for alpha, beta, prod in pairs:
            f_a, t_a = fold(alpha)
            res = fold(prod)[1] - t_a - f_a * fold(beta)[1]
            exact = float(max(abs(v) for v in res))
            assert abs(cocycle_residual(octagon, coc, alpha, beta, ball) - exact) < 1e-14
            worst = max(worst, exact)
    assert worst < 5e-12
    # the sweep reads t of every product from the radius-6 ball, formed
    # left to right along its normal form: for a free reduction the same
    # matmuls as from its reduced words (folding alpha and beta whole
    # would read 4.41e-09 here), and the 1,416 relation pairs outside the
    # radius-3 ball change no bit of the maximum
    assert abs(cocycle_identity_sweep(coc, ball) / 4.7540424930048e-09 - 1) < 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cocycle_refuses_non_finite_vectors(octagon, bad):
    with pytest.raises(ValueError, match="translation vectors must be finite"):
        TranslationCocycle(octagon, [np.zeros(3)] * 2 + [np.array([0.0, bad, 0.0]), np.zeros(3)])


def test_cocycle_finiteness_is_read_in_extended_precision(octagon):
    huge = np.longdouble("1e400")
    if not np.isfinite(huge):
        pytest.skip("long double has the range of a double here")
    coc = TranslationCocycle(octagon, [np.array([huge, 0, 0], dtype=np.longdouble)]
                             + [np.zeros(3)] * 3)
    assert coc.gen_vectors[0, 0] == huge


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_sweep_matches_row_sweep(octagon, lam_cocycle, radius):
    """Bit for bit, on the lamination cocycle and a perturbed one."""
    from lorentz21.flatspace import cocycle_identity_sweep

    ball = GroupBall(octagon, radius)
    for coc in (lam_cocycle, perturbed(octagon, lam_cocycle)):
        assert cocycle_identity_sweep(coc, ball) == cocycle_identity_sweep_rows(coc, ball)


def test_sweep_evaluates_the_cocycle_once(octagon, lam_cocycle, ball2, monkeypatch):
    from lorentz21.flatspace import cocycle_identity_sweep

    calls = []
    products = GroupBall.products

    def counted(self, hol):
        calls.append((hol, self.radius))
        return products(self, hol)

    monkeypatch.setattr(GroupBall, "products", counted)
    cocycle_identity_sweep(lam_cocycle, ball2)
    assert calls == [(lam_cocycle, 4)]


def test_perturbed_cocycle_fails(octagon, lam_cocycle, ball2):
    from lorentz21.flatspace import cocycle_identity_sweep

    bad = perturbed(octagon, lam_cocycle)
    # the two relator halves multiply to the canonical empty word
    assert relator_residual(bad) > 1e-4
    ball0 = GroupBall(octagon, 0)
    res = cocycle_residual(octagon, bad, (1, 2, -1, -2), (3, 4, -3, -4), ball0)
    assert res > 1e-4
    # the radius-2 sweep reads t of its 8 relation pairs' products at
    # their normal forms, as t of the group element; it reads 2.57
    assert cocycle_identity_sweep(bad, ball2) > 1


@pytest.mark.parametrize("radius, pairs, inside", [(2, 8, 0), (3, 1464, 48)])
def test_relation_pairs(octagon, radius, pairs, inside):
    """The word pairs of the radius-r ball whose product's normal form
    is not their free reduction, where the cocycle identity is a
    statement about the group: every product is found in the radius-2r
    ball, and `inside` of these normal forms lie in the radius-r ball
    (at radius 3 the mpmath reference's 48)."""
    ball, big = GroupBall(octagon, radius), GroupBall(octagon, 2 * radius)
    words, big_words = ball_words(ball), ball_words(big)
    n = len(ball)
    alphas, betas = np.arange(n).repeat(n), np.tile(np.arange(n), n)
    hits = big.find(alphas, betas)
    assert (hits >= 0).all()
    rel = [k for a, b, k in zip(alphas.tolist(), betas.tolist(), hits.tolist())
           if big_words[k] != concat(words[a], words[b])]
    assert len(rel) == pairs
    assert sum(k < n for k in rel) == inside


def test_cocycle_linearity_in_weight(octagon):
    mcs = [WeightedMulticurve([("a1", w)]) for w in (0.25, 1.0)]
    c1 = cocycle_from_lamination(octagon, mcs[0], L=3)
    c2 = cocycle_from_lamination(octagon, mcs[1], L=3)
    for v1, v2 in zip(c1.gen_vectors, c2.gen_vectors):
        assert np.max(np.abs(np.asarray(v1, float) * 4.0 - np.asarray(v2, float))) < 1e-9


@pytest.mark.parametrize("curves", [[("a1", 1.0)], [("a1", 0.5), ("a2", 2.0)],
                                    [("a1 b1 A1 B1", 1.0)]], ids=["a1", "a1-a2", "a1b1A1B1"])
def test_margulis_invariant_is_the_earthquake_length_variation(octagon, curves):
    """The lamination cocycle is the infinitesimal earthquake, so the
    Margulis invariant of each word is the first variation of its
    length under the earthquake: the central difference of the lengths
    after the left and the right earthquake at h = 1e-4 (EarthquakeMap
    refuses a negative scale), over the 456 words of the radius-3 ball
    but the identity.  The worst differences were 9.3e-9, 4.4e-8 and
    4.0e-8, as the h^2 error and rounding allow.  The invariant of each
    curve of the lamination is 0, as its earthquake keeps its length."""
    mc = WeightedMulticurve(curves)
    coc = cocycle_from_lamination(octagon, mc, L=3)
    h = 1e-4
    left, right = (rep_after_earthquake(octagon, mc, h, side=side) for side in ("left", "right"))

    def length(rep, w):
        return 2.0 * math.acosh(abs(np.trace(rep.evaluate(w))) / 2.0)

    worst = max(abs(margulis(coc, octagon, w) - (length(left, w) - length(right, w)) / (2 * h))
                for w in ball_words(GroupBall(octagon, 3))[1:])
    assert worst < 1e-7
    for w, _ in mc.curves:
        assert abs(margulis(coc, octagon, w)) < 1e-9


def test_margulis_invariant_of_b1(octagon, lam_cocycle):
    """For the earthquake along a1 (weight 1), b1 crosses a1 once."""
    assert margulis(lam_cocycle, octagon, parse_word("b1")) == pytest.approx(0.261203875,
                                                                             abs=1e-9)


TREE_LENGTHS = {
    "a1": ([("a1", 1.0)], {"a1 b2 A2": 0, "a1": 0, "b1": 1, "a1 b1": 1, "b1 b1 a2": 2,
                           "B1 a2 b1 b2": 2, "b1 a1 b1": 2}),
    "a1-a2": ([("a1", 0.5), ("a2", 2.0)], {"a1 b2 A2": 2, "b1 b2": 2.5, "B1 a2 b1 b2": 3}),
    "a1b1A1B1": ([("a1 b1 A1 B1", 1.0)], {"a1": 0, "b1": 0, "a1 b1": 0, "b1 b2": 2,
                                          "B1 a2 b1 b2": 4}),
}


@pytest.mark.parametrize("curves, lengths", TREE_LENGTHS.values(), ids=list(TREE_LENGTHS))
def test_tree_length_is_the_intersection_number(octagon, curves, lengths):
    """The translation length of a word on the tree dual to the lifted
    lamination is its weighted intersection number with it, an integer
    combination of the weights, 0 for a curve of the lamination (every
    point of its axis lies on a leaf): the same at two points of the
    axis and for every cyclic rotation of the word, a conjugate.  It
    bounds the Margulis invariant, the sum of weight times cosine over
    the same crossings."""
    mc = WeightedMulticurve(curves)
    coc = cocycle_from_lamination(octagon, mc, L=3)
    for word, want in lengths.items():
        w = parse_word(word)
        for turn in range(len(w)):
            for start in (0.0, 0.37):
                got = tree_length(octagon, mc, w[turn:] + w[:turn], start)
                assert abs(got - want) < 1e-12, (word, turn, start, got)
        assert abs(margulis(coc, octagon, w)) <= want + 1e-9


def test_cyclic_boost_cocycle_value():
    for lam_, w in [(1.3, 0.45), (0.7, 2.0)]:
        v = cyclic_boost_cocycle(lam_, w)
        assert np.max(np.abs(v - np.array([0.0, w, 0.0]))) < 1e-12


def test_cyclic_generator_word_cocycle_is_zero():
    # the boost generator path never crosses its own axis
    rep = cyclic_boost_rep(1.3)
    from lorentz21.laminations import transverse_vector
    from lorentz21.minkowski import hyperboloid_normalize

    p = hyperboloid_normalize(np.array([0.1, -0.4, 1.2]))
    q = adjoint_to_so21(rep.generators[0]) @ p
    assert np.max(np.abs(transverse_vector(rep, WeightedMulticurve([((1,), 0.5)]),
                                           p, q, 1))) == 0.0


def test_cyclic_initial_singularity_length():
    for w in (0.5, 2.0):
        seg = cyclic_initial_singularity(1.1, w)
        assert abs(seg.length - w) < 1e-9
    assert cyclic_initial_singularity(1.1, 0.0).length == 0.0
    with pytest.raises(ValueError):
        cyclic_initial_singularity(-1.0, 1.0)


@pytest.fixture(scope="module")
def patch(octagon, curve):
    return develop_surface(octagon, curve, density=120, L=3, seed=0)


def test_develop_surface_graph_slope(patch):
    assert graph_slope_check(patch) < 1.0


def test_develop_surface_injectivity(patch):
    assert injectivity_gap(patch, max_pairs=10000) >= -1e-9


def test_develop_surface_x_spacelike_or_zero(patch):
    for x in patch.xvals:
        assert classify(x) in (CausalClass.SPACELIKE, CausalClass.ZERO)


def test_develop_surface_empty_multicurve(octagon):
    p = develop_surface(octagon, WeightedMulticurve([]), density=30, L=2, seed=1)
    assert np.max(np.abs(p.xvals)) == 0.0
    assert np.max(np.abs(p.fvals - p.points)) == 0.0


def test_transport_off_the_apex_is_a_symmetric_boost(octagon):
    # the nudged basepoint of the octagon's "a1 A2" curve, and a far point
    near = default_basepoint(octagon, WeightedMulticurve([("a1 A2", 1.0)]), 2)
    for b in (near, np.array([3.0, -4.0, math.sqrt(26.0)])):
        assert np.linalg.norm(b[:2]) > 0.01
        A = _transport_to(b)
        assert np.max(np.abs(A.T @ G @ A - G)) < 1e-12
        assert np.max(np.abs(A @ apex() - b)) < 1e-12
        assert np.array_equal(A, A.T)


def test_develop_surface_off_the_apex(octagon):
    mc = WeightedMulticurve([("a1 A2", 1.0)])
    b = default_basepoint(octagon, mc, 2)
    p = develop_surface(octagon, mc, density=50, L=2)
    assert len(p) == 50
    # the samples fill the disc of radius 1.5 about b, not about the apex
    dist = np.arccosh(np.maximum(-inner(p.points, b), 1.0))
    assert np.all(dist < 1.5 + 1e-6)


@pytest.fixture(scope="module")
def near_leaves(octagon, curve):
    """The lifts of a1 within distance 2 of the apex."""
    return stable_lifts(octagon, curve, 3,
                        lambda lv: np.abs(inner(lv.normals, apex())) < math.sinh(2.0))


def test_nudge_matches_per_sample_reference(near_leaves):
    normals = near_leaves.normals
    rng = np.random.default_rng(7)
    r, ang = rng.uniform(0.0, 1.5, 40), rng.uniform(0.0, 2.0 * math.pi, 40)
    off = np.stack([np.sinh(r) * np.cos(ang), np.sinh(r) * np.sin(ang), np.cosh(r)], axis=1)
    # points of the hyperboloid projected onto leaf planes, each the
    # nearest point of its leaf to a sample, mixed in with the samples
    k = rng.integers(0, len(normals), 20)
    on = [hyperboloid_normalize(q - inner(n, q) * n) for q, n in zip(off[:20], normals[k])]
    pts = np.concatenate([off, on])[rng.permutation(60)]
    got, flags = _nudge_off(pts, normals)
    want, want_flags = nudge_off(pts, normals)
    assert flags.dtype == bool and flags.sum() >= 20
    assert flags.tolist() == want_flags
    assert np.array_equal(got, want)
    assert np.all(np.abs(inner(normals, got[flags][:, None])) > 1e-7)


def test_nudge_refuses_a_point_it_cannot_keep_timelike(near_leaves):
    # a short null vector on a leaf plane: the nudge makes it spacelike
    p = 1e-6 * null_vectors(near_leaves.end1[:1])
    with pytest.raises(ValueError, match="future timelike"):
        _nudge_off(p, near_leaves.normals)


def test_support_planes_contain_surface(patch):
    normals, offsets = support_planes(patch)
    assert normals.shape == (64, 3) and offsets.shape == (64,)
    assert np.all(np.abs(inner(normals, normals)) < 1e-12)
    assert np.all(inner(normals[:, None], patch.fvals) >= offsets[:, None] - 1e-9)


def test_support_planes_exclude_past(patch):
    # a deep past point violates some support plane
    far_past = np.array([0.0, 0.0, -50.0])
    normals, offsets = support_planes(patch)
    assert not np.all(inner(normals, far_past) >= offsets)


def test_standard_torus():
    st = StandardTorusSpacetime(1.0, 0.5, 2.0, 3.0)
    # holonomies commute and preserve the region
    ab = st.A.compose(st.B)
    ba = st.B.compose(st.A)
    assert ab.dist(ba) < 1e-12
    p = np.array([0.5, 7.0, 2.0])
    assert StandardTorusSpacetime.contains(p)
    assert StandardTorusSpacetime.contains(st.A(p))
    assert StandardTorusSpacetime.contains(st.B(p))
    assert not StandardTorusSpacetime.contains(np.array([2.0, 0.0, 1.0]))
    assert not StandardTorusSpacetime.contains(np.array([0.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        StandardTorusSpacetime(1.0, 0.5, 2.0, 1.0)


def test_cocycle_requires_generator_count(octagon):
    with pytest.raises(ValueError):
        TranslationCocycle(octagon, [np.zeros(3)] * 3)
