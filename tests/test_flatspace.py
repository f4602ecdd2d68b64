import math

import numpy as np
import pytest

from lorentz21.flatspace import (
    StandardTorusSpacetime,
    TranslationCocycle,
    _nudge_off,
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
from lorentz21.fuchsian import GroupBall, regular_polygon_rep
from lorentz21.laminations import WeightedMulticurve, stable_lifts
from lorentz21.minkowski import (CausalClass, adjoint_to_so21, classify,
                                 hyperboloid_normalize, inner, null_vectors)
from reference import (apex, ball_words, cocycle_identity_sweep_rows, cocycle_residual, concat,
                       nudge_off)


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


def all_pair_residual(rep, coc, ball):
    words = ball_words(ball)
    worst = 0.0
    for alpha in words:
        for beta in words:
            worst = max(worst, cocycle_residual(rep, coc, alpha, beta, ball))
    return worst


def test_zero_cocycle(octagon, ball2):
    coc = zero_cocycle(octagon)
    assert all_pair_residual(octagon, coc, ball2) == 0.0
    assert relator_residual(octagon, coc) == 0.0


def test_coboundary_cocycle(octagon, ball2):
    coc = coboundary_cocycle(octagon, np.array([0.3, -1.1, 0.2]))
    assert all_pair_residual(octagon, coc, ball2) < 1e-10
    assert relator_residual(octagon, coc) < 1e-10


def test_lamination_cocycle_descends(octagon, lam_cocycle, ball2):
    assert all_pair_residual(octagon, lam_cocycle, ball2) < 1e-8
    assert relator_residual(octagon, lam_cocycle) < 1e-8


def test_identity_sweep_matches_pair_loop(octagon, lam_cocycle):
    from lorentz21.flatspace import cocycle_identity_sweep

    for radius in (1, 2):
        ball = GroupBall(octagon, radius)
        assert abs(cocycle_identity_sweep(octagon, lam_cocycle, ball)
                   - all_pair_residual(octagon, lam_cocycle, ball)) < 1e-12


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
    # the free concatenations are folded after cancellation, as reduced
    # words; folding alpha and beta whole would read 4.41e-09 here
    assert abs(cocycle_identity_sweep(octagon, coc, ball) / 4.7540424930048e-09 - 1) < 1e-6


def test_identity_sweep_carries_nan(octagon, monkeypatch):
    """A NaN cocycle decides the sweep before any pair is resolved, at
    radius 3, where sweeping its NaN pairs in extended precision takes
    seconds."""
    from lorentz21.cli import _check
    from lorentz21.flatspace import cocycle_identity_sweep

    ball = GroupBall(octagon, 3)
    finds = []
    find = GroupBall.find

    def counted(self, alphas, betas):
        finds.append(len(alphas))
        return find(self, alphas, betas)

    monkeypatch.setattr(GroupBall, "find", counted)
    vecs = [np.array([math.nan, 0.0, 0.0])] + [np.zeros(3)] * 3
    worst = cocycle_identity_sweep(octagon, TranslationCocycle(octagon, vecs), ball)
    assert math.isnan(worst)
    assert finds == []
    assert not _check("cocycle-identity", worst, 1e-8)["ok"]


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_blocked_sweep_matches_row_sweep(octagon, lam_cocycle, radius, monkeypatch):
    """Bit for bit, whatever the block: the lamination cocycle, a
    perturbed one, and (below radius 3, where NaN arithmetic in extended
    precision takes seconds) one carrying a NaN; at radius 3 in the
    default blocks only, which take two rows of 457 pairs each."""
    from lorentz21 import flatspace

    ball = GroupBall(octagon, radius)
    vecs = [np.array(v, dtype=float) for v in lam_cocycle.to_json()["t"]]
    vecs[0] = vecs[0] + np.array([0.05, 0.0, 0.0])
    cocycles = [lam_cocycle, TranslationCocycle(octagon, vecs)]
    if radius < 3:
        cocycles.append(TranslationCocycle(octagon, [np.array([math.nan, 0.0, 0.0])]
                                           + [np.zeros(3)] * 3))
    for coc in cocycles:
        want = cocycle_identity_sweep_rows(octagon, coc, ball)
        for block in (1, 100, 1024, len(ball) ** 2) if radius < 3 else (1024,):
            monkeypatch.setattr(flatspace, "SWEEP_BLOCK", block)
            got = flatspace.cocycle_identity_sweep(octagon, coc, ball)
            assert got == want or math.isnan(got) and math.isnan(want)


def test_perturbed_cocycle_fails(octagon, lam_cocycle, ball2):
    vecs = [np.array(v, dtype=float) for v in lam_cocycle.to_json()["t"]]
    vecs[0] = vecs[0] + np.array([0.05, 0.0, 0.0])
    bad = TranslationCocycle(octagon, vecs)
    # ball-2 pairs concatenate freely (the shortest relation has length
    # 8), so the identity is only violated once a relation appears: the
    # two relator halves multiply to the canonical empty word
    assert relator_residual(octagon, bad) > 1e-4
    ball0 = GroupBall(octagon, 0)
    res = cocycle_residual(octagon, bad, (1, 2, -1, -2), (3, 4, -3, -4), ball0)
    assert res > 1e-4


def test_cocycle_linearity_in_weight(octagon):
    mcs = [WeightedMulticurve([("a1", w)]) for w in (0.25, 1.0)]
    c1 = cocycle_from_lamination(octagon, mcs[0], L=3)
    c2 = cocycle_from_lamination(octagon, mcs[1], L=3)
    for v1, v2 in zip(c1.gen_vectors, c2.gen_vectors):
        assert np.max(np.abs(np.asarray(v1, float) * 4.0 - np.asarray(v2, float))) < 1e-9


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
