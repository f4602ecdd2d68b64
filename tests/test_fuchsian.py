import math

import numpy as np
import pytest

from lorentz21 import fuchsian
from lorentz21.fuchsian import (
    GroupBall,
    Representation,
    axis,
    euler_class,
    format_word,
    letter_step,
    milnor_wood_ok,
    parse_word,
    reduce_word,
    regular_polygon_rep,
    signed_letters,
    surface_relator,
)
from lorentz21.laminations import WeightedMulticurve
from lorentz21.minkowski import Mat2, RP1Point
from lorentz21.quakes import rep_after_earthquake
from reference import ball_words, concat, group_ball, trivial_rep


@pytest.fixture(scope="module")
def octagon():
    return regular_polygon_rep(2)


def invert_word(w):
    return tuple(-x for x in reversed(w))


def test_word_reduction():
    assert reduce_word((1, -1, 2)) == (2,)
    assert reduce_word((1, 2, -2, -1)) == ()
    assert invert_word((1, 2)) == (-2, -1)
    assert concat((1, 2), (-2, 3)) == (1, 3)
    with pytest.raises(ValueError):
        reduce_word((0,))


def test_parse_and_format():
    assert parse_word("a1 b1 A1") == (1, 2, -1)
    assert parse_word("g3 G2") == (3, -2)
    assert format_word((1, 2, -1, -2)) == "a1 b1 A1 B1"
    assert parse_word(format_word((3, -4))) == (3, -4)
    with pytest.raises(ValueError):
        parse_word("c1")
    with pytest.raises(ValueError):
        parse_word("a3", genus=2)


def test_surface_relator():
    assert surface_relator(1) == (1, 2, -1, -2)
    assert surface_relator(2) == (1, 2, -1, -2, 3, 4, -3, -4)


def test_trivial_rep():
    rep = trivial_rep(2)
    assert rep.is_valid()
    assert euler_class(rep) == 0
    assert milnor_wood_ok(rep)


def test_polygon_rep_valid(octagon):
    assert octagon.relator_defect() < 1e-12
    for g in octagon.generators:
        assert Mat2.normalized(g).is_hyperbolic()
    with pytest.raises(ValueError):
        regular_polygon_rep(1)


def test_polygon_rep_genus3():
    rep = regular_polygon_rep(3)
    assert rep.relator_defect() < 1e-11
    assert euler_class(rep) == -4


def test_rep_json_roundtrip(octagon):
    rep = Representation.from_json(octagon.to_json())
    assert all(Mat2.normalized(a).dist(Mat2.normalized(b)) < 1e-15
               for a, b in zip(rep.generators, octagon.generators))


def test_letter_steps(octagon):
    """One stack holds every letter: a generator, then its Mat2 inverse."""
    steps = octagon.steps()
    assert steps.shape == (8, 2, 2)
    assert np.array_equal(steps[::2], octagon.generators)
    for x in signed_letters(2):
        g = Mat2.normalized(octagon.generators[abs(x) - 1])
        assert np.array_equal(steps[letter_step(x)], (g if x > 0 else g.inverse()).m)
        assert np.array_equal(octagon.evaluate((x,)), Mat2(steps[letter_step(x)]).m)


@pytest.mark.parametrize("word", [(0,), (1, 0), (5,), (-5, 1), (9,)])
def test_evaluate_refuses_bad_letters(octagon, word):
    # the letter 0 once read as the last generator, and 5 as an IndexError
    with pytest.raises(ValueError, match="is not a generator index for genus 2"):
        octagon.evaluate(word)


def test_unnormalizable_generator_is_refused():
    # the determinant of 1e200 I overflows; Mat2 once made it the zero matrix
    big = 1e200 * np.eye(2)
    for make in (lambda: Mat2(big), lambda: Representation(1, [big, np.eye(2)])):
        with pytest.raises(ValueError, match="finite positive determinant"):
            make()


def test_group_ball_counts(octagon):
    assert len(GroupBall(octagon, 0)) == 1
    assert len(GroupBall(octagon, 1)) == 9
    ball = GroupBall(octagon, 2)
    # free reduced count 1 + 8 + 8*7 = 65; no relations at radius 2
    assert len(ball) == 65


def growth_series(genus, radius):
    """Cumulative ball sizes from the Floyd-Plotnick / Cannon rational
    growth function of the genus-g surface group (Invent. Math. 88,
    1987): (1 + 2z + ... + 2z^{2g-1} + z^{2g}) /
    (1 - (4g-2)(z + ... + z^{2g-1}) + z^{2g})."""
    n = 2 * genus
    num = [1] + [2] * (n - 1) + [1]
    den = [1] + [-(4 * genus - 2)] * (n - 1) + [1]
    spheres = []
    for k in range(radius + 1):
        s = num[k] if k <= n else 0
        s -= sum(den[j] * spheres[k - j] for j in range(1, min(k, n) + 1))
        spheres.append(s)
    return list(np.cumsum(spheres))


def test_group_ball_growth_series():
    assert growth_series(2, 5) == [1, 9, 65, 457, 3193, 22289]
    assert growth_series(3, 4) == [1, 13, 145, 1597, 17569]
    for genus, radius in ((2, 5), (3, 4)):
        ball = GroupBall(regular_polygon_rep(genus), radius)
        assert ball.offsets[1:] == growth_series(genus, radius)


@pytest.fixture(scope="module")
def sheared_b1(octagon):
    """The octagon sheared along b1 by w, for w = 3, 4, 6, 8: valid
    surfaces whose radius-6 balls hold more elements than the growth
    series allows (155,579 and 155,612 for w = 3, 4), or whose level
    products lose their determinants (w = 6, 8)."""
    return {w: rep_after_earthquake(octagon, WeightedMulticurve([("b1", 1.0)]), w)
            for w in (3, 4, 6, 8)}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: float keys decide group identity, and the "
                   "w = 3 radius-6 ball holds 155,579 elements, not 155,577")
def test_sheared_group_ball_matches_growth_series(sheared_b1):
    assert len(GroupBall(sheared_b1[3], 6)) == growth_series(2, 6)[-1]


@pytest.mark.parametrize("w, radius", [(0, r) for r in range(7)] + [(3, 6), (4, 6)])
def test_group_ball_matches_reference(octagon, sheared_b1, w, radius):
    """One stable sort per level gives the arrays of np.unique and
    np.isin per level and one final argsort, bit for bit."""
    ball = GroupBall(sheared_b1[w] if w else octagon, radius)
    elements, parent, letter, offsets, sorted_keys, key_order = group_ball(
        sheared_b1[w] if w else octagon, radius)
    for got, want in ((ball.elements, elements), (ball.parent, parent),
                      (ball.letter, letter), (ball._sorted_keys, sorted_keys),
                      (ball._key_order, key_order)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert ball.offsets == offsets
    assert np.array_equal(ball.find(ball.elements), np.arange(len(ball)))


@pytest.mark.parametrize("w, radius", [(6, 6), (8, 5)])
def test_group_ball_names_a_lost_determinant(sheared_b1, w, radius):
    # entries reach only 2e7-4e7, but the recomputed determinant cancels to <= 0
    message = "a product of the generators lost its determinant to rounding"
    with pytest.raises(ValueError, match=message):
        GroupBall(sheared_b1[w], radius)
    with pytest.raises(ValueError, match=message):
        group_ball(sheared_b1[w], radius)
    GroupBall(sheared_b1[w], radius - 1)


def test_blocked_evaluate_matches_one_product_per_level(octagon, monkeypatch):
    # the radius-5 level holds 19,096 rows, more than one block
    ball = GroupBall(octagon, 5)
    assert max(np.diff(ball.offsets)) > fuchsian.EVALUATE_BLOCK
    blocked = ball.evaluate(octagon)
    monkeypatch.setattr(fuchsian, "EVALUATE_BLOCK", len(ball))
    assert blocked.tobytes() == ball.evaluate(octagon).tobytes()


def test_group_ball_names_an_overflow():
    big = Representation(2, [np.diag([1e100, 1e-100])] + [np.eye(2)] * 3)
    assert len(GroupBall(big, 3)) == 7
    with pytest.raises(ValueError, match="a product of the generators overflows"):
        GroupBall(big, 4)


def test_group_ball_prefix_closed(octagon):
    big = GroupBall(octagon, 5)
    big_words = ball_words(big)
    for r in range(5):
        small = GroupBall(octagon, r)
        n = big.offsets[r + 1]
        assert len(small) == n
        assert ball_words(small) == big_words[:n]
        assert np.array_equal(small.elements, big.elements[:n])


def test_group_ball_find_and_evaluate(octagon):
    ball = GroupBall(octagon, 3)
    assert np.array_equal(ball.find(ball.elements), np.arange(len(ball)))
    assert np.array_equal(ball.find(-ball.elements), np.arange(len(ball)))
    mats, words = ball.evaluate(octagon), ball_words(ball)
    for i in (1, 7, 100, len(ball) - 1):
        assert Mat2(mats[i]).dist(Mat2.normalized(octagon.evaluate(words[i]))) < 1e-9


def test_group_ball_lookup(octagon):
    ball = GroupBall(octagon, 3)
    m = octagon.evaluate((1, 2, -1))
    hit = int(ball.find(m[None])[0])
    assert hit >= 0
    assert Mat2(ball.elements[hit]).dist(Mat2.normalized(m)) < 1e-10
    # relator representative is canonicalized to the empty word
    hit = int(ball.find(Mat2.identity().m[None])[0])
    assert ball_words(ball)[hit] == ()


def test_axis_fixed_points(octagon):
    m = octagon.generators[0]
    att, repp, length = axis(m)
    att, repp = RP1Point.normalized(att), RP1Point.normalized(repp)
    assert att.apply(m).dist(att) < 1e-9
    assert repp.apply(m).dist(repp) < 1e-9
    assert abs(length - 2.0 * math.acosh(abs(m.trace()) / 2.0)) < 1e-12
    with pytest.raises(ValueError):
        axis(Mat2.identity().m)


def test_axis_attracting_side():
    m = Mat2(np.diag([2.0, 0.5]))
    att, repp = map(RP1Point.normalized, axis(m.m)[:2])
    # x-axis eigenvector attracts, y-axis repels
    assert att.dist(RP1Point([1.0, 0.0])) < 1e-12
    assert repp.dist(RP1Point([0.0, 1.0])) < 1e-12


def test_euler_class_polygon(octagon):
    assert euler_class(octagon) == -2
    assert milnor_wood_ok(octagon)


def test_euler_class_conjugation_invariant(octagon):
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rng.normal(size=(2, 2))
        if np.linalg.det(c) < 0.1:
            continue
        assert euler_class(octagon.conjugate(c)) == -2


def test_euler_class_sign_under_reflection():
    """Conjugating by the reflection diag(1, -1) reverses the circle's
    orientation, so the polygon classes 2 - 2g change sign."""
    d = np.diag([1.0, -1.0])
    for genus, e in ((2, 2), (3, 4)):
        rep = regular_polygon_rep(genus)
        assert euler_class(Representation(genus, [d @ g @ d for g in rep.generators])) == e


def test_euler_class_relator_near_identity():
    """A conjugate of the genus-3 polygon whose evaluated relator is
    about 9e-8 from the identity, so that the relator's matrix is not
    exactly central: the class is still -4."""
    a, b, c = -2.8110853458289635, 2.236974326113814, -2.7510696048324688
    boost = np.array([[math.cosh(a / 2), math.sinh(a / 2)], [math.sinh(a / 2), math.cosh(a / 2)]])
    turn = np.array([[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]])
    rep = regular_polygon_rep(3).conjugate(boost @ turn @ np.array([[1.0, c], [0.0, 1.0]]))
    assert 1e-8 < rep.relator_defect() < 1e-6
    assert euler_class(rep) == -4


def test_euler_class_index2_cover(octagon):
    """Pulling back along an index-2 cover doubles the Euler class.

    The even-exponent-in-a subgroup of the genus-2 group is a genus-3
    group on (a^2, b, c, d, a c a^-1, a d a^-1); Euler classes are
    multiplicative under covers, an oracle independent of lift tracking.
    """
    a, b, c, d = octagon.generators
    ainv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
    cover = Representation(3, [a @ a, b, c, d, a @ c @ ainv, a @ d @ ainv])
    assert cover.is_valid(1e-8)
    assert euler_class(cover) == 2 * euler_class(octagon) == -4


def test_euler_class_nondiscrete_abelian():
    # commuting hyperbolics satisfy the relator; the action has a global
    # fixed pair so its Euler class vanishes
    m = Mat2(np.diag([2.0, 0.5]))
    rep = Representation(2, [m.m, m.m, m.inverse().m, m.m])
    assert rep.is_valid()
    assert euler_class(rep) == 0
    assert milnor_wood_ok(rep)
