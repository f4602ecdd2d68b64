import math

import numpy as np
import pytest

from lorentz21.fuchsian import (
    GroupBall,
    Mat2,
    Representation,
    axis,
    concat,
    euler_class,
    format_word,
    invert_word,
    letter_step,
    milnor_wood_ok,
    parse_word,
    reduce_word,
    regular_polygon_rep,
    signed_letters,
    surface_relator,
)
from lorentz21.minkowski import RP1Point


@pytest.fixture(scope="module")
def octagon():
    return regular_polygon_rep(2)


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
    rep = Representation.trivial(2)
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
        assert np.array_equal(octagon.evaluate((x,)).m, Mat2(steps[letter_step(x)]).m)


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


def test_group_ball_prefix_closed(octagon):
    big = GroupBall(octagon, 5)
    big_words = big.words()
    for r in range(5):
        small = GroupBall(octagon, r)
        n = big.offsets[r + 1]
        assert len(small) == n
        assert small.words() == big_words[:n]
        assert np.array_equal(small.elements, big.elements[:n])


def test_group_ball_find_and_evaluate(octagon):
    ball = GroupBall(octagon, 3)
    assert np.array_equal(ball.find(ball.elements), np.arange(len(ball)))
    assert np.array_equal(ball.find(-ball.elements), np.arange(len(ball)))
    mats = ball.evaluate(octagon)
    for i in (1, 7, 100, len(ball) - 1):
        assert Mat2(mats[i]).dist(octagon.evaluate(ball.word(i))) < 1e-9


def test_group_ball_lookup(octagon):
    ball = GroupBall(octagon, 3)
    m = octagon.evaluate((1, 2, -1))
    hit = ball.lookup(m)
    assert hit is not None
    assert hit[1].dist(m) < 1e-10
    # relator representative is canonicalized to the empty word
    hit = ball.lookup(Mat2.identity())
    assert hit[0] == ()


def test_axis_fixed_points(octagon):
    m = octagon.generators[0]
    att, repp, length = axis(m)
    assert att.apply(m).dist(att) < 1e-9
    assert repp.apply(m).dist(repp) < 1e-9
    assert abs(length - 2.0 * math.acosh(abs(m.trace()) / 2.0)) < 1e-12
    with pytest.raises(ValueError):
        axis(Mat2.identity())


def test_axis_attracting_side():
    m = Mat2(np.diag([2.0, 0.5]))
    att, repp, _ = axis(m)
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
        assert euler_class(octagon.conjugate(Mat2(c))) == -2


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
    rep = regular_polygon_rep(3).conjugate(Mat2(boost @ turn @ np.array([[1.0, c], [0.0, 1.0]])))
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
    rep = Representation(2, [m, m, m.inverse(), m])
    assert rep.is_valid()
    assert euler_class(rep) == 0
    assert milnor_wood_ok(rep)
