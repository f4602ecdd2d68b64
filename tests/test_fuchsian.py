import math

import numpy as np
import pytest

from lorentz21 import fuchsian
from lorentz21.fuchsian import (
    HARD_CAP,
    EnumerationCapError,
    GroupBall,
    Representation,
    axis,
    euler_class,
    format_word,
    growth_series,
    letter_step,
    milnor_wood_ok,
    parse_word,
    reduce_word,
    regular_polygon_rep,
    signed_letters,
    surface_relator,
)
from lorentz21.laminations import WeightedMulticurve
from lorentz21.minkowski import Mat2, RP1Point, mat2_stack, row_keys
from lorentz21.quakes import rep_after_earthquake
from reference import ball_letters, ball_words, concat, dehn_reduce, group_ball, trivial_rep


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
    steps = octagon.steps
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


def test_group_ball_refuses_a_radius_above_the_cap(octagon, monkeypatch):
    # refused before its words are enumerated, so nothing is built
    built = []
    monkeypatch.setattr(fuchsian, "_word_ball", lambda *args: built.append(args))
    with pytest.raises(EnumerationCapError, match="ball radius %d is above the cap %d"
                       % (HARD_CAP + 1, HARD_CAP)):
        GroupBall(octagon, HARD_CAP + 1)
    assert built == []


def test_group_ball_growth_series():
    assert growth_series(2, 5) == [1, 9, 65, 457, 3193, 22289]
    assert growth_series(3, 4) == [1, 13, 145, 1597, 17569]
    assert growth_series(2, 7)[-1] == 1085905
    assert growth_series(3, 5)[-1] == 193261
    # genus 1 is Z^2 in a and b: 4r words of length r
    assert growth_series(1, 4) == [1, 5, 13, 25, 41]
    for genus, radius in ((2, 5), (3, 4)):
        ball = GroupBall(regular_polygon_rep(genus), radius)
        assert ball.offsets[1:] == growth_series(genus, radius)


@pytest.mark.parametrize("genus, radius", [(1, 8), (2, 7), (3, 5)])
def test_word_ball_matches_growth_series(genus, radius):
    """The truncated completion's irreducible words number the growth
    series at every length: one word per group element."""
    offsets = fuchsian._word_ball(genus, radius)[2]
    assert offsets[1:] == growth_series(genus, radius)
    assert offsets[-1] == {1: 145, 2: 1085905, 3: 193261}[genus]


def test_word_ball_words_are_the_irreducible_ones():
    """Every freely reduced word of length <= 4 that no rule's left side
    divides, and no other, is a ball word, in shortlex order."""
    rules = fuchsian._rewriting(2, 4)[0]
    letters = signed_letters(2).tolist()
    words, level = [()], [()]
    for _ in range(4):
        level = [w + (x,) for w in level for x in letters if not w or w[-1] != -x]
        words += [w for w in level
                  if not any(lhs in "".join(chr(letter_step(x)) for x in w) for lhs in rules)]
    ball = GroupBall(regular_polygon_rep(2), 4)
    assert ball_words(ball) == sorted(words, key=lambda w: (len(w), [letter_step(x) for x in w]))


def test_word_ball_refuses_an_incomplete_rule_set(monkeypatch):
    # without one relator rule, level 4 holds words of two equal elements
    rules = dict(fuchsian._completion(2, 4))
    del rules[max(rules, key=len)]
    monkeypatch.setattr(fuchsian, "_completion", lambda genus, longest: rules)
    with pytest.raises(RuntimeError, match="leave 2737 words of length 4, not the "
                                           "growth series' 2736"):
        fuchsian._rewriting.__wrapped__(2, 4)


@pytest.fixture(scope="module")
def sheared(octagon):
    """The octagon sheared along a1, b1, a2 or b2 by w: the benchmark's
    range w in (0.3, 0.65, 1.0), and along b1 by w = 3, 4, 6, 8: valid
    surfaces where rounded matrix entries merged distinct elements (the
    float-key ball held 155,579 and 155,612 elements at radius 6 for
    w = 3, 4), or whose level products lose their determinants (w = 6,
    8)."""
    pairs = [(c, w) for c in ("a1", "b1", "a2", "b2") for w in (0.3, 0.65, 1.0)]
    pairs += [("b1", w) for w in (3, 4, 6, 8)]
    return {(c, w): rep_after_earthquake(octagon, WeightedMulticurve([(c, 1.0)]), w)
            for c, w in pairs}


def test_sheared_group_ball_matches_growth_series(sheared):
    for w in (3, 4):
        assert len(GroupBall(sheared["b1", w], 6)) == growth_series(2, 6)[-1]


def _words(parent, letter):
    words = [()]
    for p, x in zip(parent[1:].tolist(), letter[1:].tolist()):
        words.append(words[p] + (x,))
    return words


def _assert_matches_reference(rep, radius):
    """GroupBall against the float-key ball: bit for bit where the keys
    told the elements apart.  Where they split an element in two, the
    float-key ball holds every normal form, in order and with the same
    matrices, and each of its other words is, by Dehn's algorithm, the
    element of the normal form whose matrix is nearest its own."""
    ball = GroupBall(rep, radius)
    elements, parent, letter, offsets = group_ball(rep, radius)
    if offsets == ball.offsets:
        for got, want in ((ball.elements, elements), (ball.parent, parent),
                          (ball_letters(ball), letter)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return
    words, ref = ball_words(ball), _words(parent, letter)
    position = {w: i for i, w in enumerate(ref)}
    keep = [position[w] for w in words]
    assert keep == sorted(keep)
    assert elements[keep].tobytes() == ball.elements.tobytes()
    extra = sorted(set(range(len(ref))) - set(keep))
    for i in extra:
        k = np.argmin(np.abs(ball.elements - elements[i]).max(axis=(1, 2)))
        assert dehn_reduce(ref[i] + invert_word(words[k]), 2) == ()
    return len(extra)


@pytest.mark.parametrize("w, radius", [(0, r) for r in range(7)] + [(3, 6), (4, 6)])
def test_group_ball_matches_reference(octagon, sheared, w, radius):
    """On the octagon (w = 0) the words' parents, letters and offsets
    and the matrices along them equal the float-key ball's bit for bit;
    on the b1 shears by 3 and 4 at radius 6 that ball holds 2 and 35
    words of elements it had already."""
    extra = _assert_matches_reference(sheared["b1", w] if w else octagon, radius)
    assert extra == {0: None, 3: 2, 4: 35}[w]


@pytest.mark.parametrize("curve", ["a1", "b1", "a2", "b2"])
@pytest.mark.parametrize("w", [0.3, 0.65, 1.0])
def test_sheared_group_ball_matches_reference(sheared, curve, w):
    _assert_matches_reference(sheared[curve, w], 6)


@pytest.mark.parametrize("collide", [np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])],
                         ids=["constant", "one-bit"])
@pytest.mark.parametrize("w, radius", [(0, r) for r in range(5)] + [(3, r) for r in range(5)])
def test_group_ball_hash_never_decides_identity(octagon, sheared, collide, w, radius):
    """Every generator sent to the identity, or to a quarter turn: each
    element's matrix is one and the same, or one of two by the parity of
    its length.  The ball keeps the words of the octagon's or the w = 3
    shear's ball, and its lookups name the product of each pair by
    Dehn's algorithm and by the faithful matrices: no matrix decides
    which words are one element."""
    rep = sheared["b1", w] if w else octagon
    ball = GroupBall(rep, radius)
    flat = GroupBall(Representation(2, np.tile(collide, (4, 1, 1))), radius)
    assert flat.offsets == ball.offsets == fuchsian._word_ball(2, radius)[2]
    for got, want in ((flat.parent, ball.parent), (flat.step, ball.step)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    parity = np.repeat(np.arange(radius + 1) % 2, np.diff(ball.offsets))
    assert np.array_equal(flat.elements, mat2_stack(np.stack([np.eye(2), collide]))[parity])
    rng = np.random.default_rng(radius)
    a, b = rng.integers(len(ball), size=300), rng.integers(len(ball), size=300)
    found = flat.find(a, b)
    assert np.array_equal(found, ball.find(a, b))
    assert (found >= 0).any()
    words = ball_words(flat)
    for i, j, k in zip(a.tolist(), b.tolist(), found.tolist()):
        if k >= 0:
            assert dehn_reduce(words[i] + words[j] + invert_word(words[k]), 2) == ()
            prod = Mat2(ball.elements[i] @ ball.elements[j])
            assert Mat2(ball.elements[k]).dist(prod) < 1e-6 * max(1.0, np.abs(prod.m).max())


@pytest.mark.parametrize("w, radius", [(6, 6), (8, 5)])
def test_group_ball_names_a_lost_determinant(sheared, w, radius):
    # entries reach only 2e7-4e7, but the recomputed determinant cancels to <= 0
    message = "a product of the generators lost its determinant to rounding"
    with pytest.raises(ValueError, match=message):
        GroupBall(sheared["b1", w], radius)
    with pytest.raises(ValueError, match=message):
        group_ball(sheared["b1", w], radius)
    GroupBall(sheared["b1", w], radius - 1)


def test_blocked_evaluate_matches_one_product_per_level(octagon, monkeypatch):
    # the radius-5 level holds 19,096 rows, more than one block
    ball = GroupBall(octagon, 5)
    assert max(np.diff(ball.offsets)) > fuchsian.EVALUATE_BLOCK
    blocked = ball.evaluate(octagon)
    monkeypatch.setattr(fuchsian, "EVALUATE_BLOCK", len(ball))
    assert blocked.tobytes() == ball.evaluate(octagon).tobytes()


@pytest.mark.parametrize("block", [8, fuchsian.EVALUATE_BLOCK])
def test_group_ball_names_an_overflow_before_a_lost_determinant(monkeypatch, block):
    # at radius 2, a1 b1 = [[1 + 1e18, 1e9], [1e9, 1]] loses its
    # determinant in the first block and b2 b2 overflows in a later one
    # (8 words per block): a single pass over the level names the overflow
    unipotents = [np.array([[1.0, 1e9], [0.0, 1.0]]), np.array([[1.0, 0.0], [1e9, 1.0]])]
    rep = Representation(2, unipotents + [np.diag([2.0, 0.5]), np.diag([1e200, 1e-200])])
    monkeypatch.setattr(fuchsian, "EVALUATE_BLOCK", block)
    assert len(GroupBall(rep, 1)) == 9
    for build in (GroupBall, group_ball):
        with pytest.raises(ValueError, match="a product of the generators overflows"):
            build(rep, 2)


def test_group_ball_names_an_overflow():
    # one word per group element, whatever the representation sends it
    # to: the identity images of b1, a2 and b2 do not shrink the ball
    big = Representation(2, [np.diag([1e100, 1e-100])] + [np.eye(2)] * 3)
    assert len(GroupBall(big, 3)) == growth_series(2, 3)[-1]
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
    every = np.arange(len(ball))
    assert np.array_equal(ball.find(every, np.zeros_like(every)), every)
    assert np.array_equal(ball.find(np.zeros_like(every), every), every)
    mats, words = ball.evaluate(octagon), ball_words(ball)
    for i in (1, 7, 100, len(ball) - 1):
        assert Mat2(mats[i]).dist(Mat2.normalized(octagon.evaluate(words[i]))) < 1e-9


def test_group_ball_lookup(octagon):
    ball = GroupBall(octagon, 4)
    words = ball_words(ball)

    def product(u, v):
        return words[ball.find([words.index(u)], [words.index(v)])[0]]

    assert product((1, 2), (-1,)) == (1, 2, -1)
    # a2 b2 A2 B2 is (a1 b1 A1 B1)^-1 = b1 a1 B1 A1 by the relator, the
    # shortlex-smaller word of length 4, and a1 b1 A1 B1 a2 b2 A2 is b2
    assert product((3, 4, -3), (-4,)) == (2, 1, -2, -1)
    assert product((1, 2, -1, -2), (3, 4, -3)) == (4,)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_group_ball_find_matches_the_matrices(octagon, radius):
    """The product of every pair of elements is the ball element whose
    matrix is the product's, entries rounded to 6 digits, or -1 when no
    element's is: the float-key lookup the words replaced, exact on the
    octagon's small balls."""
    ball = GroupBall(octagon, radius)
    n = len(ball)
    found = ball.find(np.arange(n).repeat(n), np.tile(np.arange(n), n))
    prods = mat2_stack((ball.elements[:, None] @ ball.elements).reshape(-1, 2, 2))
    keys = row_keys(ball.elements.reshape(-1, 4), 6)
    order = np.argsort(keys)
    wanted = row_keys(prods.reshape(-1, 4), 6)
    near = order[np.minimum(np.searchsorted(keys[order], wanted), n - 1)]
    assert np.array_equal(found, np.where(keys[near] == wanted, near, -1))
    assert (found >= 0).sum() == {0: 1, 1: 25, 2: 697, 3: 11329}[radius]


def test_group_ball_find_agrees_with_dehn(octagon):
    """Dehn's algorithm (Lyndon-Schupp V.4) on random pairs of a radius-4
    and a radius-2 word: a found product's word times the inverse of the
    pair's is the identity, and two distinct ball words are distinct
    elements."""
    ball = GroupBall(octagon, 4)
    words = ball_words(ball)
    rng = np.random.default_rng(5)
    a, b = rng.integers(len(ball), size=1000), rng.integers(ball.offsets[3], size=1000)
    found = ball.find(a, b)
    assert (found >= 0).sum() > 100
    for i, j, k in zip(a.tolist(), b.tolist(), found.tolist()):
        if k >= 0:
            assert dehn_reduce(words[i] + words[j] + invert_word(words[k]), 2) == ()
        if i != j:
            assert dehn_reduce(words[i] + invert_word(words[j]), 2) != ()
    assert dehn_reduce(surface_relator(2), 2) == ()


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


def test_euler_class_refuses_exactly_the_invalid_relator(octagon):
    """euler_class refuses a representation exactly when is_valid(1e-6)
    fails: Mat2's sign rule keeps the evaluated relator's first entry
    non-negative, so its distance from +-I is its distance from I."""
    refusals = []
    for k in range(4, 10):
        generators = octagon.generators.copy()
        generators[0, 0, 1] += 10.0 ** -k
        rep = Representation(2, generators)
        try:
            euler_class(rep)
            refusals.append(False)
        except ValueError as e:
            assert str(e) == "relator is not central; representation invalid"
            refusals.append(True)
        assert refusals[-1] == (not rep.is_valid(1e-6))
    assert set(refusals) == {False, True}


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
