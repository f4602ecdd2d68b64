import math

import numpy as np
import pytest

from lorentz21.minkowski import (
    EPS,
    G,
    CausalClass,
    LorentzIsometry,
    Mat2,
    RP1Point,
    adjoint_to_so21,
    boost_y_axis,
    circle_distance,
    classify,
    geodesic_normal,
    hyperboloid_normalize,
    inner,
    mat2_fold,
    per_value,
    rp1_from_thetas,
    rp1_stack,
    unnormalizable,
)
from reference import apex


def is_lorentz_linear(A, eps=EPS):
    """Check A^T G A = G, det A = 1, and orthochronous A[t][t] >= 1."""
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A.T @ G @ A - G)) > eps * max(1.0, np.max(np.abs(A)) ** 2):
        return False
    if abs(np.linalg.det(A) - 1.0) > 1e-6:
        return False
    return A[2, 2] >= 1.0 - eps


def h2_distance(p, q):
    """Hyperbolic distance arccosh(-<p,q>) between hyperboloid points."""
    c = -inner(p, q)
    if c < 1.0 - 1e-6:
        raise ValueError("inputs are not points of the hyperboloid")
    return math.acosh(max(c, 1.0))


def rotation_t_axis(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rand_mat2(rng):
    while True:
        m = rng.normal(size=(2, 2))
        if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] > 0.1:
            return Mat2(m)


def test_inner_signature():
    assert inner([1, 0, 0], [1, 0, 0]) == 1.0
    assert inner([0, 1, 0], [0, 1, 0]) == 1.0
    assert inner([0, 0, 1], [0, 0, 1]) == -1.0
    assert inner([1, 2, 3], [0, 0, 0]) == 0.0


def test_classify_trichotomy():
    assert classify([1.0, 0.0, 0.0]) == CausalClass.SPACELIKE
    assert classify([0.0, 0.0, 1.0]) == CausalClass.TIMELIKE
    assert classify([1.0, 0.0, 1.0]) == CausalClass.NULL
    assert classify([0.0, 0.0, 0.0]) == CausalClass.ZERO


def test_mat2_canonicalization():
    m = Mat2([[-1.0, 0.0], [0.0, -1.0]])
    assert m.is_identity()
    # scaled input is renormalized to determinant one
    m = Mat2([[2.0, 0.0], [0.0, 2.0]])
    assert m.is_identity()
    with pytest.raises(ValueError):
        Mat2([[1.0, 0.0], [0.0, -1.0]])


def test_mat2_inverse_and_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rand_mat2(rng)
        assert (m @ m.inverse()).is_identity(1e-12)


def test_adjoint_is_lorentz_and_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m1, m2 = rand_mat2(rng), rand_mat2(rng)
        A1, A2 = adjoint_to_so21(m1.m), adjoint_to_so21(m2.m)
        assert is_lorentz_linear(A1)
        A12 = adjoint_to_so21((m1 @ m2).m)
        assert np.max(np.abs(A12 - A1 @ A2)) < 1e-9


def test_adjoint_kills_sign():
    m = np.array([[2.0, 0.3], [0.1, 0.515]])
    m /= math.sqrt(np.linalg.det(m))
    assert np.max(np.abs(adjoint_to_so21(Mat2(m).m) - adjoint_to_so21(Mat2(-m).m))) == 0.0


def test_boost_y_axis_matches_mat2_preimage():
    lam = 0.83
    c, s = math.cosh(lam / 2), math.sinh(lam / 2)
    A = adjoint_to_so21(Mat2([[c, -s], [-s, c]]).m)
    assert np.max(np.abs(A - boost_y_axis(lam))) < 1e-12
    # fixes the spacelike y-axis
    assert np.max(np.abs(boost_y_axis(lam) @ [0, 1, 0] - np.array([0, 1, 0]))) == 0.0


def test_rotation_t_axis():
    R = rotation_t_axis(0.4)
    assert is_lorentz_linear(R)
    assert np.max(np.abs(R @ [0, 0, 1] - np.array([0, 0, 1]))) == 0.0


def test_lorentz_isometry_group_ops():
    f = LorentzIsometry(boost_y_axis(0.5), np.array([0.1, -0.2, 0.3]))
    g = LorentzIsometry(rotation_t_axis(1.1), np.array([1.0, 0.0, 0.0]))
    p = np.array([0.3, 0.4, 2.0])
    assert np.max(np.abs(f.compose(g)(p) - f(g(p)))) < 1e-12
    assert f.compose(f.inverse()).dist(LorentzIsometry.identity()) < 1e-12


def test_hyperboloid_normalize_and_distance():
    p = hyperboloid_normalize(np.array([0.3, -0.2, 2.0]))
    assert abs(inner(p, p) + 1.0) < 1e-12
    assert h2_distance(apex(), apex()) == 0.0
    q = boost_y_axis(0.7) @ apex()
    assert abs(h2_distance(apex(), q) - 0.7) < 1e-12
    with pytest.raises(ValueError):
        hyperboloid_normalize(np.array([1.0, 0.0, 0.5]))


# ±0.0, NaN, tiny, huge and halfway-looking values, and a random spread
_VALUES = [0.0, -0.0, math.nan, 1e-300, -2.5e-8, 0.12345675, -0.5000000000005,
           1.0, 3.0, -7.25, 123.456789012345, 1e300]


@pytest.mark.parametrize("fn, domain", [
    (math.hypot, "any"), (math.atan2, "any"), (math.cos, "any"), (math.sin, "any"),
    (math.exp, "exp"), (math.acosh, "acosh"), (math.sinh, "exp"), (math.cosh, "exp"),
    (lambda t: round(t, 7), "any"), (lambda t: round(t, 12), "any")],
    ids=["hypot", "atan2", "cos", "sin", "exp", "acosh", "sinh", "cosh", "round7", "round12"])
def test_per_value_matches_scalar_calls(fn, domain):
    rng = np.random.default_rng(3)
    values = np.array(_VALUES + (rng.normal(size=20) * 50.0).tolist())
    if domain == "exp":
        values = values[~(np.abs(values) > 700.0)]
    elif domain == "acosh":
        values = np.concatenate([[1.0, math.nan], 1.0 + np.abs(values[~np.isnan(values)])])
    arity = 2 if fn in (math.hypot, math.atan2) else 1
    args = [values, np.roll(values, 5)][:arity]
    for shape in ((len(values),), (len(values) // 2, 2), (0,), (0, 2)):
        arrays = [a[:math.prod(shape)].reshape(shape) for a in args]
        want = np.empty(shape)
        for idx in np.ndindex(*shape):
            want[idx] = fn(*(float(a[idx]) for a in arrays))
        got = per_value(fn, *arrays)
        assert got.shape == shape and got.dtype == float
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_per_value_maps_across_chunks():
    # more values than one 2^14 chunk, and a chunk boundary inside a row
    values = np.random.default_rng(4).normal(size=(20001, 2))
    want = np.array([math.hypot(x, y) for x, y in values.tolist()])
    assert np.array_equal(per_value(math.hypot, values[:, 0], values[:, 1]), want)
    got = per_value(math.exp, values)
    assert got.shape == values.shape
    assert np.array_equal(got.ravel(), [math.exp(v) for v in values.ravel().tolist()])


def test_rp1_theta_roundtrip():
    for theta in [0.0, 0.1, 0.25, 0.5, 0.9, 0.999]:
        assert abs(RP1Point.from_theta(theta).theta - theta) < 1e-12


def test_circle_distance():
    """The circle metric on parameters mod 1: across 0, symmetric, and
    broadcast, bit for bit the inline min(|a - b|, 1 - |a - b|)."""
    assert circle_distance(0.02, 0.98) == pytest.approx(0.04, abs=1e-15)
    rng = np.random.default_rng(3)
    a, b = rng.random((2, 1000))
    assert circle_distance(a, b).tobytes() == circle_distance(b, a).tobytes()
    for x, y in ((a, b), (rng.random((7, 2, 1)), rng.random(2))):
        d = np.abs(x - y)
        want = np.minimum(d, 1.0 - d)
        got = circle_distance(x, y)
        assert got.shape == want.shape == np.broadcast_shapes(x.shape, y.shape)
        assert got.tobytes() == want.tobytes()


def test_rp1_stacks_match_scalar_points():
    rng = np.random.default_rng(11)
    vs = rng.normal(size=(50, 2))
    vs[:3] = [[-1.0, 0.0], [2.0, -0.0], [0.0, -3.0]]
    units, thetas = rp1_stack(vs)
    for v, u, t in zip(vs, units, thetas):
        p = RP1Point(v)
        assert np.array_equal(u, p.v) and t == p.theta
    ts = rng.random(20).tolist() + [0.0, 0.5, 1.25, -0.3]
    for t, u in zip(ts, rp1_from_thetas(ts)):
        assert np.array_equal(u, RP1Point.from_theta(t).v)


def test_rp1_null_vector():
    for theta in [0.05, 0.3, 0.62]:
        n = RP1Point.from_theta(theta).null_vector()
        assert abs(inner(n, n)) < 1e-12
        assert n[2] == 1.0
    # theta 0.5 is the ideal point of the upper-half-plane origin
    n = RP1Point.from_theta(0.5).null_vector()
    assert np.max(np.abs(n - np.array([0.0, -1.0, 1.0]))) < 1e-12


def test_rp1_apply_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rand_mat2(rng)
        x = RP1Point.from_theta(rng.random())
        n1 = x.apply(m.m).null_vector()
        n2 = adjoint_to_so21(m.m) @ x.null_vector()
        assert np.max(np.abs(n1 - n2 / n2[2])) < 1e-9


def test_geodesic_normal_unit_and_orthogonal():
    e1, e2 = RP1Point.from_theta(0.13), RP1Point.from_theta(0.58)
    n = geodesic_normal(e1.null_vector(), e2.null_vector())
    assert abs(inner(n, n) - 1.0) < 1e-12
    assert abs(inner(n, e1.null_vector())) < 1e-12
    assert abs(inner(n, e2.null_vector())) < 1e-12


def test_geodesic_normal_nearby_endpoints_stable():
    # closed form: for boundary angles phi = 2 pi theta the unit normal
    # is (cos phi1 - cos phi2, sin phi1 - sin phi2, -sin(phi2 - phi1))
    # divided by (1 - cos(phi2 - phi1)); the Lagrange-identity
    # normalization should match it even for tiny endpoint gaps
    for gap in (0.2, 1e-4, 1e-6):
        t1, t2 = 0.4, 0.4 + gap
        e1, e2 = RP1Point.from_theta(t1), RP1Point.from_theta(t2)
        p1, p2 = 2 * math.pi * t1, 2 * math.pi * t2
        exact = np.array([math.cos(p1) - math.cos(p2),
                          math.sin(p1) - math.sin(p2),
                          -math.sin(p2 - p1)]) / (1.0 - math.cos(p2 - p1))
        n = geodesic_normal(e1.null_vector(), e2.null_vector())
        err = min(np.max(np.abs(n - exact)), np.max(np.abs(n + exact)))
        # entries grow like 1/gap, so compare relatively
        assert err / np.max(np.abs(exact)) < 1e-4
    with pytest.raises(ValueError):
        geodesic_normal(e1.null_vector(), e1.null_vector())


def test_mat2_fold_names_the_cause_of_a_refusal():
    # determinant-one factors: diag(1e200, 1e-200) squared overflows; two
    # unipotents of size 1e9 give [[1 + 1e18, 1e9], [1e9, 1]], whose
    # recomputed determinant cancels to 0 though nothing overflows
    big = np.diag([1e200, 1e-200])
    with pytest.raises(ValueError, match="a product of the matrices overflows"):
        mat2_fold(np.array([big, big]))
    shears = np.array([[[1.0, 1e9], [0.0, 1.0]], [[1.0, 0.0], [1e9, 1.0]]])
    with pytest.raises(ValueError, match="a product of the matrices lost its determinant"):
        mat2_fold(shears)
    assert mat2_fold(shears[:1]).tolist() == [shears[0].tolist()]


def test_unnormalizable_names_the_cause():
    # an infinite or NaN determinant overflows, a non-positive one lost
    # its determinant, for one matrix and for a stack; overflow wins
    ok, lost = np.eye(2), np.array([[1.0 + 1e18, 1e9], [1e9, 1.0]])
    for big in (np.diag([1e200, 1e200]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
                np.array([[np.nan, 0.0], [0.0, 1.0]])):
        assert unnormalizable(big) == "overflows"
        assert unnormalizable(np.array([lost, big, ok])) == "overflows"
    for bad in (lost, np.diag([1.0, -1.0]), np.zeros((2, 2))):
        assert unnormalizable(bad) == "lost its determinant to rounding"
        assert unnormalizable(np.array([ok, bad])) == "lost its determinant to rounding"
    assert unnormalizable(ok) is None
    assert unnormalizable(np.array([ok, 3.0 * ok])) is None
    assert unnormalizable(np.zeros((0, 2, 2))) is None
