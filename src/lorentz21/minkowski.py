"""Linear algebra of R^{2+1} and the hyperboloid model of H^2.

Coordinates are ordered (x, y, t) and the bilinear form is
<u, v> = u.x v.x + u.y v.y - u.t v.t, i.e. the Gram matrix
G = diag(1, 1, -1).

The identification PSL(2,R) ~ SO(2,1)_0 is realized concretely by the
adjoint action of SL(2,R) on traceless 2x2 matrices, written in the
fixed basis

    E1 = [[1, 0], [0, -1]]   (spacelike, x-axis)
    E2 = [[0, 1], [1,  0]]   (spacelike, y-axis)
    E3 = [[0, 1], [-1, 0]]   (timelike,  t-axis)

for which minus the determinant is exactly the quadratic form above.
The normalization of this basis is a free choice; it is fixed here once
and used consistently by every other module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

EPS = 1e-9

G = np.diag([1.0, 1.0, -1.0])

# Basis of traceless 2x2 matrices matching (x, y, t), see module docstring.
SL2_BASIS = np.array([
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, 1.0], [-1.0, 0.0]],
])


def finite(values, what):
    """values as a float array (a scalar stays 0-d); NaN or an infinite
    entry is invalid input, reported by name."""
    out = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("%s must be finite" % what)
    return out


def inner(u, v):
    """Minkowski inner product <u,v> = ux vx + uy vy - ut vt."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


class CausalClass(enum.Enum):
    TIMELIKE = "timelike"
    NULL = "null"
    SPACELIKE = "spacelike"
    ZERO = "zero"


def classify(v, eps=EPS):
    """Causal trichotomy of v by the sign of <v,v> relative to eps*|v|^2."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = np.asarray(v, dtype=float)
    sup = np.max(np.abs(v))
    if sup < eps:
        return CausalClass.ZERO
    q = inner(v, v)
    scale = float(np.dot(v, v))  # Euclidean |v|^2
    if q > eps * scale:
        return CausalClass.SPACELIKE
    if q < -eps * scale:
        return CausalClass.TIMELIKE
    return CausalClass.NULL


class Mat2:
    """Unimodular 2x2 real matrix, canonicalized up to sign.

    Representatives are unique: the first entry (row-major scan) larger
    than tolerance in absolute value is made positive, so values are
    hashable stand-ins for elements of PSL(2,R).
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("Mat2 expects a 2x2 matrix")
        if unnormalizable(m):
            raise ValueError("matrix must have a finite positive determinant")
        # tolerate scaled input: renormalize to determinant one
        self.m = mat2_stack(m[None])[0]

    @classmethod
    def normalized(cls, m):
        """The Mat2 of a matrix already in this normal form, bit for bit."""
        out = cls.__new__(cls)
        out.m = m
        return out

    @classmethod
    def identity(cls):
        return cls(np.eye(2))

    def inverse(self):
        return Mat2(adjugate(self.m))

    def __matmul__(self, other):
        return Mat2(self.m @ other.m)

    def trace(self):
        return float(self.m[0, 0] + self.m[1, 1])

    def is_hyperbolic(self, eps=EPS):
        return abs(self.trace()) > 2.0 + eps

    def dist(self, other):
        return float(np.max(np.abs(self.m - other.m)))

    def is_identity(self, tol=1e-8):
        return float(np.max(np.abs(self.m - np.eye(2)))) < tol

    def __repr__(self):
        a, b, c, d = self.m.ravel()
        return "Mat2([[%.6g, %.6g], [%.6g, %.6g]])" % (a, b, c, d)


def adjugate(m):
    """Adjugate [[d, -b], [-c, a]] of a 2x2 matrix, or of each matrix in
    a stack: the exact inverse of a determinant-one matrix."""
    m = np.asarray(m, dtype=float)
    entries = [m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]]
    return np.stack(entries, axis=-1).reshape(m.shape)


def canonical_signs(mats, tol=1e-12):
    """Mat2's sign rule on a (N, 2, 2) stack: see the class docstring."""
    flat = mats.reshape(-1, 4)
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > tol, axis=1)]
    return mats * np.where(lead < 0, -1.0, 1.0)[:, None, None]


def _det(mats):
    return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]


def unnormalizable(mats):
    """Whether the determinant of a 2x2 matrix, or of each matrix in a
    stack, is not finite and positive, so Mat2's normalization is
    undefined or overflows; the one determinant rule of the package."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = _det(mats)
    return ~(np.isfinite(det) & (det > 0))


def mat2_stack(mats):
    """Mat2's normalization on a (N, 2, 2) stack, bit for bit."""
    return canonical_signs(mats / np.sqrt(_det(mats))[:, None, None])


def mat2_fold(factors, mask=None):
    """(Q, 2, 2) stack of the products, in order, of the (N, 2, 2)
    factors that each row of the (Q, N) mask selects (all of them, Q = 1,
    without a mask), Mat2-normalized after each factor as Mat2 products
    are; a product past Mat2's range is invalid."""
    if mask is None:
        mask = np.ones((1, len(factors)), dtype=bool)
    g = np.tile(np.eye(2), (len(mask), 1, 1))
    for k in np.flatnonzero(mask.any(axis=0)):
        rows = mask[:, k]
        with np.errstate(over="ignore", invalid="ignore"):
            prods = g[rows] @ factors[k]
        if unnormalizable(prods).any():
            raise ValueError("a product of the matrices overflows")
        g[rows] = mat2_stack(prods)
    return g


def adjoint_to_so21(m):
    """Adjoint action of a Mat2, or of each matrix of a (..., 2, 2) stack
    in Mat2's normal form (not renormalized), on sl(2,R), as 3x3
    matrices in SO(2,1)_0.

    Columns are the images of the fixed basis E1, E2, E3; well defined on
    PSL since the adjoint kills the sign.
    """
    a = m.m if isinstance(m, Mat2) else np.asarray(m, dtype=float)
    X = a[..., None, :, :] @ SL2_BASIS @ adjugate(a)[..., None, :, :]
    # coordinates of each image X = x E1 + y E2 + t E3
    x = 0.5 * (X[..., 0, 0] - X[..., 1, 1])
    y = 0.5 * (X[..., 0, 1] + X[..., 1, 0])
    t = 0.5 * (X[..., 0, 1] - X[..., 1, 0])
    # one (x, y, t) row per basis element, transposed: the column-major
    # layout keeps the bits of products with it
    return np.stack([x, y, t], axis=-1).swapaxes(-1, -2)


def is_lorentz_linear(A, eps=EPS):
    """Check A^T G A = G, det A = 1, and orthochronous A[t][t] >= 1."""
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A.T @ G @ A - G)) > eps * max(1.0, np.max(np.abs(A)) ** 2):
        return False
    if abs(np.linalg.det(A) - 1.0) > 1e-6:
        return False
    return A[2, 2] >= 1.0 - eps


@dataclass(frozen=True)
class LorentzIsometry:
    """Affine map x -> A x + b with A in SO(2,1)_0."""

    linear: np.ndarray
    translation: np.ndarray

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    def __call__(self, p):
        return self.linear @ np.asarray(p, dtype=float) + self.translation

    def compose(self, other):
        return LorentzIsometry(
            self.linear @ other.linear,
            self.linear @ other.translation + self.translation,
        )

    def inverse(self):
        Ainv = G @ self.linear.T @ G
        return LorentzIsometry(Ainv, -(Ainv @ self.translation))

    def dist(self, other):
        return max(
            float(np.max(np.abs(self.linear - other.linear))),
            float(np.max(np.abs(self.translation - other.translation))),
        )


def hyperboloid_normalize(v):
    """Project v onto the upper hyperboloid <v,v> = -1, t > 0."""
    v = np.asarray(v, dtype=float)
    q = inner(v, v)
    if q >= 0 or v[2] <= 0:
        raise ValueError("point must be future timelike")
    return v / math.sqrt(-q)


def apex():
    return np.array([0.0, 0.0, 1.0])


def h2_distance(p, q):
    """Hyperbolic distance arccosh(-<p,q>) between hyperboloid points."""
    c = -inner(p, q)
    if c < 1.0 - 1e-6:
        raise ValueError("inputs are not points of the hyperboloid")
    return math.acosh(max(c, 1.0))


def boost_y_axis(lam):
    """Boost T(lam) fixing the spacelike y-axis, translating the geodesic
    {y = 0} of H^2 by lam.  This is the standard boost every cyclic and
    torus construction in the package is anchored to: it preserves the
    region {t^2 > x^2, t > 0} and commutes with translations (0, e, 0).
    """
    c, s = math.cosh(lam), math.sinh(lam)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rotation_t_axis(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class RP1Point:
    """Point of RP^1, stored as a unit 2-vector `v` with angle in [0, pi),
    in rp1_stack's normal form.

    The circle parameter `theta` = angle / pi in [0, 1) is monotone with
    respect to the cyclic order of the corresponding null directions.
    """

    __slots__ = ("v", "theta")

    def __init__(self, v):
        units, thetas = rp1_stack(np.reshape(v, (1, 2)))
        self.v, self.theta = units[0], float(thetas[0])

    @classmethod
    def normalized(cls, v):
        """The point of a vector already normalized as above, bit for bit."""
        out = cls.__new__(cls)
        out.v, out.theta = v, float(rp1_thetas(v[None])[0])
        return out

    @classmethod
    def from_theta(cls, theta):
        a = (theta % 1.0) * math.pi
        return cls(np.array([math.cos(a), math.sin(a)]))

    def apply(self, m):
        mat = m.m if isinstance(m, Mat2) else np.asarray(m, dtype=float)
        return RP1Point(mat @ self.v)

    def null_vector(self):
        """Future null direction of this ideal point under the fixed
        sl(2) <-> R^{2+1} identification, normalized to t = 1."""
        return null_vectors(self.v)

    def dist(self, other):
        d = abs(self.theta - other.theta)
        return min(d, 1.0 - d)

    def __repr__(self):
        return "RP1Point(theta=%.6f)" % self.theta


def rp1_units(vs):
    """RP1Point's normal form of each row v of a (N, 2) stack: v over
    math.hypot(v) (numpy's norm differs in the last bit), with the sign
    that puts its angle in [0, pi)."""
    norms = np.array([math.hypot(x, y) for x, y in vs.tolist()]).reshape(-1, 1)
    if np.any(norms == 0.0):
        raise ValueError("zero vector is not projective")
    vs = vs / norms
    vs[(vs[:, 1] < 0) | ((vs[:, 1] == 0) & (vs[:, 0] < 0))] *= -1.0
    return vs


def rp1_thetas(units):
    """The circle parameter angle / pi in [0, 1) of each normal-form row,
    by math.atan2 (numpy's arctan2 differs in the last bit)."""
    a = np.array([math.atan2(y, x) for x, y in units.tolist()])
    return (np.where(a < 0, a + math.pi, a) / math.pi) % 1.0


def rp1_stack(vs):
    """RP1Point(v).v and RP1Point(v).theta of each row v of a (N, 2) stack."""
    units = rp1_units(np.asarray(vs, dtype=float))
    return units, rp1_thetas(units)


def rp1_from_thetas(thetas):
    """RP1Point.from_theta(t).v of each entry of a sequence of circle
    parameters, as a (N, 2) stack: the same math.cos and math.sin per
    entry, then rp1_units."""
    angles = [(t % 1.0) * math.pi for t in thetas]
    return rp1_units(np.array([[math.cos(a), math.sin(a)] for a in angles]).reshape(-1, 2))


def null_vectors(vs):
    """RP1Point.null_vector of a unit 2-vector, or of each in a stack."""
    x, y = vs[..., 0], vs[..., 1]
    n = np.stack([-2.0 * x * y, x * x - y * y, x * x + y * y], axis=-1)
    return n / n[..., 2:]


def geodesic_normal(end1, end2, toward=None):
    """Unit spacelike normal of the plane through the origin spanned by
    two distinct ideal points (null directions), or of each pair in two
    (N, 3) stacks of null vectors.

    If `toward` is given, the sign is fixed so <n, toward> > 0, i.e. the
    normal points into the side containing `toward`.
    """
    u = end1.null_vector() if isinstance(end1, RP1Point) else np.asarray(end1, float)
    v = end2.null_vector() if isinstance(end2, RP1Point) else np.asarray(end2, float)
    n = np.cross(u, v) @ G
    # the direct <n,n> cancels catastrophically for nearby endpoints;
    # the Lagrange identity form stays accurate down to tiny gaps.
    # float_power squares by C pow, as Python's ** does, where x * x
    # can differ in the last bit
    q = np.float_power(inner(u, v), 2) - inner(u, u) * inner(v, v)
    scale = np.sum(u * u, axis=-1) * np.sum(v * v, axis=-1)
    if np.any(q <= 1e-25 * scale):
        raise ValueError("ideal endpoints coincide")
    n = n / np.sqrt(q)[..., None]
    if toward is not None:
        s = inner(n, np.asarray(toward, dtype=float))
        n = np.where((s < 0)[..., None], -n, n)
    return n
