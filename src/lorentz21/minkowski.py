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


def per_value(fn, *arrays):
    """A Python scalar function from math applied to each value of
    equal-shape arrays, as an array of their shape: the one place the
    package's values meet Python's math, to which they are pinned bit
    for bit, as numpy's counterparts can differ in the last bit.  Values
    are mapped 2^14 at a time, so no list of them all is ever held."""
    flats = [np.asarray(a, dtype=float).ravel() for a in arrays]
    out, step = np.empty(flats[0].size), 1 << 14
    for lo in range(0, out.size, step):
        out[lo:lo + step] = np.fromiter(map(fn, *(f[lo:lo + step].tolist() for f in flats)), float)
    return out.reshape(np.shape(arrays[0]))


def sorted_unique(values):
    """np.unique of an array of finite values, whose plain form loads numpy.ma."""
    values = np.sort(values, axis=None)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def finite(values, what):
    """values as a float array (a scalar stays 0-d); NaN or an infinite
    entry is invalid input, reported by name."""
    out = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("%s must be finite" % what)
    return out


def json_fields(record, keys, what):
    """The values of keys in a JSON object of an input file, named
    `what` there; a record that is not an object, or that lacks one of
    the keys, is invalid input, reported by name."""
    if not isinstance(record, dict):
        raise ValueError("%s must be a JSON object, not %s" % (what, type(record).__name__))
    missing = [key for key in keys if key not in record]
    if missing:
        raise ValueError("%s lacks the key %r" % (what, missing[0]))
    return [record[key] for key in keys]


def json_array(value, what):
    """value, a list of records in an input file, named `what` there;
    anything but a JSON array is invalid input, reported by name."""
    if not isinstance(value, list):
        raise ValueError("%s must be a JSON array, not %s" % (what, type(value).__name__))
    return value


def json_numbers(value, what, shape=None):
    """value, a JSON number or nested JSON arrays of them in an input
    file, named `what` there, as `finite` returns it; a boolean, string,
    null or object anywhere in it is invalid input, reported by name, as
    are arrays of unequal lengths and, given a (rows, columns) shape,
    arrays of any other shape."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack += item
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError("%s takes only JSON numbers, not %s" % (what, type(item).__name__))
    try:
        out = np.asarray(value, dtype=float)
    except ValueError:  # nested arrays of unequal lengths
        out = None
    if shape is not None and (out is None or out.shape != shape):
        raise ValueError("%s must be a %dx%d matrix of numbers" % ((what,) + shape))
    if out is None:
        raise ValueError("%s must hold arrays of equal lengths" % what)
    return finite(out, what)


def json_number(value, what):
    """The float of json_numbers(value, what); an array is invalid input."""
    if isinstance(value, list):
        raise ValueError("%s must be one JSON number, not list" % what)
    return float(json_numbers(value, what))


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


def classify(v):
    """Causal trichotomy of v by the sign of <v,v> relative to EPS*|v|^2."""
    v = np.asarray(v, dtype=float)
    sup = np.max(np.abs(v))
    if sup < EPS:
        return CausalClass.ZERO
    q = inner(v, v)
    scale = float(np.dot(v, v))  # Euclidean |v|^2
    if q > EPS * scale:
        return CausalClass.SPACELIKE
    if q < -EPS * scale:
        return CausalClass.TIMELIKE
    return CausalClass.NULL


class Mat2:
    """Unimodular 2x2 real matrix, canonicalized up to sign.

    Representatives are unique: the first entry (row-major scan) larger
    than 1e-12 in absolute value is made positive, so values are
    hashable stand-ins for elements of PSL(2,R).

    The package computes on (N, 2, 2) stacks in this normal form
    (`mat2_stack`); the class is the scalar reference the tests check
    them against, and perfbench's object counter binds its constructor.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = mat2_of(m)

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



def adjugate(m):
    """Adjugate [[d, -b], [-c, a]] of a 2x2 matrix, or of each matrix in
    a stack: the exact inverse of a determinant-one matrix."""
    m = np.asarray(m, dtype=float)
    entries = [m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]]
    return np.stack(entries, axis=-1).reshape(m.shape)


def canonical_signs(mats):
    """Mat2's sign rule on a (N, 2, 2) stack: see the class docstring."""
    flat = mats.reshape(-1, 4)
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-12, axis=1)]
    return mats * np.where(lead < 0, -1.0, 1.0)[:, None, None]


def _det(mats):
    return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]


def unnormalizable(mats):
    """Why a 2x2 matrix, or a stack of them, cannot be Mat2-normalized:
    "overflows" if a determinant is not finite, else "lost its
    determinant to rounding" if one is not positive, else None.  The one
    determinant rule of the package; `refuse_unnormalizable` raises it."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = _det(mats)
    if not np.isfinite(det).all():
        return "overflows"
    if (det <= 0).any():
        return "lost its determinant to rounding"
    return None


def refuse_unnormalizable(prods, what, error=ValueError):
    """Raise `error` if a product in a stack of products of
    determinant-one factors is unnormalizable: `what`, then the cause."""
    cause = unnormalizable(prods)
    if cause is not None:
        raise error("%s %s" % (what, cause))


def mat2_stack(mats):
    """Mat2's normalization on a (N, 2, 2) stack, bit for bit."""
    return canonical_signs(mats / np.sqrt(_det(mats))[:, None, None])


def mat2_of(m):
    """One 2x2 matrix, of any positive determinant, normalized as Mat2
    holds it; another shape or determinant is invalid."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if unnormalizable(m):
        raise ValueError("matrix must have a finite positive determinant")
    return mat2_stack(m[None])[0]


def row_keys(rows, digits):
    """One comparable key per row of a (N, k) stack: its entries rounded
    to `digits` decimals (with -0.0 folded into 0.0), viewed as bytes."""
    flat = np.ascontiguousarray(np.round(rows, digits) + 0.0)
    return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()


def mat2_fold(factors, mask=None):
    """(Q, 2, 2) stack of the products, in order, of the (N, 2, 2)
    factors that each row of the (Q, N) mask selects (all of them, Q = 1,
    without a mask), Mat2-normalized after each factor as Mat2 products
    are; `refuse_unnormalizable` names why a product cannot be."""
    if mask is None:
        mask = np.ones((1, len(factors)), dtype=bool)
    g = np.tile(np.eye(2), (len(mask), 1, 1))
    for k in np.flatnonzero(mask.any(axis=0)):
        rows = mask[:, k]
        with np.errstate(over="ignore", invalid="ignore"):
            prods = g[rows] @ factors[k]
        refuse_unnormalizable(prods, "a product of the matrices")
        g[rows] = mat2_stack(prods)
    return g


def adjoint_to_so21(m):
    """Adjoint action of a 2x2 matrix, or of each matrix of a (..., 2, 2)
    stack, in Mat2's normal form (not renormalized), on sl(2,R), as 3x3
    matrices in SO(2,1)_0.

    Columns are the images of the fixed basis E1, E2, E3; well defined on
    PSL since the adjoint kills the sign.
    """
    a = np.asarray(m, dtype=float)
    X = a[..., None, :, :] @ SL2_BASIS @ adjugate(a)[..., None, :, :]
    # coordinates of each image X = x E1 + y E2 + t E3
    x = 0.5 * (X[..., 0, 0] - X[..., 1, 1])
    y = 0.5 * (X[..., 0, 1] + X[..., 1, 0])
    t = 0.5 * (X[..., 0, 1] - X[..., 1, 0])
    # one (x, y, t) row per basis element, transposed: the column-major
    # layout keeps the bits of products with it
    return np.stack([x, y, t], axis=-1).swapaxes(-1, -2)


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
    """Project v, or each row of v, onto the upper hyperboloid <v,v> = -1, t > 0."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        q = inner(v, v)
    if not np.all((q < 0) & np.isfinite(q) & (v[..., 2] > 0)):
        raise ValueError("point must be future timelike")
    return v / np.sqrt(-q)[..., None]


def boost_y_axis(lam):
    """Boost T(lam) fixing the spacelike y-axis, translating the geodesic
    {y = 0} of H^2 by lam.  This is the standard boost every cyclic and
    torus construction in the package is anchored to: it preserves the
    region {t^2 > x^2, t > 0} and commutes with translations (0, e, 0).
    """
    c, s = math.cosh(lam), math.sinh(lam)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


class RP1Point:
    """Point of RP^1, stored as a unit 2-vector `v` with angle in [0, pi),
    in rp1_stack's normal form.

    The circle parameter `theta` = angle / pi in [0, 1) is monotone with
    respect to the cyclic order of the corresponding null directions.
    Like Mat2, a scalar reference of the stacked forms (`rp1_stack`).
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
        return RP1Point(np.asarray(m, dtype=float) @ self.v)

    def null_vector(self):
        """Future null direction of this ideal point under the fixed
        sl(2) <-> R^{2+1} identification, normalized to t = 1."""
        return null_vectors(self.v)

    def dist(self, other):
        d = abs(self.theta - other.theta)
        return min(d, 1.0 - d)


def rp1_units(vs):
    """RP1Point's normal form of each row v of a (N, 2) stack: v over
    math.hypot(v), with the sign that puts its angle in [0, pi)."""
    norms = per_value(math.hypot, vs[:, 0], vs[:, 1])[:, None]
    if np.any(norms == 0.0):
        raise ValueError("zero vector is not projective")
    vs = vs / norms
    vs[(vs[:, 1] < 0) | ((vs[:, 1] == 0) & (vs[:, 0] < 0))] *= -1.0
    return vs


def rp1_thetas(units):
    """The circle parameter angle / pi in [0, 1) of each normal-form row,
    by math.atan2."""
    a = per_value(math.atan2, units[:, 1], units[:, 0])
    return (np.where(a < 0, a + math.pi, a) / math.pi) % 1.0


def circle_distance(a, b):
    """Distance on the circle of parameters mod 1, broadcast:
    min(|a - b|, 1 - |a - b|) for a and b in [0, 1)."""
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


def rp1_stack(vs):
    """RP1Point(v).v and RP1Point(v).theta of each row v of a (N, 2) stack."""
    units = rp1_units(np.asarray(vs, dtype=float))
    return units, rp1_thetas(units)


def rp1_from_thetas(thetas):
    """RP1Point.from_theta(t).v of each entry of a sequence of circle
    parameters, as a (N, 2) stack: math.cos and math.sin, then rp1_units."""
    angles = (np.ravel(thetas) % 1.0) * math.pi
    return rp1_units(np.stack([per_value(math.cos, angles), per_value(math.sin, angles)], axis=1))


def null_vectors(vs):
    """RP1Point.null_vector of a unit 2-vector, or of each in a stack."""
    x, y = vs[..., 0], vs[..., 1]
    n = np.stack([-2.0 * x * y, x * x - y * y, x * x + y * y], axis=-1)
    return n / n[..., 2:]


def geodesic_normal(end1, end2):
    """Unit spacelike normal of the plane through the origin spanned by
    two distinct ideal points, given by their null vectors, or of each
    pair in two (N, 3) stacks of null vectors."""
    u, v = np.asarray(end1, dtype=float), np.asarray(end2, dtype=float)
    n = np.cross(u, v) @ G
    # the direct <n,n> cancels catastrophically for nearby endpoints;
    # the Lagrange identity form stays accurate down to tiny gaps.
    # float_power squares by C pow, as Python's ** does, where x * x
    # can differ in the last bit
    q = np.float_power(inner(u, v), 2) - inner(u, u) * inner(v, v)
    scale = np.sum(u * u, axis=-1) * np.sum(v * v, axis=-1)
    if np.any(q <= 1e-25 * scale):
        raise ValueError("ideal endpoints coincide")
    return n / np.sqrt(q)[..., None]
