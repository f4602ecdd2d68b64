"""Left and right earthquake maps along finite laminations in H^2.

An earthquake map assigns to each complementary region of the
lamination the isometry obtained by composing, leaf by leaf from the
base region outward, the translation along the crossed leaf by
scale * weight, directed toward the endpoint lying to the left (or
right) of the crossing direction.  The map extends to a piecewise
Mobius homeomorphism of the boundary circle.
"""

from __future__ import annotations

import math

import numpy as np

from . import laminations as lamins
from .fuchsian import Mat2, Representation
from .minkowski import (
    G,
    RP1Point,
    adjoint_to_so21,
    finite,
    hyperboloid_normalize,
    inner,
    null_vectors,
)


def uhp_point(u, v):
    """Upper-half-plane point u + iv as a hyperboloid point."""
    if v <= 0:
        raise ValueError("need v > 0")
    return np.array([-u / v, (u * u + v * v - 1) / (2 * v), (u * u + v * v + 1) / (2 * v)])


def real_boundary_point(r):
    """Boundary real r (None for infinity) as an RP1Point."""
    if r is None:
        return RP1Point(np.array([1.0, 0.0]))
    return RP1Point(np.array([float(r), 1.0]))


class FiniteLaminationH2:
    """Finitely many disjoint weighted geodesics, given as (GeodesicH2,
    weight) pairs and held as a LeafSet `leaves` in that order, plus a
    base region, designated by a hyperbolic point off all leaves."""

    def __init__(self, leaves, basepoint=None):
        leaves = [(g, float(w)) for g, w in leaves]
        if any(w <= 0 for _, w in leaves):
            raise ValueError("weights must be positive")
        self.leaves = lamins.LeafSet.of([g for g, _ in leaves], [w for _, w in leaves])
        pair = lamins.first_crossing_pair(self.leaves.thetas, self.leaves.classes,
                                          same_tol=1e-9)
        if pair is not None:
            raise ValueError("leaves %d and %d are not disjoint" % pair)
        if basepoint is None:
            basepoint = lamins.basepoint_off(self.leaves.normals)
        self.basepoint = np.asarray(basepoint, dtype=float)


def lamination_to_json(lamination):
    return {
        "leaves": [
            {"end1": end1, "end2": end2, "weight": w}
            for (end1, end2), w in zip(lamination.leaves.thetas.tolist(),
                                       lamination.leaves.weights.tolist())
        ],
        "basepoint": [float(v) for v in lamination.basepoint],
    }


def lamination_from_json(data):
    leaves = []
    for rec in data["leaves"]:
        end1, end2, w = finite([rec["end1"], rec["end2"], rec["weight"]], "leaf")
        leaves.append((lamins.GeodesicH2(RP1Point.from_theta(end1), RP1Point.from_theta(end2)),
                       float(w)))
    basepoint = data.get("basepoint")
    if basepoint is not None:
        basepoint = finite(basepoint, "basepoint")
    return FiniteLaminationH2(leaves, basepoint)


def _left_of(c, u):
    """Unit tangent at c obtained by rotating the tangent u by +90 deg."""
    n = G @ np.cross(c, u)
    return n / math.sqrt(max(inner(n, n), 1e-300))


def _toward(c, target):
    """Unit tangent at the hyperboloid point c toward a point or null
    vector target."""
    t = target + inner(target, c) * c
    return t / math.sqrt(max(inner(t, t), 1e-300))


def shear_along(end1, end2, amount, c, u, side):
    """Mat2 translating by |amount| along the leaf with unit end vectors
    end1, end2, toward the endpoint on the left of the crossing
    direction u at the crossing point c (toward the right endpoint for
    side 'right')."""
    ell = _left_of(c, u)
    if side == "right":
        ell = -ell
    v1 = _toward(c, null_vectors(end1))
    target, other = (end1, end2) if inner(v1, ell) < 0 else (end2, end1)
    m = np.column_stack([target, other])
    if np.linalg.det(m) < 0:
        m = np.column_stack([target, -other])
    try:
        d = math.exp(amount / 2.0)
    except OverflowError:
        raise ValueError("a shear of %.6g along a leaf overflows" % amount) from None
    return Mat2(m @ np.diag([d, 1.0 / d]) @ np.linalg.inv(m))


class EarthquakeMap:
    """Piecewise-isometric shear map along a finite lamination."""

    def __init__(self, lamination, side="left", scale=1.0):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if finite(scale, "scale") < 0:
            raise ValueError("scale must be >= 0")
        self.lamination = lamination
        self.side = side
        self.scale = float(scale)

    def _separating(self, target, ideal=False):
        """LeafSet of the leaves separating the base region from target,
        in crossing order, normals oriented away from the base region."""
        leaves, b = self.lamination.leaves, self.lamination.basepoint
        sb, st = inner(leaves.normals, b), inner(leaves.normals, target)
        on = np.abs(st) < 1e-12
        if on.any() and not ideal:
            raise ValueError("target lies on a leaf")
        # a leaf endpoint is skipped: its shear fixes it, both sides agree
        return lamins.along(leaves[~on & (sb * st < 0)], b, target)

    def region_isometry(self, target, ideal=False):
        """Composed shear carrying the base region's copy of H^2 to the
        copy seen by the region of target."""
        b = self.lamination.basepoint
        leaves = self._separating(target, ideal)
        sb, st = inner(leaves.normals, b), inner(leaves.normals, target)
        g = Mat2.identity()
        for s, end1, end2, w in zip(sb / (sb - st), leaves.end1, leaves.end2, leaves.weights):
            c = hyperboloid_normalize(b + s * (target - b))
            u = _toward(c, target)
            # orientation data is taken on the undeformed picture, so
            # the crossing point and direction come from the original
            # segment, and shears compose base-outward on the left
            g = g @ shear_along(end1, end2, self.scale * w, c, u, self.side)
        return g

    def __call__(self, p):
        return self.apply(p)

    def apply(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(np.abs(inner(self.lamination.leaves.normals, p)) < 1e-9):
            raise ValueError("point lies on an atomic leaf; the map "
                             "is two-valued there")
        g = self.region_isometry(p)
        return adjoint_to_so21(g) @ p

    def one_sided_values(self, p, eps=1e-7):
        """The two limits of the map at a point on (or near) a leaf: from
        either side of the first leaf within eps."""
        p = np.asarray(p, dtype=float)
        normals = self.lamination.leaves.normals
        near = np.flatnonzero(np.abs(inner(normals, p)) < eps)
        if len(near) == 0:
            v = self.apply(p)
            return [v, v]
        return [adjoint_to_so21(self.region_isometry(hyperboloid_normalize(
            p + sgn * eps * (G @ normals[near[0]])))) @ p for sgn in (1.0, -1.0)]

    def boundary_point(self, x):
        """Image of an ideal point under the boundary extension."""
        if not isinstance(x, RP1Point):
            x = RP1Point(x)
        n = x.null_vector()
        g = self.region_isometry(n, ideal=True)
        return x.apply(g)


class CircleMap:
    """Sampled monotone degree-one circle map."""

    def __init__(self, samples):
        self.samples = [(float(a), float(b)) for a, b in samples]

    def __len__(self):
        return len(self.samples)

    def is_monotone(self, tol=1e-12):
        """Cyclic monotonicity: going once around the source circle, the
        image angles also go once around."""
        if len(self.samples) < 3:
            return True
        s = sorted(self.samples)
        outs = [b for _, b in s]
        total = 0.0
        for i in range(len(outs)):
            d = (outs[(i + 1) % len(outs)] - outs[i]) % 1.0
            total += d
        return abs(total - 1.0) < 1e-6 and all(
            ((outs[(i + 1) % len(outs)] - outs[i]) % 1.0) < 1.0 - tol or len(outs) == 1
            for i in range(len(outs)))

    def evaluate(self, theta):
        """Piecewise-linear interpolation of the samples."""
        s = sorted(self.samples)
        ts = [a for a, _ in s]
        theta = theta % 1.0
        import bisect

        i = bisect.bisect_right(ts, theta) - 1
        a0, b0 = s[i % len(s)]
        a1, b1 = s[(i + 1) % len(s)]
        da = (a1 - a0) % 1.0
        db = (b1 - b0) % 1.0
        if da < 1e-15:
            return b0
        return (b0 + db * (((theta - a0) % 1.0) / da)) % 1.0

    def to_csv_rows(self):
        return ["%.12f,%.12f" % ab for ab in self.samples]


class EquivariantEarthquakeMap(EarthquakeMap):
    """Earthquake along the full lifted lamination of a weighted
    multicurve, with the crossing set enumerated adaptively per query so
    far-away targets still see every separating leaf."""

    def __init__(self, rep, mc, side="left", scale=1.0, L=3):
        basepoint = lamins.default_basepoint(rep, mc, L)
        super().__init__(FiniteLaminationH2([], basepoint), side, scale)
        self.rep = rep
        self.mc = mc
        self.L = L

    def _separating(self, target, ideal=False):
        return lamins.crossings(self.rep, self.mc, self.lamination.basepoint,
                                np.asarray(target, dtype=float), self.L)


def boundary_value(quake, samples=256):
    """Boundary circle map of an earthquake, sampled away from leaf
    endpoints."""
    if samples < 1:
        raise ValueError("boundary samples must be >= 1")
    ends = np.array(sorted({round(t, 12) for t in quake.lamination.leaves.thetas.ravel().tolist()}))
    ths = (np.arange(samples) + 0.5) / samples
    if len(ends):
        # a sample is nudged within 1e-9 of an end, or of an end less one:
        # the nearest ends bracket it in sorted order, the farthest are
        # the first and the last
        i = np.searchsorted(ends, ths)
        near = np.abs(ths - ends[[np.maximum(i - 1, 0), np.minimum(i, len(ends) - 1)]])
        far = np.abs(ths - ends[[0, -1], None])
        ths = np.where((near < 1e-9).any(axis=0) | (np.abs(far - 1.0) < 1e-9).any(axis=0),
                       ths + 2e-9, ths)
    return CircleMap([(th, quake.boundary_point(RP1Point.from_theta(th)).theta)
                      for th in ths.tolist()])


def quadric_action_example(s):
    """The chain of projective matrices traced by a shear of strength
    log s along the (0, infinity) leaf, together with the half-measure
    conjugate: ((1,1),(1,1)) -> ((s,1),(s,1)) -> ((s^2,s),(s,1)), and
    diag(sqrt s, 1) ((s,1),(s,1)) diag(sqrt s, 1)^{-1} = ((s, sqrt s),
    (sqrt s, 1))."""
    if s <= 0:
        raise ValueError("s must be positive")
    start = np.array([[1.0, 1.0], [1.0, 1.0]])
    mid = np.array([[s, 1.0], [s, 1.0]])
    end = np.array([[s * s, s], [s, 1.0]])
    r = math.sqrt(s)
    half = np.diag([r, 1.0]) @ mid @ np.diag([1.0 / r, 1.0])
    return {"start": start, "mid": mid, "end": end, "half": half}


def equivariant_lamination(rep, mc, radius=1.5, L=3):
    """The lifted multicurve as a finite lamination: all leaves within
    reach of the disc of the given hyperbolic radius about the nudged
    apex, enumeration stabilized as in the development pipeline."""
    basepoint = lamins.default_basepoint(rep, mc, L)
    reach = math.sinh(radius)
    leaves = lamins.stable_lifts(
        rep, mc, L, lambda lv: np.abs(inner(lv.normals, basepoint)) < reach)
    return FiniteLaminationH2(
        [(leaves.geodesic(i), w) for i, w in enumerate(leaves.weights)], basepoint)


def rep_after_earthquake(rep, mc, scale, side="left", L=3):
    """Holonomy of the sheared hyperbolic structure: each generator g is
    replaced by (composed shear along the segment basepoint -> g
    basepoint) * g."""
    if scale == 0:
        return Representation(rep.genus, list(rep.generators))
    quake = EquivariantEarthquakeMap(rep, mc, side, scale, L)
    basepoint = quake.lamination.basepoint
    new_gens = []
    for i in range(2 * rep.genus):
        gm = rep.generators[i]
        g = quake.region_isometry(adjoint_to_so21(gm) @ basepoint)
        new_gens.append(g @ gm)
    out = Representation(rep.genus, new_gens)
    if not out.is_valid(1e-6):
        raise RuntimeError("sheared holonomy fails the relator, defect %.3e"
                           % out.relator_defect())
    return out
