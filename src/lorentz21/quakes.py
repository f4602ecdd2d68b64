"""Left and right earthquake maps along finite laminations in H^2.

An earthquake map assigns to each complementary region of the
lamination the isometry obtained by composing, leaf by leaf from the
base region outward, the translation along the crossed leaf by
scale * weight, directed toward the endpoint lying to the left (or
right) of a path leaving the base region.  That end depends only on
the side of the leaf the base lies on, so each leaf's shear is formed
once.  Disjoint leaves crossed by one path are nested, so sorted by
|<n, b>|, their distance from the base b, they are in crossing order
for every target, and the isometries of a stack of targets are one
masked fold over that order.  The map extends to a piecewise Mobius
homeomorphism of the boundary circle.
"""

from __future__ import annotations

import math

import numpy as np

from . import laminations as lamins
from .fuchsian import Representation
from .minkowski import (G, adjoint_to_so21, finite, hyperboloid_normalize, inner, json_array,
                        json_fields, json_number, json_numbers, mat2_fold, mat2_stack,
                        null_vectors, per_value, rp1_from_thetas, rp1_stack, sorted_unique,
                        unnormalizable)


class FiniteLaminationH2:
    """Finitely many disjoint weighted geodesics, held as a LeafSet
    `leaves` in input order, plus a base region, designated by a future
    timelike point `basepoint` off all leaves, kept as given."""

    def __init__(self, leaves, basepoint=None):
        if np.any(leaves.weights <= 0):
            raise ValueError("weights must be positive")
        pair = lamins.first_crossing_pair(leaves.thetas, leaves.classes, same_tol=1e-9)
        if pair is not None:
            raise ValueError("leaves %d and %d are not disjoint" % pair)
        if basepoint is None:
            basepoint = lamins.basepoint_off(leaves.normals)
        basepoint = np.asarray(basepoint, dtype=float)
        if basepoint.shape != (3,):
            raise ValueError("basepoint must be a future timelike point (x, y, t)")
        # kept as given, as the base region rests on signs of <n, b>
        if np.any(np.abs(inner(leaves.normals, hyperboloid_normalize(basepoint))) < 1e-9):
            raise ValueError("basepoint lies within 1e-9 of a leaf")
        self.leaves = leaves
        self.basepoint = basepoint


def lamination_from_json(data):
    (leaves,) = json_fields(data, ("leaves",), "lamination")
    keys = ("end1", "end2", "weight")
    rows = np.array([[json_number(v, "leaves[%d].%s" % (i, k))
                      for k, v in zip(keys, json_fields(rec, keys, "leaves[%d]" % i))]
                     for i, rec in enumerate(json_array(leaves, "leaves"))]).reshape(-1, 3)
    ends = rp1_from_thetas(rows[:, :2].ravel()).reshape(-1, 2, 2)
    basepoint = data.get("basepoint")
    if basepoint is not None:
        basepoint = json_numbers(basepoint, "basepoint")
    return FiniteLaminationH2(
        lamins.LeafSet.from_ends(ends[:, 0], ends[:, 1], rows[:, 2]), basepoint)


def shears(leaves, basepoint, scale, side):
    """(N, 2, 2) stack of the Mat2-normalized translations by scale *
    weight along the rows of leaves, toward the end to the left of a
    path leaving basepoint (the right for side 'right'): end1 exactly
    when det[u1, u2, basepoint] > 0 for the ends' null vectors u1, u2."""
    u1, u2 = null_vectors(leaves.end1), null_vectors(leaves.end2)
    b = np.broadcast_to(basepoint, u1.shape)
    first = ((np.linalg.det(np.stack([u1, u2, b], axis=1)) > 0) == (side == "left"))[:, None]
    m = np.stack([np.where(first, leaves.end1, leaves.end2),
                  np.where(first, leaves.end2, leaves.end1)], axis=-1)
    m[..., 1] *= np.where(np.linalg.det(m) < 0, -1.0, 1.0)[:, None]
    amounts = scale * leaves.weights
    overflow = "a shear of %.6g along a leaf overflows"
    try:
        d = per_value(math.exp, amounts / 2.0)
    except OverflowError:
        raise ValueError(overflow % amounts.max()) from None
    diag = np.zeros_like(m)
    diag[:, 0, 0], diag[:, 1, 1] = d, 1.0 / d
    with np.errstate(over="ignore", invalid="ignore"):
        out = m @ diag @ np.linalg.inv(m)
    bad = unnormalizable(out)
    if bad.any():
        raise ValueError(overflow % amounts[np.argmax(bad)])
    return mat2_stack(out)


class EarthquakeMap:
    """Piecewise-isometric shear map along a finite lamination: its
    `leaves` base-outward, by laminations.crossing_record, and their `shears`."""

    def __init__(self, lamination, side="left", scale=1.0):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if finite(scale, "scale") < 0:
            raise ValueError("scale must be >= 0")
        self.lamination = lamination
        self.side = side
        self.scale = float(scale)
        b = lamination.basepoint
        self.leaves = lamins.crossing_record(lamination.leaves, b, np.zeros((0, 3)))[0]
        self.shears = shears(self.leaves, b, self.scale, side)

    def shear_trace_error(self):
        """How well each shear was formed: the largest relative error of
        |tr S| against 2 cosh(a / 2) over the shears S by a = scale *
        weight (0 without leaves)."""
        exact = 2.0 * np.cosh(self.scale * self.leaves.weights / 2.0)
        error = np.abs(np.abs(np.trace(self.shears, axis1=1, axis2=2)) - exact) / exact
        return float(error.max(initial=0.0))

    def _separating(self, targets, ideal=False):
        """laminations.separating of the base from the (Q, 3) targets."""
        return lamins.separating(self.leaves.normals, self.lamination.basepoint, targets, ideal)

    def region_isometry(self, targets, ideal=False):
        """(Q, 2, 2) stack of the composed shears carrying the base
        region's copy of H^2 to the copy seen by the region of each of
        the targets, a point or a (Q, 3) stack; shears compose
        base-outward on the left."""
        return mat2_fold(self.shears, self._separating(np.reshape(targets, (-1, 3)), ideal))

    def apply(self, p):
        """The image of a point off the leaves (on one, it is two-valued)."""
        p = np.asarray(p, dtype=float)
        return adjoint_to_so21(self.region_isometry(p)[0]) @ p

    def near_normals(self, p, eps):
        """Normals of the leaves within eps of the point p."""
        normals = self.lamination.leaves.normals
        return normals[np.abs(inner(normals, p)) < eps]

    def one_sided_values(self, p):
        """The two limits of the map at a point on (or near) a leaf: from
        either side of the first leaf within 1e-7."""
        p = np.asarray(p, dtype=float)
        near = self.near_normals(p, 1e-7)
        if len(near) == 0:
            v = self.apply(p)
            return [v, v]
        sides = hyperboloid_normalize(p + np.array([[1e-7], [-1e-7]]) * (G @ near[0]))
        return list(adjoint_to_so21(self.region_isometry(sides)) @ p)


class CircleMap:
    """Sampled monotone degree-one circle map: one (N, 2) array of
    (source, image) angle samples, kept in the order given."""

    def __init__(self, samples):
        self.samples = np.array(samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise ValueError("circle map samples must be (source, image) pairs")

    @classmethod
    def of_mobius(cls, thetas, mobs):
        """The map taking theta to the circle parameter of its ideal point
        moved by m, with one Mobius matrix m per angle (or one for all), in
        one stacked pass: rp1_from_thetas, the products, then rp1_stack."""
        v = rp1_from_thetas(thetas)
        return cls(np.stack([thetas, rp1_stack((mobs @ v[:, :, None])[:, :, 0])[1]], axis=1))

    def __len__(self):
        return len(self.samples)

    def is_monotone(self, tol=1e-12):
        """Cyclic monotonicity: going once around the source circle, the
        image angles also go once around, each step short of a turn."""
        outs = self.samples[np.lexsort((self.samples[:, 1], self.samples[:, 0])), 1]
        steps = (np.roll(outs, -1) - outs) % 1.0
        return len(outs) < 3 or bool(abs(steps.sum() - 1.0) < 1e-6 and steps.max() < 1.0 - tol)

    def to_csv_rows(self):
        return ["%.12f,%.12f" % (a, b) for a, b in self.samples.tolist()]


class EquivariantEarthquakeMap(EarthquakeMap):
    """Earthquake along the full lifted lamination of a weighted
    multicurve, with the crossing set enumerated adaptively per query so
    far-away targets still see every separating leaf."""

    def __init__(self, rep, mc, side="left", scale=1.0, L=3):
        basepoint = lamins.default_basepoint(rep, mc, L)
        super().__init__(FiniteLaminationH2(lamins.EMPTY, basepoint), side, scale)
        self.rep = rep
        self.mc = mc
        self.L = L

    def region_isometry(self, targets, ideal=False):
        """As for a finite lamination, over the leaf lifts crossed from
        the base point to the targets, enumerated in one pass."""
        b = self.lamination.basepoint
        leaves, mask = lamins.lifted_crossings(self.rep, self.mc, b, targets, self.L, ideal)
        return mat2_fold(shears(leaves, b, self.scale, self.side), mask)

    def near_normals(self, p, eps):
        return lamins.stable_lifts(self.rep, self.mc, self.L,
                                   lambda lv: np.abs(inner(lv.normals, p)) < eps).normals


def boundary_value(quake, samples=256):
    """Boundary circle map of an earthquake, sampled away from leaf
    endpoints."""
    if samples < 1:
        raise ValueError("boundary samples must be >= 1")
    ends = sorted_unique(np.round(quake.lamination.leaves.thetas, 12))
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
    g = quake.region_isometry(null_vectors(rp1_from_thetas(ths)), ideal=True)
    return CircleMap.of_mobius(ths, g)


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


def equivariant_lamination(rep, mc, L=3):
    """The lifted multicurve as a finite lamination: all leaves within
    reach of the disc of hyperbolic radius 1.5 about the nudged apex,
    enumeration stabilized as in the development pipeline."""
    basepoint = lamins.default_basepoint(rep, mc, L)
    reach = math.sinh(1.5)
    leaves = lamins.stable_lifts(
        rep, mc, L, lambda lv: np.abs(inner(lv.normals, basepoint)) < reach)
    return FiniteLaminationH2(leaves, basepoint)


def rep_after_earthquake(rep, mc, scale, side="left", L=3):
    """Holonomy of the sheared hyperbolic structure: each generator g is
    replaced by (composed shear along the segment basepoint -> g
    basepoint) * g."""
    if scale == 0:
        return rep
    quake = EquivariantEarthquakeMap(rep, mc, side, scale, L)
    targets = adjoint_to_so21(rep.generators) @ quake.lamination.basepoint
    out = Representation(rep.genus, quake.region_isometry(targets) @ rep.generators)
    if not out.is_valid(1e-6):
        raise RuntimeError("sheared holonomy fails the relator, defect %.3e"
                           % out.relator_defect())
    return out
