"""Finite measured laminations given as weighted multicurves.

A multicurve is a list of conjugacy classes (words) with positive
weights.  Leaves of the lifted lamination are axes of conjugates of the
class representatives over a prefix-closed GroupBall.  A memo, alive as
long as its representation object, keeps each representation's largest
ball and, per class word, the leaves in first-seen order; any smaller
radius reads a prefix, a larger one rebuilds the entry.  Every consumer
grows its radius through one routine, `stable_lifts`.  The transverse
vector of a segment is the weighted sum of oriented unit normals of the
leaves the segment crosses, which is the atomic-measure form of the
transverse integral defining translation cocycles.
"""

from __future__ import annotations

import bisect
import json
import weakref

import numpy as np

from .minkowski import RP1Point, geodesic_normal, inner
from .fuchsian import GroupBall, axis, parse_word, format_word, reduce_word

HARD_CAP = 8


class EnumerationCapError(RuntimeError):
    """Lift enumeration failed to stabilize below the hard radius cap."""


class GeodesicH2:
    """Complete geodesic of H^2 given by two distinct ideal endpoints."""

    def __init__(self, end1, end2):
        if not isinstance(end1, RP1Point):
            end1 = RP1Point(end1)
        if not isinstance(end2, RP1Point):
            end2 = RP1Point(end2)
        if end1.dist(end2) < 1e-12:
            raise ValueError("endpoints coincide")
        self.end1 = end1
        self.end2 = end2
        self.normal = geodesic_normal(end1, end2)

    def side(self, p):
        """Signed incidence <n, p> of a hyperboloid point."""
        return float(inner(self.normal, p))

    def key(self, ndigits=9):
        return _ends_key(self.end1, self.end2, ndigits)

    def apply(self, m):
        return GeodesicH2(self.end1.apply(m), self.end2.apply(m))

    def __repr__(self):
        return "GeodesicH2(%.6f, %.6f)" % (self.end1.theta, self.end2.theta)


def _ends_key(end1, end2, ndigits):
    t = sorted((round(end1.theta, ndigits) % 1.0, round(end2.theta, ndigits) % 1.0))
    return (t[0], t[1])


def endpoints_linked(g1, g2, tol=1e-9):
    """True iff the endpoint pairs strictly interleave on the circle."""
    a, b = g1.end1.theta, g1.end2.theta
    xs = []
    for t in (g2.end1.theta, g2.end2.theta):
        u = (t - a) % 1.0
        span = (b - a) % 1.0
        if min(u, abs(u - span), 1.0 - u) < tol:
            return False  # shared endpoint: tangential, not linked
        xs.append(u < span)
    return xs[0] != xs[1]


def same_geodesic(g1, g2, tol=1e-9):
    return (g1.end1.dist(g2.end1) < tol and g1.end2.dist(g2.end2) < tol) or (
        g1.end1.dist(g2.end2) < tol and g1.end2.dist(g2.end1) < tol)


class WeightedMulticurve:
    """Weighted conjugacy classes representing a finite lamination."""

    def __init__(self, curves):
        self.curves = []
        for w, weight in curves:
            if isinstance(w, str):
                w = parse_word(w)
            w = reduce_word(w)
            if not w:
                raise ValueError("trivial word is not a curve")
            if weight <= 0:
                raise ValueError("weights must be positive")
            self.curves.append((w, float(weight)))

    def __len__(self):
        return len(self.curves)

    def to_json(self):
        return {"curves": [{"word": format_word(w), "weight": wt} for w, wt in self.curves]}

    @classmethod
    def from_json(cls, data):
        return cls([(c["word"], c["weight"]) for c in data["curves"]])

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class CrossingRecord:
    """One leaf crossed by a query segment.

    The normal is the leaf's unit normal oriented from the start point's
    side toward the far side, which for segments based in the base
    region is the "points away from the base region" convention.
    """

    __slots__ = ("leaf", "parameter", "normal", "weight")

    def __init__(self, leaf, parameter, normal, weight):
        self.leaf = leaf
        self.parameter = parameter
        self.normal = normal
        self.weight = weight

    def __repr__(self):
        return "CrossingRecord(s=%.4f, w=%.3f, %r)" % (self.parameter, self.weight, self.leaf)


def _class_word(rep, w):
    """w as a word in rep's generators; a letter outside them is invalid."""
    w = parse_word(w, rep.genus) if isinstance(w, str) else tuple(w)
    if any(not 0 < abs(x) <= 2 * rep.genus for x in w):
        raise ValueError("word %r out of range for genus %d" % (format_word(w), rep.genus))
    return w


def closed_geodesic_of(rep, w):
    """Axis geodesic of the holonomy of a word."""
    att, repp, _ = axis(rep.evaluate(_class_word(rep, w)))
    return GeodesicH2(att, repp)


# representation -> (largest GroupBall so far, {class word: (leaves in
# first-seen order, ball index where each was first seen)})
_LIFTS = weakref.WeakKeyDictionary()


def leaf_lifts(rep, w, radius):
    """Distinct conjugate axes of the class of w over the radius-ball,
    in first-seen order."""
    w = _class_word(rep, w)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if rep not in _LIFTS or _LIFTS[rep][0].radius < radius:
        _LIFTS[rep] = (GroupBall(rep, radius), {})
    ball, by_word = _LIFTS[rep]
    if w not in by_word:
        base = closed_geodesic_of(rep, w)
        seen, leaves, first = set(), [], []
        for i, m in enumerate(ball.elements):
            e1, e2 = base.end1.apply(m), base.end2.apply(m)
            # deep conjugates collapse toward the circle; such leaves subtend
            # a vanishing boundary arc and cannot meet a bounded query region
            if e1.dist(e2) < 1e-6:
                continue
            k = _ends_key(e1, e2, 7)
            if k not in seen:
                seen.add(k)
                leaves.append(GeodesicH2(e1, e2))
                first.append(i)
        by_word[w] = (leaves, first)
    leaves, first = by_word[w]
    return leaves[:bisect.bisect_left(first, ball.offsets[radius + 1])]


def multicurve_lifts(rep, mc, radius):
    """List of (leaf, weight, class index) over all classes of mc."""
    out = []
    for ci, (w, weight) in enumerate(mc.curves):
        for g in leaf_lifts(rep, w, radius):
            out.append((g, weight, ci))
    return out


def disjointness_check(rep, mc, L):
    """True iff no two leaf lifts cross (and no leaf is shared between
    distinct classes), over conjugates from the radius-L ball."""
    lifts = multicurve_lifts(rep, mc, L)
    for i in range(len(lifts)):
        g1, _, c1 = lifts[i]
        for j in range(i + 1, len(lifts)):
            g2, _, c2 = lifts[j]
            if same_geodesic(g1, g2, 1e-7):
                if c1 != c2:
                    return False
                continue
            if endpoints_linked(g1, g2):
                return False
    return True


def _separating(leaf, p, q, eps=1e-9):
    """Crossing parameter in (0,1) if the leaf plane separates p from q,
    else None.  Raises if either endpoint is on the plane within eps."""
    sp, sq = leaf.side(p), leaf.side(q)
    if abs(sp) < eps or abs(sq) < eps:
        raise ValueError("segment endpoint lies on a leaf within tolerance")
    if sp * sq > 0:
        return None
    return sp / (sp - sq)


def stable_lifts(rep, mc, L, pick):
    """Records pick(leaf, weight) of the leaf lifts it accepts (returns
    not None), enumerated over a radius grown from L until two
    consecutive increments add no record, up to the hard cap.  A leaf
    keeps its first record; records come in first-seen order."""

    def collect(radius):
        recs = {}
        for leaf, weight, _ in multicurve_lifts(rep, mc, radius):
            k = leaf.key(7)
            if k in recs:
                continue
            rec = pick(leaf, weight)
            if rec is not None:
                recs[k] = rec
        return recs

    radius = min(L, HARD_CAP)
    recs = collect(radius)
    stable = 0
    while stable < 2:
        if radius >= HARD_CAP:
            raise EnumerationCapError(
                "leaf set did not stabilize at radius cap %d" % HARD_CAP)
        radius += 1
        nxt = collect(radius)
        stable = stable + 1 if len(nxt) == len(recs) else 0
        recs = nxt
    return list(recs.values())


def crossings(rep, mc, p, q, L):
    """All leaf lifts separating p from q, sorted along the segment,
    stabilized by stable_lifts from radius L."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if float(np.max(np.abs(p - q))) < 1e-14:
        return []

    def pick(leaf, weight):
        s = _separating(leaf, p, q)
        if s is None:
            return None
        n = leaf.normal if inner(leaf.normal, p) < 0 else -leaf.normal
        return CrossingRecord(leaf, s, n, weight)

    return sorted(stable_lifts(rep, mc, L, pick), key=lambda r: r.parameter)


def transverse_vector(rep, mc, p, q, L):
    """Weighted sum of oriented leaf normals crossed from p to q: the
    atomic-measure transverse integral."""
    out = np.zeros(3)
    for rec in crossings(rep, mc, p, q, L):
        out += rec.weight * rec.normal
    return out


def default_basepoint(rep, mc, L, eps=1e-6):
    """Hyperboloid apex, nudged off all leaf planes if necessary."""
    from .minkowski import hyperboloid_normalize

    lifts = multicurve_lifts(rep, mc, min(L + 2, HARD_CAP))
    p = np.array([0.0, 0.0, 1.0])
    step = 1
    while any(abs(leaf.side(p)) < eps for leaf, _, _ in lifts):
        p = hyperboloid_normalize(
            np.array([0.0131 * step, 0.0271 * step, 1.0]))
        step += 1
        if step > 200:
            raise RuntimeError("could not find a basepoint off all leaves")
    return p
