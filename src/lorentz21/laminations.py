"""Finite measured laminations given as weighted multicurves.

A multicurve is a list of conjugacy classes (words) with positive
weights.  Leaves of the lifted lamination are axes of conjugates of the
class representatives over a prefix-closed GroupBall, held as a
LeafSet, one array row per leaf.  Each class's LeafSet is built in one
vectorized pass over the ball's matrices and kept in a memo that lives
as long as its representation object, next to its largest ball; a
smaller radius reads a prefix, a larger one rebuilds the entry.  Every
consumer that grows its radius does so through `stable_lifts`.  A query
from a basepoint b to a stack of targets is one crossing record: the
leaves that separate b from any target, from one enumeration, sorted
base-outward (the order every segment from b crosses them), normals
oriented away from b, with one separating mask row per target.  The
transverse vector of a segment sums its row's weighted normals, the
atomic-measure form of the transverse integral defining translation
cocycles.  A finite lamination is the same LeafSet, built by
`LeafSet.from_ends` from its end vectors.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, fields, replace

import numpy as np

from .minkowski import (
    circle_distance,
    finite,
    geodesic_normal,
    hyperboloid_normalize,
    inner,
    json_array,
    json_fields,
    json_number,
    null_vectors,
    rp1_stack,
    rp1_thetas,
)
from .fuchsian import (GroupBall, axis, capped, format_word, growth_series, parse_word,
                       reduce_word)

# ends of two distinct leaves closer than this are one shared end: tangent
TOUCH_TOL = 1e-9


def same_geodesic(g1, g2, tol=1e-9):
    """Whether two scalar leaves (tests/reference.py's GeodesicH2), whose
    ends have a circle distance `dist`, are one geodesic within tol."""
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
            if finite(weight, "weight") <= 0:
                raise ValueError("weights must be positive")
            self.curves.append((w, float(weight)))

    def __len__(self):
        return len(self.curves)

    def to_json(self):
        return {"curves": [{"word": format_word(w), "weight": wt} for w, wt in self.curves]}

    @classmethod
    def from_json(cls, data):
        (curves,) = json_fields(data, ("curves",), "multicurve")
        out = []
        for i, c in enumerate(json_array(curves, "curves")):
            word, weight = json_fields(c, ("word", "weight"), "curves[%d]" % i)
            if not isinstance(word, str):
                raise ValueError("curves[%d].word must be a JSON string, not %s"
                                 % (i, type(word).__name__))
            out.append((word, json_number(weight, "curves[%d].weight" % i)))
        return cls(out)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _class_word(rep, w):
    """w as a word in rep's generators; a letter outside them is invalid."""
    w = parse_word(w, rep.genus) if isinstance(w, str) else tuple(w)
    if any(not 0 < abs(x) <= 2 * rep.genus for x in w):
        raise ValueError("word %r out of range for genus %d" % (format_word(w), rep.genus))
    return w


def closed_geodesic_of(rep, w):
    """(2, 2) end vectors, attracting then repelling, of a word's axis."""
    return np.stack(axis(rep.evaluate(_class_word(rep, w)))[:2])


@dataclass(frozen=True)
class LeafSet:
    """Leaves as arrays, one row per leaf: unit end vectors `end1`,
    `end2` (N, 2) normalized as RP1Point does, their circle parameters
    `thetas` (N, 2), unit `normals` (N, 3), the ball index where each
    leaf was `first` seen, and the multicurve `weights` and `classes`."""

    end1: np.ndarray
    end2: np.ndarray
    thetas: np.ndarray
    normals: np.ndarray
    first: np.ndarray
    weights: np.ndarray
    classes: np.ndarray

    def __len__(self):
        return len(self.first)

    def __getitem__(self, rows):
        """The rows selected by a slice, mask or index array."""
        return LeafSet(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def from_ends(cls, end1, end2, weights):
        """The record of a finite lamination from (N, 2) unit end vectors
        already in RP1Point's normal form, kept as they are (that
        normalization is not idempotent), in input order with the given
        weights and one class per leaf; `geodesic_normal` refuses ends that
        coincide (closer than about 1.8e-7 in circle parameter)."""
        thetas = np.stack([rp1_thetas(end1), rp1_thetas(end2)], axis=1)
        n = len(thetas)
        return cls(end1, end2, thetas,
                   geodesic_normal(null_vectors(end1), null_vectors(end2)),
                   np.arange(n), np.array(weights, dtype=float).reshape(n), np.arange(n))


def _leaf_keys(thetas):
    """Leaf identity in `_lift_class`'s dedup and `_refuse_shared_leaves`,
    from (N, 2) end parameters: both rounded to 7 digits, mod 1, sorted."""
    return np.sort(np.round(thetas, 7) % 1.0, axis=1)


EMPTY = LeafSet.from_ends(np.zeros((0, 2)), np.zeros((0, 2)), [])


def _lift_class(ball, base):
    """Distinct conjugate axes m(base) of the (2, 2) end vectors base over
    the ball's matrices m, first-seen, as a one-class LeafSet of weight 1."""
    end1, theta1 = rp1_stack(ball.elements @ base[0])
    end2, theta2 = rp1_stack(ball.elements @ base[1])
    # deep conjugates collapse toward the circle; such leaves subtend
    # a vanishing boundary arc and cannot meet a bounded query region
    rows = np.flatnonzero(circle_distance(theta1, theta2) >= 1e-6)
    keys = _leaf_keys(np.stack([theta1[rows], theta2[rows]], axis=1))
    keys = keys.view(np.dtype((np.void, 2 * keys.itemsize))).ravel()  # a row as one value
    rows = rows[np.sort(np.unique(keys, return_index=True)[1])]
    return replace(LeafSet.from_ends(end1[rows], end2[rows], np.ones(len(rows))),
                   first=rows, classes=np.zeros(len(rows), dtype=int))


# representation -> (largest GroupBall so far, {class word: LeafSet})
_LIFTS = weakref.WeakKeyDictionary()


def leaf_lifts(rep, w, radius):
    """LeafSet of the distinct conjugate axes of the class of w over the
    radius-ball, in first-seen order."""
    w = _class_word(rep, w)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if rep not in _LIFTS or _LIFTS[rep][0].radius < radius:
        _LIFTS[rep] = (GroupBall(rep, radius), {})
    ball, by_word = _LIFTS[rep]
    if w not in by_word:
        by_word[w] = _lift_class(ball, closed_geodesic_of(rep, w))
    leaves = by_word[w]
    return leaves[:np.searchsorted(leaves.first, ball.offsets[radius + 1])]


def multicurve_lifts(rep, mc, radius):
    """LeafSet of the lifts of every class of mc, class by class."""
    parts = [leaf_lifts(rep, w, radius) for w, _ in mc.curves]
    sizes = [len(part) for part in parts]
    # EMPTY keeps the concatenation defined for no classes
    leaves = LeafSet(*(np.concatenate([getattr(part, f.name) for part in [EMPTY] + parts])
                       for f in fields(LeafSet)))
    return replace(leaves, weights=np.repeat([wt for _, wt in mc.curves], sizes),
                   classes=np.repeat(np.arange(len(sizes)), sizes))


def _separated_and_nested(thetas, sep):
    """Whether the 2N ends of the (N, 2) end parameters lie in [0, 1),
    at least sep apart around the circle, and no two chords interleave.
    The sorted ends read as parentheses, each chord opening at its lower
    end, are matched as a stack matches them, all at once: grouped
    stably by depth (after an open, before a close), the ends of each
    depth alternate open, close, and each close matches the open before
    it.  The chords are nested exactly when every match is one chord."""
    ends = thetas.ravel()
    if not np.all((ends >= 0.0) & (ends < 1.0)):
        return False
    order = np.argsort(ends, kind="stable")
    run = ends[order]
    if min(np.diff(run).min(), 1.0 - run[-1] + run[0]) < sep:
        return False
    opens = np.stack([thetas[:, 0] < thetas[:, 1], thetas[:, 0] > thetas[:, 1]], axis=1)
    opens = opens.ravel()[order]
    depth = np.cumsum(np.where(opens, 1, -1))
    matched = (order // 2)[np.argsort(np.where(opens, depth, depth + 1), kind="stable")]
    return bool(np.all(matched[0::2] == matched[1::2]))


def first_crossing_pair(thetas, classes, same_tol=1e-7):
    """First pair (i, j), i < j, of leaves with end parameters thetas
    (N, 2) that are one geodesic within same_tol but of two classes or,
    being distinct, cross; None if there is none.  Leaf i is tested
    against all later leaves at once, exactly as the pairwise
    same_geodesic(g_i, g_j, same_tol), then the endpoints_linked(g_i,
    g_j, TOUCH_TOL) of tests/reference.py.  That row loop runs only if a
    tolerance could decide it or a pair crosses: nested chords whose
    ends are at least 2 max(same_tol, TOUCH_TOL) apart have no pair
    within either tolerance, and the loop's float order of (x - a) % 1
    is then their exact cyclic order, so it would return None."""
    if len(thetas) < 2 or _separated_and_nested(thetas, 2 * max(same_tol, TOUCH_TOL)):
        return None
    for i in range(len(thetas) - 1):
        a, b = thetas[i]
        later = thetas[i + 1:]
        # near[j, k, l]: later_jk is within same_tol of end_l
        near = circle_distance(later[:, :, None], thetas[i]) < same_tol
        same = (near[:, 0, 0] & near[:, 1, 1]) | (near[:, 1, 0] & near[:, 0, 1])
        u, span = (later - a) % 1.0, (b - a) % 1.0
        # a shared endpoint is tangential, not linked
        touch = ((u < TOUCH_TOL) | (np.abs(u - span) < TOUCH_TOL)
                 | (1.0 - u < TOUCH_TOL)).any(axis=1)
        linked = ~touch & ((u[:, 0] < span) != (u[:, 1] < span))
        bad = np.where(same, classes[i + 1:] != classes[i], linked)
        if bad.any():
            return i, i + 1 + int(np.argmax(bad))
    return None


def disjointness_check(rep, mc, L):
    """True iff no two leaf lifts cross (and no leaf is shared between
    distinct classes), over conjugates from the radius-L ball."""
    leaves = multicurve_lifts(rep, mc, L)
    return first_crossing_pair(leaves.thetas, leaves.classes) is None


def _refuse_shared_leaves(mc, leaves):
    """Refuse two classes conjugate up to inverse, one set of leaves: a
    class whose axis (its first == 0 row) shares its _leaf_keys with a
    lift of another class; deep lifts whose keys collide do not decide."""
    keys = _leaf_keys(leaves.thetas)
    for i in np.flatnonzero(leaves.first == 0):
        shared = leaves.classes[(keys == keys[i]).all(axis=1)]
        if shared.min() < shared.max():
            raise ValueError("curves %s and %s have the same leaves: their classes are "
                             "conjugate, up to inverse"
                             % tuple(format_word(mc.curves[c][0]) for c in shared[[0, -1]]))


def stable_lifts(rep, mc, L, keep):
    """The leaf lifts selected by keep(leaves), a boolean mask over a
    LeafSet, over the radius-r ball at the least r >= L + 2 whose
    selection has no leaf first seen outside the radius-(r - 2) ball.
    Balls are prefix-closed, each class's lifts first-seen and keep
    decides per leaf, so the selection at r - 2 is these rows: "two
    increments select no new leaf", one collect per radius from
    first_collect_radius's L + 2; a radius above the cap is refused.
    Rows come class by class, first-seen.  Classes conjugate up to
    inverse are refused, so rows of two classes are two leaves."""

    def collect(radius):
        leaves = multicurve_lifts(rep, mc, radius)
        _refuse_shared_leaves(mc, leaves)
        return leaves[keep(leaves)]

    radius = first_collect_radius(mc, L)
    leaves = collect(radius)
    while np.any(leaves.first >= growth_series(rep.genus, radius - 2)[-1]):
        radius += 1
        leaves = collect(radius)
    return leaves


def separating(normals, b, targets, ideal=False):
    """(Q, N) mask of the leaf planes (by normals) separating b from each
    of the (Q, 3) targets, the one leaf-side rule of the package.  b,
    read on the hyperboloid, or a point target within 1e-9 of a plane is
    refused; an ideal target within 1e-12 of one is that leaf's end,
    which its shear fixes, so that leaf does not separate it."""
    sb, st = inner(normals, hyperboloid_normalize(b)), inner(normals, targets[:, None])
    on = np.abs(st) < (1e-12 if ideal else 1e-9)
    if np.any(np.abs(sb) < 1e-9) or (on.any() and not ideal):
        raise ValueError("segment endpoint lies on a leaf within tolerance")
    return ~on & (sb * st <= 0)


def crossing_record(leaves, b, targets, ideal=False):
    """The leaves base-outward, by |<n, b>| in a stable sort, normals
    oriented away from b, and their separating mask for the (Q, 3)
    targets, ideal ones if ideal.  Disjoint leaves met by one segment
    from b are nested, so a mask row lists its leaves in the order that
    segment crosses them."""
    sb = inner(leaves.normals, b)
    leaves = replace(leaves, normals=leaves.normals * -np.sign(sb)[:, None])
    leaves = leaves[np.argsort(np.abs(sb), kind="stable")]
    return leaves, separating(leaves.normals, b, targets, ideal)


def lifted_crossings(rep, mc, b, targets, L, ideal=False):
    """crossing_record of the leaf lifts separating b from any of the
    targets, a point or a (Q, 3) stack, from one stable_lifts call."""
    targets = np.reshape(np.asarray(targets, dtype=float), (-1, 3))
    leaves = stable_lifts(rep, mc, L,
                          lambda lv: separating(lv.normals, b, targets, ideal).any(axis=0))
    return crossing_record(leaves, b, targets, ideal)


def transverse_sum(leaves, mask):
    """(Q, 3) stack of the weighted sums of the oriented normals each
    mask row selects, added in leaf order; an overflow is refused."""
    out = np.zeros((len(mask), 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for n, w, hit in zip(leaves.normals, leaves.weights, mask.T):
            out[hit] += w * n
    if not np.isfinite(out).all():
        raise ValueError("a transverse vector overflows")
    return out


def crossings(rep, mc, p, q, L):
    """LeafSet of the leaf lifts separating p from q in crossing order,
    normals oriented from p toward q: one row of lifted_crossings."""
    leaves, mask = lifted_crossings(rep, mc, p, q, L)
    return leaves[mask[0]]


def transverse_vector(rep, mc, p, q, L):
    """Transverse vector from p to q, a point or a (Q, 3) stack."""
    return transverse_sum(*lifted_crossings(rep, mc, p, q, L)).reshape(np.shape(q))


def basepoint_off(normals):
    """The first of the hyperboloid apex and its nudges to the Klein
    points (0.0131 k, 0.0271 k), k <= 33 (k = 34 leaves the disc),
    farther than 1e-6 from every leaf plane of the (N, 3) normals."""
    for k in range(34):
        p = hyperboloid_normalize(np.array([0.0131 * k, 0.0271 * k, 1.0]))
        if not np.any(np.abs(inner(normals, p)) < 1e-6):
            return p
    raise RuntimeError("no basepoint off all leaves within 33 nudges")


def first_collect_radius(mc, L):
    """L + 2, the ball radius of the first collect of every lift query
    on mc (default_basepoint, stable_lifts); with a curve in mc, one
    above the cap is refused here, before any ball is built."""
    return capped(L + 2) if len(mc) else L + 2


def default_basepoint(rep, mc, L):
    """Hyperboloid apex, nudged off all leaf planes if necessary, over
    the ball of every query's first collect."""
    return basepoint_off(multicurve_lifts(rep, mc, first_collect_radius(mc, L)).normals)
