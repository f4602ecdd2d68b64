"""Scalar references of the array layer: the Segre map of one ruling
pair, which CircleGraph.points stacks, the leaf type GeodesicH2 and
the pairwise linking test the stacked leaf routines are checked
against, helpers between them and a LeafSet, lift stabilization by
unit radius increments, the Margulis invariant of a cocycle, a word's
translation length on the tree dual to a lifted multicurve, the
per-pair cocycle residual of the identity sweep and the sweep one row
at a time, the per-sample nudge of a developed surface, the per-face
OBJ and convexity slack of a hull, the group ball's per-level dedup by
`np.unique` and `np.isin`, the conjugacy samples' lexsort and greedy
loops, and a circle map's monotonicity over lists; also the steep
graphs the hull tests share, and the helpers several test modules use
that no program path calls: word concatenation, a ball's signed
letters and its words as tuples, the radii of the balls a block
builds, the trivial representation, the apex, upper-half-plane points
and boundary reals, and an earthquake's boundary extension."""

import contextlib
import math
import weakref
from unittest import mock

import numpy as np

from lorentz21.adshull import CircleGraph, attracting_thetas
from lorentz21 import fuchsian, laminations
from lorentz21.fuchsian import (GroupBall, Representation, reduce_word, signed_letters,
                                surface_relator)
from lorentz21.laminations import LeafSet
from lorentz21.minkowski import (RP1Point, adjoint_to_so21, geodesic_normal, inner,
                                 mat2_stack, null_vectors, refuse_unnormalizable, row_keys,
                                 rp1_units)


def concat(*words):
    """The reduced free concatenation of words."""
    return reduce_word([x for w in words for x in w])


def dehn_reduce(word, genus):
    """Dehn's algorithm for the genus-g surface group (Lyndon-Schupp
    V.4): after free reduction, a subword that is more than half of a
    cyclic conjugate of the relator or of its inverse is replaced by the
    inverse of the rest, until none is left.  The relator's small
    cancellation makes the result empty exactly for the identity."""
    relator = surface_relator(genus)
    n = len(relator)
    inverse = [-x for x in reversed(relator)]
    halves = {}
    for c in (list(relator), inverse):
        for k in range(n):
            turn = c[k:] + c[:k]
            for m in range(n // 2 + 1, n + 1):
                halves[tuple(turn[:m])] = tuple(-x for x in reversed(turn[m:]))
    word = reduce_word(word)
    again = True
    while again:
        again = False
        for lhs, rhs in halves.items():
            for at in range(len(word) - len(lhs) + 1):
                if word[at:at + len(lhs)] == lhs:
                    word = reduce_word(word[:at] + rhs + word[at + len(lhs):])
                    again = True
                    break
    return word


# ball_words' lists, built once per ball
_BALL_WORDS = weakref.WeakKeyDictionary()


def ball_letters(ball):
    """The signed generator index of each GroupBall element's last
    letter, read from its step (0 for the identity)."""
    letters = signed_letters(ball.genus)[ball.step]
    letters[0] = 0
    return letters


def ball_words(ball):
    """The words of a GroupBall as tuples, in ball order: each element's
    word is its parent's, then the letter of its step."""
    if ball not in _BALL_WORDS:
        words = [()]
        for p, x in zip(ball.parent[1:].tolist(), ball_letters(ball)[1:].tolist()):
            words.append(words[p] + (x,))
        _BALL_WORDS[ball] = words
    return list(_BALL_WORDS[ball])


@contextlib.contextmanager
def ball_radii():
    """The radii of the GroupBalls built inside the block, in order; a
    refused ball is not built, so it is not recorded."""
    radii = []
    init = GroupBall.__init__

    def counted(self, rep, radius):
        init(self, rep, radius)
        radii.append(radius)

    with mock.patch.object(GroupBall, "__init__", counted):
        yield radii


def trivial_rep(genus):
    """The representation sending every generator to the identity."""
    return Representation(genus, np.tile(np.eye(2), (2 * genus, 1, 1)))


def apex():
    """The hyperboloid point (0, 0, 1)."""
    return np.array([0.0, 0.0, 1.0])


def uhp_point(u, v):
    """Upper-half-plane point u + iv as a hyperboloid point."""
    if v <= 0:
        raise ValueError("need v > 0")
    return np.array([-u / v, (u * u + v * v - 1) / (2 * v), (u * u + v * v + 1) / (2 * v)])


def real_boundary_point(r):
    """Boundary real r (None for infinity) as a unit vector in
    rp1_units' normal form."""
    return rp1_units(np.array([[1.0, 0.0] if r is None else [float(r), 1.0]]))[0]


def boundary_point(quake, x):
    """Image of an ideal point, a unit vector in rp1_units' normal form
    (not renormalized), under the boundary extension of an earthquake,
    in that form."""
    return rp1_units((quake.region_isometry(null_vectors(x), ideal=True)[0] @ x)[None])[0]


def segre(left, right):
    """Quadric point of a ruling pair of 2-vectors: ((X1:Y1),(X2:Y2)) goes
    to (X1 X2 : X1 Y2 : Y1 X2 : Y1 Y2), i.e. the rank-one matrix l r^T."""
    l, r = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    if np.max(np.abs(l)) == 0 or np.max(np.abs(r)) == 0:
        raise ValueError("ruling coordinates must be nonzero")
    return np.outer(l, r).reshape(4)


class GeodesicH2:
    """Complete geodesic of H^2 given by two distinct ideal endpoints,
    RP1Points or unit vectors already in their normal form (kept as they
    are, as that normalization is not idempotent)."""

    def __init__(self, end1, end2):
        end1, end2 = (e if isinstance(e, RP1Point) else RP1Point.normalized(e)
                      for e in (end1, end2))
        if end1.dist(end2) < 1e-12:
            raise ValueError("endpoints coincide")
        self.end1 = end1
        self.end2 = end2
        self.normal = geodesic_normal(end1.null_vector(), end2.null_vector())

    def side(self, p):
        """Signed incidence <n, p> of a hyperboloid point."""
        return float(inner(self.normal, p))

    def key(self, ndigits=9):
        return tuple(sorted((round(self.end1.theta, ndigits) % 1.0,
                             round(self.end2.theta, ndigits) % 1.0)))

    def apply(self, m):
        return GeodesicH2(self.end1.apply(m), self.end2.apply(m))

    def __repr__(self):
        return "GeodesicH2(%.6f, %.6f)" % (self.end1.theta, self.end2.theta)


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


def leaves_of(pairs):
    """The LeafSet of (GeodesicH2, weight) pairs, in order."""
    return LeafSet.from_ends(np.array([g.end1.v for g, _ in pairs]).reshape(-1, 2),
                             np.array([g.end2.v for g, _ in pairs]).reshape(-1, 2),
                             [w for _, w in pairs])


def geodesic(leaves, i):
    """Row i of a LeafSet as a GeodesicH2 with the same end vectors."""
    return GeodesicH2(RP1Point.normalized(leaves.end1[i]), RP1Point.normalized(leaves.end2[i]))


def stable_lifts_by_increments(rep, mc, L, keep):
    """laminations.stable_lifts as a loop of unit increments from radius
    L, up to the cap, until two increments in a row select no new leaf;
    also the radius it stops at.  A class whose axis, its first lift, is
    a lift of another class is refused at every collect, as there."""

    def collect(radius):
        leaves = laminations.multicurve_lifts(rep, mc, radius)
        keys = [tuple(k) for k in laminations._leaf_keys(leaves.thetas).tolist()]
        classes = leaves.classes.tolist()
        for i in np.flatnonzero(leaves.first == 0).tolist():
            for j, key in enumerate(keys):
                if key == keys[i] and classes[j] != classes[i]:
                    words = [fuchsian.format_word(mc.curves[c][0])
                             for c in sorted((classes[i], classes[j]))]
                    raise ValueError("curves %s and %s have the same leaves: their classes "
                                     "are conjugate, up to inverse" % tuple(words))
        return leaves[keep(leaves)]

    radius = min(L, fuchsian.HARD_CAP)
    leaves = collect(radius)
    stable = 0
    while stable < 2:
        if radius >= fuchsian.HARD_CAP:
            raise fuchsian.EnumerationCapError(
                "leaf set did not stabilize at radius cap %d" % fuchsian.HARD_CAP)
        radius += 1
        nxt = collect(radius)
        stable = stable + 1 if len(nxt) == len(leaves) else 0
        leaves = nxt
    return leaves, radius


def margulis(coc, rep, w):
    """The Margulis invariant of the word w: <t_w, x0>, t_w the
    cocycle's translation and x0 the unit spacelike fixed vector of
    adjoint_to_so21(rep(w)), oriented so that det[x-, x+, x0] > 0, where
    x+ and x- are its future-pointing null eigenvectors of eigenvalue
    above and below 1.  Unchanged by conjugation and by a coboundary,
    it is the first variation of the length of w under the earthquake
    whose infinitesimal form the cocycle is (Goldman-Margulis)."""
    f = adjoint_to_so21(rep.evaluate(w))
    values, vectors = np.linalg.eig(f)
    below, fixed, above = (vectors[:, i].real for i in np.argsort(values.real))
    below, above = below * np.sign(below[2]), above * np.sign(above[2])
    fixed = fixed / math.sqrt(inner(fixed, fixed))
    if np.linalg.det(np.stack([below, above, fixed], axis=1)) < 0:
        fixed = -fixed
    return float(inner(coc.affine(w)[:3, 3].astype(float), fixed))


def tree_length(rep, mc, w, start=0.0):
    """The translation length of w on the tree dual to the lifted
    multicurve mc: the summed weights of the one mask row of
    lifted_crossings(rep, mc, b, rho(w) b, 3), with b = c (e^s u+ +
    e^-s u-) on w's axis, u+ and u- the null vectors of its attracting
    and repelling ends and c^2 = -1 / (2 <u+, u->).  s steps by 0.1
    from start until b is off every leaf; if no step is, w's axis is a
    leaf, and the length is 0."""
    g = rep.evaluate(w)
    plus, minus = null_vectors(np.stack(fuchsian.axis(g)[:2]))
    c = math.sqrt(-1.0 / (2.0 * float(inner(plus, minus))))
    for s in start + 0.1 * np.arange(8):
        b = c * (math.exp(s) * plus + math.exp(-s) * minus)
        try:
            leaves, mask = laminations.lifted_crossings(rep, mc, b, adjoint_to_so21(g) @ b, 3)
        except ValueError as exc:
            if "lies on a leaf" not in str(exc):
                raise
            continue
        return float(leaves.weights[mask[0]].sum())
    return 0.0


def cocycle_residual(rep, coc, alpha, beta, ball=None):
    """Norm of t_{alpha beta} - t_alpha - f(alpha) t_beta.

    The product word is replaced by its canonical ball representative
    when the product matrix is one of the ball's, within 1e-5 in every
    entry, so a cocycle that does not descend to the group (e.g. a
    perturbed one) shows a residual on pairs whose free concatenation is
    not the canonical representative.  Matrices, not words, decide here:
    an oracle apart from GroupBall.find.
    """
    alpha = reduce_word(alpha)
    beta = reduce_word(beta)
    prod = concat(alpha, beta)
    if ball is not None:
        near = np.abs(ball.elements - rep.evaluate(prod)).max(axis=(1, 2)) < 1e-5
        if near.any():
            prod = ball_words(ball)[int(np.argmax(near))]
    p, a, b = (coc.affine(w) for w in (prod, alpha, beta))
    res = p[:3, 3] - a[:3, 3] - a[:3, :3] @ b[:3, 3]
    return float(np.max(np.abs(res)))


def cocycle_identity_sweep_rows(coc, ball):
    """flatspace.cocycle_identity_sweep one row alpha at a time: one
    find of alpha times every element on the radius-2r ball, where the
    cocycle evaluated once gives t of each product."""
    A = ball.evaluate(coc)
    T, F = A[:, :3, 3], A[:, :3, :3]
    big = GroupBall(coc.rep, 2 * ball.radius)
    P = big.evaluate(coc)[:, :3, 3]
    worst = 0.0
    n = len(ball)
    for i in range(n):
        vals = P[big.find(np.full(n, i), np.arange(n))]
        worst = np.maximum(worst, np.max(np.abs(vals - (T[i] + T @ F[i].T))))
    return float(worst)


def nudge_off(pts, normals):
    """Each hyperboloid point within 1e-7 of a leaf plane (by normals)
    moved by (1e-5, 2e-5, 0) and back onto the hyperboloid until it is
    clear, at most 50 times, one point at a time; and which moved."""
    out, flags = [], []
    for p in pts:
        flag = False
        for _ in range(50):
            if np.all(np.abs(inner(normals, p)) > 1e-7):
                break
            p = p + np.array([1e-5, 2e-5, 0.0])
            p = p / math.sqrt(-float(inner(p, p)))
            flag = True
        out.append(p)
        flags.append(flag)
    return np.array(out).reshape(-1, 3), flags


def hull_obj(hull):
    """The OBJ of a HullComplex, each face's cycle ordered on its own:
    angles about the vertex mean in a basis of the face plane."""
    lines = ["# convex hull in affine chart; plane at infinity dual to"]
    lines.append("# %s" % np.array2string(hull.chart_plane, precision=9))
    index = {}
    for i in hull.vertex_ids:
        index[i] = len(index) + 1
        x, y, z = hull.chart_points[i]
        lines.append("v %.9f %.9f %.9f" % (x, y, z))
    for ids, n in zip(np.split(hull.faces.ids, hull.faces.start[1:-1]), hull.faces.normals):
        pts = hull.chart_points[ids]
        center = pts.mean(axis=0)
        a = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(a, n)) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        e1 = np.cross(n, a)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        ang = np.arctan2((pts - center) @ e2, (pts - center) @ e1)
        lines.append("f " + " ".join(str(index[ids[i]]) for i in np.argsort(ang)))
    return "\n".join(lines) + "\n"


def convexity_slack(hull):
    """HullComplex.convexity_slack with one matvec per face."""
    worst = 0.0
    for normal, offset in zip(hull.faces.normals, hull.faces.offsets.tolist()):
        slack = hull.chart_points @ normal + offset
        worst = min(worst, -float(np.max(slack)))
    return worst


def group_ball(rep, radius):
    """(elements, parent, letter, offsets) of the float-key ball that
    GroupBall was before its words were normal forms: one word per
    distinct matrix, each level's new keys (entries rounded to 6
    decimals) by `np.unique` (first occurrences) minus `np.isin` of the
    known ones.  On a faithful representation whose distinct elements
    round apart, its words are the shortlex normal forms."""
    digits = 6
    letters, steps = signed_letters(rep.genus), rep.steps
    mats, lets = np.eye(2)[None], np.array([0])
    levels = [(mats, np.array([-1]), lets)]
    keys = row_keys(mats.reshape(-1, 4), digits)
    offsets = [0, 1]
    for _ in range(radius):
        with np.errstate(over="ignore", invalid="ignore"):
            prods = (mats[:, None] @ steps[None]).reshape(-1, 2, 2)
        par = np.repeat(np.arange(len(mats)), len(letters))
        let = np.tile(letters, len(mats))
        reduced = lets[par] != -let
        prods, par, let = prods[reduced], par[reduced], let[reduced]
        refuse_unnormalizable(prods, "a product of the generators")
        prods = mat2_stack(prods)
        level_keys = row_keys(prods.reshape(-1, 4), digits)
        first = np.sort(np.unique(level_keys, return_index=True)[1])
        first = first[~np.isin(level_keys[first], keys)]
        mats, lets = prods[first], let[first]
        levels.append((mats, par[first] + offsets[-2], lets))
        keys = np.concatenate([keys, level_keys[first]])
        offsets.append(offsets[-1] + len(first))
    elements, parent, letter = (np.concatenate(a) for a in zip(*levels))
    return elements, parent, letter, offsets


def sample_conjugacy(ball, rep_r, dedup=1e-4):
    """sample_conjugacy's graph from a built ball: both representations'
    attracting fixed points on every row, sorted by (left, right), then
    the greedy dedup loop over (left, right) pairs and a loop that
    refuses any right angle stepping back from the one before."""
    thetas = np.stack([attracting_thetas([ball.elements[1:]]),
                       attracting_thetas([ball.evaluate(rep_r)[1:]])], axis=1)
    kept = []
    for tl, tr in thetas[np.lexsort((thetas[:, 1], thetas[:, 0]))].tolist():
        if kept and tl - kept[-1][0] < dedup:
            continue
        kept.append((tl, tr))
    if len(kept) > 1 and (kept[0][0] - kept[-1][0]) % 1.0 < dedup:
        kept.pop()
    for (_, before), (_, tr) in zip(kept, kept[1:]):
        if (tr - before + 0.5) % 1.0 - 0.5 < 0:
            raise ValueError("conjugacy samples are not cyclically monotone")
    return CircleGraph(kept)


def is_monotone_rows(samples, tol=1e-12):
    """CircleMap.is_monotone over Python lists: the (source, image)
    samples sorted as tuples, the image steps around the circle, their
    sum by Python's sum."""
    outs = [b for _, b in sorted(np.asarray(samples).tolist())]
    steps = [(b - a) % 1.0 for a, b in zip(outs, outs[1:] + outs[:1])]
    return len(outs) < 3 or (abs(sum(steps) - 1.0) < 1e-6 and max(steps) < 1.0 - tol)


def steep_graph_rows(seed, n=20):
    """A monotone graph whose steps are u^10 for uniform u: most steps
    are tiny, so runs of samples hug a ruling and the hull has null
    future faces, whose edges carry no bending weight."""
    s = np.cumsum(np.random.default_rng(seed).random((n, 2)) ** 10, axis=0)
    return ["%r,%r" % (a, b) for a, b in (s / s[-1] * 0.999).tolist()]
