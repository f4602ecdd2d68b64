"""Flat 2+1 spacetimes from weighted multicurves.

Translation cocycles deform the linear holonomy f to the affine action
rho(g) x = f(g) x + t_g.  The deformed development of the hyperboloid is
f(p) = p + x(p) where x(p) is the transverse vector from the basepoint
region to p; the resulting surface's domain of dependence is cut out by
null support planes, one per null direction, whose offsets are the
maxima over the translated complementary regions.  The cyclic and torus
model spacetimes are provided explicitly.
"""

from __future__ import annotations

import math

import numpy as np

from . import laminations as lam
from .fuchsian import Representation, letter_step, reduce_word, signed_letters
from .minkowski import (
    LorentzIsometry,
    adjoint_to_so21,
    boost_y_axis,
    hyperboloid_normalize,
    inner,
    mat2_stack,
    per_value,
)


def cyclic_boost_rep(lam_):
    """The cyclic group of the boost T(lam) fixing the spacelike y-axis,
    packaged as a (degenerate) genus-1 representation with second
    generator the identity so word machinery applies."""
    c, s = math.cosh(lam_ / 2), math.sinh(lam_ / 2)
    return Representation(1, [np.array([[c, -s], [-s, c]]), np.eye(2)])


class TranslationCocycle:
    """Affine holonomy w -> (f(w), t_w) with t_{ab} = t_a + f(a) t_b.

    Stored as one augmented step [[f(x), t_x], [0, 1]] per signed letter,
    folded along words (GroupBall.evaluate), so the cocycle identity
    holds identically on free words.  relator_residual decides whether
    the values descend to the group; cocycle_identity_sweep samples the
    same question on canonical ball representatives.
    """

    def __init__(self, rep, gen_vectors, basepoint=None):
        if len(gen_vectors) != 2 * rep.genus:
            raise ValueError("expected one vector per generator")
        self.genus = rep.genus
        # extended precision: word extensions multiply by linear parts
        # whose norms grow exponentially in word length, and the cocycle
        # identity is checked to absolute (not relative) tolerance
        self.gen_vectors = np.array(gen_vectors, dtype=np.longdouble).reshape(-1, 3)
        self.basepoint = basepoint
        # linear parts as rep.evaluate((x,)) folds them, normalized once more
        f = adjoint_to_so21(mat2_stack(np.eye(2) @ rep.steps())).astype(np.longdouble)
        t = self.gen_vectors.repeat(2, axis=0)
        inverse = signed_letters(self.genus) < 0
        t[inverse] = -(f[inverse] @ t[inverse, :, None])[:, :, 0]
        self._steps = np.zeros((4 * rep.genus, 4, 4), dtype=np.longdouble)
        self._steps[:, :3, :3], self._steps[:, :3, 3], self._steps[:, 3, 3] = f, t, 1

    def steps(self):
        return self._steps

    def affine(self, w):
        """The augmented 4x4 holonomy along the reduced word w, folded
        from the left; its last column holds t_w, its top left f(w)."""
        out = np.eye(4, dtype=np.longdouble)
        for x in reduce_word(w):
            out = out @ self._steps[letter_step(x)]
        return out

    def to_json(self):
        return {"t": [[float(v) for v in t] for t in self.gen_vectors]}


def cocycle_from_lamination(rep, mc, L=3):
    """t_g = transverse vector from the default basepoint to its
    g-image, for the 2g generators in one crossing record."""
    basepoint = lam.default_basepoint(rep, mc, L)
    targets = adjoint_to_so21(rep.generators) @ basepoint
    return TranslationCocycle(rep, lam.transverse_vector(rep, mc, basepoint, targets, L),
                              basepoint)


# word pairs per batch of the identity sweep: a bound on its memory
SWEEP_BLOCK = 1024


def cocycle_identity_sweep(rep, coc, ball):
    """Max cocycle-identity residual over all word pairs of the ball.

    Equivalent to looping the pairwise residual (tests/reference.py's
    cocycle_residual) over every pair, but batched over blocks of rows
    alpha, at most SWEEP_BLOCK pairs each: the products are resolved to
    their normal forms in the ball by one ball.find call per block.  The
    free concatenations of the other pairs are folded in one batch per
    block.
    """
    # extended precision throughout: the three terms are exponentially
    # large in word length and cancel to near machine zero
    A = ball.evaluate(coc)
    # a NaN in T or F reaches every residual below (T @ F^T spreads it to
    # every component, np.maximum carries it), so the sweep is decided
    if np.isnan(A).any():
        return math.nan
    T, F = A[:, :3, 3], A[:, :3, :3]
    n = len(ball)
    words = ball.words()
    worst = 0.0
    rows = max(1, SWEEP_BLOCK // n)
    for lo in range(0, n, rows):
        alphas = np.arange(lo, min(lo + rows, n))
        hits = ball.find(alphas.repeat(n), np.tile(np.arange(n), len(alphas)))
        vals = T[hits]
        free = np.flatnonzero(hits < 0)
        betas = words[free % n]
        # walk up from alpha while its last letter cancels beta's next
        start, cut = alphas[free // n], np.zeros(len(free), dtype=int)
        for k in range(ball.radius):
            up = (cut == k) & (betas[:, k] != 0) & (ball.letter[start] == -betas[:, k])
            start, cut = np.where(up, ball.parent[start], start), cut + up
        cur = A[start]
        for pos in range(ball.radius):
            live = np.flatnonzero((pos >= cut) & (betas[:, pos] != 0))
            cur[live] = cur[live] @ coc.steps()[letter_step(betas[live, pos])]
        vals[free] = cur[:, :3, 3]
        base = (T[alphas, None] + T @ F[alphas].swapaxes(1, 2)).reshape(-1, 3)
        # np.maximum, unlike max(), carries a NaN residual through
        worst = np.maximum(worst, np.max(np.abs(vals - base)))
    return float(worst)


def relator_residual(rep, coc):
    """Max norm of t_r, the cocycle's value on the surface relator r.

    This is the deciding descent check.  A TranslationCocycle lives on
    the free group on the generators, where the cocycle identity holds
    by construction.  When f(r) = I (a valid representation), it
    descends to the surface group exactly when t_r = 0: then
    t_{g r g^-1} = f(g) t_r vanishes on every conjugate of r, hence on
    the normal closure, and t_{g n} = t_g there.  The ball sweep
    (cocycle_identity_sweep) only samples this on the pairs whose
    product has a shorter canonical representative.
    """
    return float(np.max(np.abs(coc.affine(rep.relator())[:3, 3])))


def cyclic_boost_cocycle(lam_, weight):
    """Displacement across the weighted axis leaf of the boost T(lam):
    the transverse vector between mirror points on the two sides of the
    axis plane {y = 0}.  This is the translation part (0, weight, 0) of
    the corresponding model spacetime holonomy; the word cocycle of the
    boost generator itself vanishes since the generator path never
    crosses its own axis."""
    rep = cyclic_boost_rep(lam_)
    mc = lam.WeightedMulticurve([((1,), weight)])
    p = hyperboloid_normalize(np.array([0.1, -0.4, 1.2]))
    q = hyperboloid_normalize(np.array([0.1, 0.4, 1.2]))
    return lam.transverse_vector(rep, mc, p, q, 1)


class DevelopedSurfacePatch:
    """Samples of the deformed development f(p) = p + x(p)."""

    def __init__(self, points, xvals, perturbed):
        self.points = np.asarray(points, dtype=float)
        self.xvals = np.asarray(xvals, dtype=float)
        self.fvals = self.points + self.xvals
        self.perturbed = np.asarray(perturbed, dtype=bool)

    def __len__(self):
        return len(self.points)


def develop_surface(rep, mc, density=200, L=3, seed=0):
    """Sample the deformed development over a hyperbolic disc.

    Points are area-uniform in the disc of hyperbolic radius 1.5 about
    the default basepoint; samples within tolerance of a leaf plane are
    nudged off it and flagged.
    """
    basepoint = lam.default_basepoint(rep, mc, L)

    # |<n, b>| = sinh(distance from b to the leaf), so the cutoff below
    # keeps exactly the leaves within 0.5 of the samples' disc
    reach = math.sinh(2.0)
    leaves = lam.stable_lifts(
        rep, mc, L, lambda lv: np.abs(inner(lv.normals, basepoint)) < reach)

    # one (u, v) row per sample reads the stream as draws of u then v do
    u, v = np.random.default_rng(seed).random((density, 2)).T
    d = per_value(math.acosh, 1.0 + (math.cosh(1.5) - 1.0) * u)
    ang = 2.0 * math.pi * v
    # walk distance d from the apex, then recenter at the basepoint by a
    # stacked matvec, which keeps the bits of one product per point
    sinh = per_value(math.sinh, d)
    walk = np.stack([sinh * per_value(math.cos, ang), sinh * per_value(math.sin, ang),
                     per_value(math.cosh, d)], axis=1)
    pts, flags = _nudge_off((_transport_to(basepoint) @ walk[:, :, None])[:, :, 0],
                            leaves.normals)

    xvals = lam.transverse_sum(*lam.crossing_record(leaves, basepoint, pts))
    return DevelopedSurfacePatch(pts, xvals, flags)


def _nudge_off(pts, normals):
    """The (N, 3) hyperboloid points with each one within 1e-7 of a leaf
    plane (by normals) moved by (1e-5, 2e-5, 0) and back onto the
    hyperboloid until it is clear, at most 50 times; and which moved."""
    pts, flags = pts.copy(), np.zeros(len(pts), dtype=bool)
    rows = np.arange(len(pts))
    for _ in range(50):
        rows = rows[~(np.abs(inner(normals, pts[rows, None])) > 1e-7).all(axis=1)]
        if not len(rows):
            break
        pts[rows] = hyperboloid_normalize(pts[rows] + np.array([1e-5, 2e-5, 0.0]))
        flags[rows] = True
    return pts, flags


def _transport_to(b):
    """A Lorentz boost carrying the apex to the hyperboloid point b:
    the identity plus (t - 1) / r^2 u u^T on the spatial part u = (x, y)."""
    x, y, t = np.asarray(b, dtype=float)
    r2 = x * x + y * y
    if r2 < 1e-30:
        return np.eye(3)
    A = np.outer([x, y, 0.0], [x, y, 0.0]) * (t - 1.0) / r2
    A[[0, 1], [0, 1]] += 1.0
    A[:2, 2] = A[2, :2] = x, y
    A[2, 2] = t
    return A


def injectivity_gap(patch, max_pairs=20000, seed=1):
    """Minimum of <f(p')-f(q), f(p')-f(q)> over null-separated pairs.

    Hyperboloid points are mutually spacelike, so null pairs are built
    by scaling: p' = e^d p is null-separated from q when d = d_H2(p, q),
    and x is constant along rays so f(p') = e^d p + x(p).
    """
    m = len(patch)
    if m < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    gap, count = math.inf, 0
    while count < max_pairs:
        # a (k, 2) draw reads the stream as k draws of two do; a pair of
        # one sample twice, or of points closer than 1e-8, is redrawn
        i, j = rng.integers(0, m, size=(max_pairs - count, 2)).T
        d = per_value(math.acosh, np.fmax(-inner(patch.points[i], patch.points[j]), 1.0))
        keep = (i != j) & (d >= 1e-8)
        i, j, d = i[keep], j[keep], d[keep]
        fp = per_value(math.exp, d)[:, None] * patch.points[i]
        diff = fp + patch.xvals[i] - patch.fvals[j]
        gap = min(gap, float(np.nanmin(inner(diff, diff), initial=math.inf)))
        count += len(d)
    return gap


def graph_slope_check(patch):
    """Max |dt| / |(dx, dy)| over sampled pairs of developed points;
    below 1 exactly when the surface is the graph of a contraction."""
    f = patch.fvals
    worst = 0.0
    for i in range(len(f) - 1):
        d = f[i + 1:] - f[i]
        horiz = np.hypot(d[:, 0], d[:, 1])
        if np.any(horiz < 1e-12):
            raise ValueError("coincident horizontal projections")
        worst = max(worst, float(np.max(np.abs(d[:, 2]) / horiz)))
    return worst


def support_planes(patch):
    """(64, 3) normals and (64,) offsets of one null support plane
    {<normal, y> >= offset} per sampled null direction.

    For the future direction n(phi) = (cos phi, sin phi, 1) the domain
    lies in {<n, y> < max_r <n, x_r>} over the sampled translations x_r;
    stored with the normal negated so membership reads >= offset.
    """
    phi = 2.0 * math.pi * np.arange(64) / 64
    n = np.stack([per_value(math.cos, phi), per_value(math.sin, phi), np.ones(64)], axis=1)
    return -n, -inner(n[:, None], patch.xvals).max(axis=1)


class CyclicSingularitySegment:
    """Spacelike segment of base points of the null boundary rays of a
    cyclic spacetime."""

    def __init__(self, r, q):
        self.r = np.asarray(r, dtype=float)
        self.q = np.asarray(q, dtype=float)

    @property
    def length(self):
        d = self.q - self.r
        s = float(inner(d, d))
        if s < 0:
            raise ValueError("segment is not spacelike")
        return math.sqrt(s)


def cyclic_initial_singularity(lam_, weight):
    """Initial singularity of the cyclic spacetime of boost T(lam) with
    its axis weighted: the segment between the base region's translation
    (zero) and the far region's translation across the leaf."""
    if lam_ <= 0 or weight < 0:
        raise ValueError("need lam > 0 and weight >= 0")
    if weight == 0:
        return CyclicSingularitySegment(np.zeros(3), np.zeros(3))
    return CyclicSingularitySegment(np.zeros(3), cyclic_boost_cocycle(lam_, weight))


class StandardTorusSpacetime:
    """Quotient data of {t^2 > x^2, t > 0} by two commuting isometries
    A = (T(lam), (0,e,0)) and B = (T(mu), (0,f,0))."""

    def __init__(self, lam_, e, mu, f):
        if abs(lam_ * f - mu * e) < 1e-12:
            raise ValueError("(lam, e) and (mu, f) must be independent")
        self.A = LorentzIsometry(boost_y_axis(lam_), np.array([0.0, e, 0.0]))
        self.B = LorentzIsometry(boost_y_axis(mu), np.array([0.0, f, 0.0]))

    @staticmethod
    def contains(p):
        p = np.asarray(p, dtype=float)
        return p[2] > 0 and p[2] * p[2] > p[0] * p[0]
