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
from .fuchsian import Representation, concat, letter_step, reduce_word, signed_letters
from .minkowski import (
    LorentzIsometry,
    adjoint_to_so21,
    boost_y_axis,
    hyperboloid_normalize,
    inner,
    mat2_stack,
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
    the values descend to the group; cocycle_residual samples the same
    question on canonical ball representatives.
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


def zero_cocycle(rep):
    return TranslationCocycle(rep, [np.zeros(3)] * (2 * rep.genus))


def coboundary_cocycle(rep, v):
    """t_g = v - f(g) v, exact on the group by telescoping."""
    v = np.asarray(v, dtype=float)
    return TranslationCocycle(rep, v - adjoint_to_so21(rep.generators) @ v)


def cocycle_from_lamination(rep, mc, basepoint=None, L=3):
    """t_g = transverse vector from the basepoint to its g-image."""
    if basepoint is None:
        basepoint = lam.default_basepoint(rep, mc, L)
    vecs = [lam.transverse_vector(rep, mc, basepoint, q, L)
            for q in adjoint_to_so21(rep.generators) @ basepoint]
    return TranslationCocycle(rep, vecs, basepoint)


def cocycle_residual(rep, coc, alpha, beta, ball=None):
    """Norm of t_{alpha beta} - t_alpha - f(alpha) t_beta.

    The product word is replaced by its canonical ball representative
    when the product matrix is found in the ball, so a cocycle that does
    not descend to the group (e.g. a perturbed one) shows a residual on
    pairs whose free concatenation is not the canonical representative.
    """
    alpha = reduce_word(alpha)
    beta = reduce_word(beta)
    prod = concat(alpha, beta)
    if ball is not None:
        hit = ball.lookup(rep.evaluate(prod))
        if hit is not None:
            prod = hit[0]
    p, a, b = (coc.affine(w) for w in (prod, alpha, beta))
    res = p[:3, 3] - a[:3, 3] - a[:3, :3] @ b[:3, 3]
    return float(np.max(np.abs(res)))


def cocycle_identity_sweep(rep, coc, ball):
    """Max cocycle-identity residual over all word pairs of the ball.

    Equivalent to looping cocycle_residual over every pair, but batched:
    product matrices are formed in one matmul per row and resolved to
    canonical ball representatives in one ball.find call per row.  The
    free concatenations of the other pairs are folded in one batch per row.
    """
    # extended precision throughout: the three terms are exponentially
    # large in word length and cancel to near machine zero
    A = ball.evaluate(coc)
    T, F = A[:, :3, 3], A[:, :3, :3]
    words = np.zeros((len(ball), ball.radius), dtype=int)
    for i, w in enumerate(ball.words()):
        words[i, :len(w)] = w
    worst = 0.0
    for i in range(len(ball)):
        hits = ball.find(ball.elements[i] @ ball.elements)
        vals = T[hits]
        free = np.flatnonzero(hits < 0)
        betas = words[free]
        # walk up from alpha while its last letter cancels beta's next
        start, cut = np.full(len(free), i), np.zeros(len(free), dtype=int)
        for k in range(ball.radius):
            up = (cut == k) & (betas[:, k] != 0) & (ball.letter[start] == -betas[:, k])
            start, cut = np.where(up, ball.parent[start], start), cut + up
        cur = A[start]
        for pos in range(ball.radius):
            live = np.flatnonzero((pos >= cut) & (betas[:, pos] != 0))
            cur[live] = cur[live] @ coc.steps()[letter_step(betas[live, pos])]
        vals[free] = cur[:, :3, 3]
        base = T[i] + T @ F[i].T
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
    the normal closure, and t_{g n} = t_g there.  The ball sweeps
    (cocycle_residual, cocycle_identity_sweep) only sample this on the
    pairs whose product has a shorter canonical representative.
    """
    return float(np.max(np.abs(coc.affine(rep.relator())[:3, 3])))


def cyclic_boost_cocycle(lam_, weight, L=1):
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
    return lam.transverse_vector(rep, mc, p, q, L)


class DevelopedSurfacePatch:
    """Samples of the deformed development f(p) = p + x(p)."""

    def __init__(self, points, xvals, perturbed):
        self.points = np.asarray(points, dtype=float)
        self.xvals = np.asarray(xvals, dtype=float)
        self.fvals = self.points + self.xvals
        self.perturbed = list(perturbed)

    def __len__(self):
        return len(self.points)

    def region_translations(self, ndigits=7):
        """Unique x values over the sampled complementary regions."""
        seen = {}
        for x in self.xvals:
            seen.setdefault(tuple(np.round(x, ndigits)), np.asarray(x))
        return list(seen.values())


def develop_surface(rep, mc, radius=1.5, density=200, basepoint=None, L=3, seed=0):
    """Sample the deformed development over a hyperbolic disc.

    Points are area-uniform in the disc of hyperbolic radius `radius`
    about the basepoint; samples within tolerance of a leaf plane are
    nudged off it and flagged.
    """
    if basepoint is None:
        basepoint = lam.default_basepoint(rep, mc, L)

    # |<n, b>| = sinh(distance from b to the leaf), so the cutoff below
    # keeps exactly the leaves within reach of the samples
    reach = math.sinh(radius + 0.5)
    leaves = lam.stable_lifts(
        rep, mc, L, lambda lv: np.abs(inner(lv.normals, basepoint)) < reach)

    rng = np.random.default_rng(seed)
    boost = _transport_to(basepoint)
    pts, flags = [], []
    for _ in range(density):
        u, v = rng.random(), rng.random()
        d = math.acosh(1.0 + (math.cosh(radius) - 1.0) * u)
        ang = 2.0 * math.pi * v
        # walk distance d from the apex, then recenter at the basepoint
        p = np.array([math.sinh(d) * math.cos(ang), math.sinh(d) * math.sin(ang), math.cosh(d)])
        p = boost @ p
        flag = False
        for _ in range(50):
            if np.all(np.abs(inner(leaves.normals, p)) > 1e-7):
                break
            p = hyperboloid_normalize(p + np.array([1e-5, 2e-5, 0.0]))
            flag = True
        pts.append(p)
        flags.append(flag)
    pts = np.array(pts).reshape(-1, 3)

    s0 = inner(leaves.normals, basepoint)
    crossed = s0 * inner(pts[:, None], leaves.normals) < 0
    xvals = np.zeros((len(pts), 3))
    # leaf by leaf, so each sample sums its crossed normals in leaf order;
    # -sign(s0) orients each normal away from the basepoint side
    for n, w, s, hit in zip(leaves.normals, leaves.weights, s0, crossed.T):
        xvals[hit] += w * -np.sign(s) * n
    return DevelopedSurfacePatch(pts, xvals, flags)


def _transport_to(b):
    """A Lorentz boost carrying the apex to the hyperboloid point b."""
    b = np.asarray(b, dtype=float)
    x, y, t = b
    r2 = x * x + y * y
    if r2 < 1e-30:
        return np.eye(3)
    A = np.eye(3)
    A[0, 0] = 1.0 + x * x * (t - 1.0) / r2
    A[0, 1] = x * y * (t - 1.0) / r2
    A[1, 0] = A[0, 1]
    A[1, 1] = 1.0 + y * y * (t - 1.0) / r2
    A[0, 2] = x
    A[1, 2] = y
    A[2, 0] = x
    A[2, 1] = y
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
        # math.acosh and math.exp per value: numpy's differ in the last bit
        d = np.array([math.acosh(c) if c > 1.0 else 0.0
                      for c in (-inner(patch.points[i], patch.points[j])).tolist()])
        keep = (i != j) & (d >= 1e-8)
        i, j, d = i[keep], j[keep], d[keep]
        fp = np.array([math.exp(x) for x in d.tolist()]).reshape(-1, 1) * patch.points[i]
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


class NullSupportPlane:
    """Half-space {<normal, y> >= offset} with null normal, oriented so
    the intersection over all planes is future-complete."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        self.normal = np.asarray(normal, dtype=float)
        self.offset = float(offset)

    def contains(self, y, tol=0.0):
        return float(inner(self.normal, y)) >= self.offset - tol


def support_planes(patch, count=64):
    """One null support plane per sampled null direction.

    For the future direction n(phi) = (cos phi, sin phi, 1) the domain
    lies in {<n, y> < max_r <n, x_r>} over the region translations x_r;
    stored with the normal negated so membership reads >= offset.
    """
    regions = patch.region_translations()
    out = []
    for k in range(count):
        phi = 2.0 * math.pi * k / count
        n = np.array([math.cos(phi), math.sin(phi), 1.0])
        c = max(float(inner(n, x)) for x in regions)
        out.append(NullSupportPlane(-n, -c))
    return out


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
