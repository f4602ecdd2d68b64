"""Anti-de Sitter space as the projective quadric model.

Projective coordinates (a, b, c, d) on RP^3 carry the signature (2,2)
form q = ad - bc.  The quadric q = 0 is the boundary; the region q > 0
is anti-de Sitter space, identified with PSL(2,R) by reading (a,b,c,d)
as the matrix [[a,b],[c,d]] normalized to determinant 1.  The quadric
is doubly ruled; the rulings identify it with RP^1 x RP^1, and graphs
of monotone circle maps embed as nowhere-timelike curves on it.

Planes are labelled by their dual points: the plane of label m consists
of the points v with <m, v> = 0 for the polarized form of q.  Convex
hulls of circle-map graphs are computed in an affine chart whose plane
at infinity is a disjoint spacelike plane, and the future boundary
faces yield the left earthquake with the graph as boundary value.
"""

from __future__ import annotations

import math

import numpy as np

from .fuchsian import GroupBall, Mat2
from .minkowski import RP1Point, adjugate, finite, rp1_from_thetas, rp1_stack
from .quakes import CircleMap

EPS = 1e-9

# derivative at 0 of the rotation subgroup [[cos t, sin t], [-sin t, cos t]];
# its right-multiplication flow is the time orientation of AdS
ROTATION_GENERATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])


def qform(v):
    """The signature (2,2) form q(a,b,c,d) = ad - bc."""
    v = np.asarray(v, dtype=float)
    return v[..., 0] * v[..., 3] - v[..., 1] * v[..., 2]


def qpair(u, v):
    """Polarization of q: qpair(v, v) = qform(v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return 0.5 * (u[..., 0] * v[..., 3] + u[..., 3] * v[..., 0]
                  - u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1])


def mat_of(v):
    v = np.asarray(v, dtype=float)
    return v.reshape(2, 2)


def vec_of(m):
    if isinstance(m, Mat2):
        m = m.m
    return np.asarray(m, dtype=float).reshape(4)


def segre(left, right):
    """Quadric point of a ruling pair: ((X1:Y1),(X2:Y2)) goes to
    (X1 X2 : X1 Y2 : Y1 X2 : Y1 Y2), i.e. the rank-one matrix l r^T."""
    l = left.v if isinstance(left, RP1Point) else np.asarray(left, dtype=float)
    r = right.v if isinstance(right, RP1Point) else np.asarray(right, dtype=float)
    if np.max(np.abs(l)) == 0 or np.max(np.abs(r)) == 0:
        raise ValueError("ruling coordinates must be nonzero")
    return vec_of(np.outer(l, r))


def rulings_of(p):
    """Ruling coordinates of a quadric point: left = (A:C) = (B:D) and
    right = (A:B) = (C:D), returned as RP1Points."""
    p = np.asarray(p, dtype=float)
    scale = float(np.dot(p, p))
    if scale == 0 or abs(qform(p)) > EPS * scale:
        raise ValueError("point is not on the quadric")
    a, b, c, d = p
    left_ac, left_bd = np.array([a, c]), np.array([b, d])
    left = RP1Point(left_ac if np.dot(left_ac, left_ac) >= np.dot(left_bd, left_bd)
                    else left_bd)
    right_ab, right_cd = np.array([a, b]), np.array([c, d])
    right = RP1Point(right_ab if np.dot(right_ab, right_ab) >= np.dot(right_cd, right_cd)
                     else right_cd)
    return left, right


class ProjectivePlane:
    """Plane in RP^3 labelled by its dual point with respect to q.

    The plane of label (e:f:g:h) is {v : qpair(label, v) = 0}; it is
    spacelike, null or Lorentzian according as eh - gf is positive,
    zero or negative.
    """

    def __init__(self, label):
        label = vec_of(label)
        n = float(np.max(np.abs(label)))
        if n == 0:
            raise ValueError("zero label is not a plane")
        self.label = label / n

    def incidence(self, v):
        return float(qpair(self.label, vec_of(v)))

    def classify(self, eps=EPS):
        q = float(qform(self.label))
        scale = float(np.dot(self.label, self.label))
        if q > eps * scale:
            return "spacelike"
        if q < -eps * scale:
            return "lorentzian"
        return "null"

    def dual_point(self):
        """Pole of the plane: the label itself.  Lies in AdS iff the
        plane is spacelike, on the quadric iff it is null."""
        return self.label.copy()

    def dual_mat2(self):
        """Determinant-one matrix representative of the dual point of a
        spacelike plane."""
        q = float(qform(self.label))
        if q <= 0:
            raise ValueError("plane is not spacelike")
        return Mat2(mat_of(self.label) / math.sqrt(q))

    def __repr__(self):
        return "ProjectivePlane(%s)" % np.array2string(self.label, precision=6)


def chart_coords(v):
    """Standard affine chart (X, Y, Z) = (y/w, z/w, u/w) with
    w = (a+d)/2, z = (a-d)/2, y = (b+c)/2, u = (b-c)/2.  The quadric
    becomes X^2 + Y^2 = Z^2 + 1 and the plane at infinity {w = 0} is
    the plane dual to the identity matrix."""
    v = np.asarray(v, dtype=float)
    a, b, c, d = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    w = 0.5 * (a + d)
    return np.stack([0.5 * (b + c) / w, 0.5 * (a - d) / w, 0.5 * (b - c) / w], axis=-1)


def chart_quadric_point(X, Y, Z):
    """Quadric point with given standard-chart coordinates (requires
    X^2 + Y^2 = Z^2 + 1)."""
    v = np.array([1.0 + Y, X + Z, X - Z, 1.0 - Y])
    if abs(qform(v)) > 1e-9 * float(np.dot(v, v)):
        raise ValueError("coordinates are not on the quadric")
    return v


def plane_z_equals(k):
    """The plane {Z = k} of the standard chart, dual to [[-k,1],[-1,-k]]."""
    return ProjectivePlane(np.array([-k, 1.0, -1.0, -k]))


class CircleGraph:
    """Sampled graph of a monotone circle map on the quadric.

    Samples are (theta_left, theta_right) pairs; the quadric point of a
    sample is the Segre image of the two RP^1 points.
    """

    def __init__(self, samples):
        if len(samples) < 3:
            raise ValueError("need at least 3 samples")
        self.samples = [(float(a) % 1.0, float(b) % 1.0) for a, b in samples]
        self.samples.sort()
        self._points = None

    def __len__(self):
        return len(self.samples)

    def points(self):
        """(N, 4) array of quadric points, one per sample, with
        representative signs aligned along the curve so that incidence
        sign patterns are meaningful."""
        if self._points is None:
            tl, tr = zip(*self.samples)
            l, r = rp1_from_thetas(tl), rp1_from_thetas(tr)
            raw = (l[:, :, None] * r[:, None, :]).reshape(-1, 4)
            # a point is negated when its dot product with the previous
            # signed point is negative: a running product of the signs of
            # consecutive raw dot products (the stacked matmul equals
            # np.dot bit for bit), restarted at +1 after an exact zero
            dots = (raw[1:, None, :] @ raw[:-1, :, None])[:, 0, 0]
            flips = np.concatenate([[0], np.cumsum(dots < 0)])
            restart = np.concatenate([[True], ~((dots < 0) | (dots > 0))])
            start = np.maximum.accumulate(np.where(restart, np.arange(len(raw)), 0))
            self._points = raw * np.where((flips - flips[start]) % 2 == 1, -1.0, 1.0)[:, None]
        return self._points

    def is_monotone(self, tol=1e-9):
        return CircleMap(self.samples).is_monotone(tol)

    def is_planar(self, tol=1e-9):
        """True iff all sample points lie on one projective plane."""
        pts = self.points()
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        s = np.linalg.svd(pts, compute_uv=False)
        return s[-1] < tol * s[0]

    def spacelike_consecutive(self, tol=1e-12):
        """Consecutive samples must be mutually spacelike on the quadric,
        which for graph points means both ruling coordinates step in the
        same direction."""
        s = np.array(self.samples)
        step = (np.roll(s, -1, axis=0) - s + 0.5) % 1.0 - 0.5
        return not np.any(step[:, 0] * step[:, 1] < -tol)

    def to_csv_rows(self):
        return ["%.12f,%.12f" % s for s in self.samples]

    @classmethod
    def from_csv_rows(cls, rows):
        samples = []
        for row in rows:
            row = row.strip()
            if not row or row.startswith("#"):
                continue
            a, b = row.split(",")
            samples.append((float(a), float(b)))
        finite(samples, "graph samples")
        return cls(samples)


def _scan_z_family(pts, cap):
    scale = np.linalg.norm(pts, axis=1)
    k = 0.25
    for _ in range(cap):
        for kk in (k, -k):
            label = np.array([-kk, 1.0, -1.0, -kk])
            inc = qpair(label, pts)
            margin = 1e-9 * np.linalg.norm(label) * scale
            if np.all(inc > margin) or np.all(inc < -margin):
                return label
        k *= 1.25
    return None


def disjoint_spacelike_plane(graph, cap=120):
    """A spacelike plane with constant-sign incidence on all graph
    samples: the planes {Z = k} of the standard chart are scanned
    outward in |k|; if that family is exhausted the graph is first
    recentered so that the plane through three spread samples becomes
    the standard plane."""
    pts = graph.points()
    label = _scan_z_family(pts, cap)
    if label is not None:
        return ProjectivePlane(label)
    n = len(graph)
    idx = [n // 6, n // 2, (5 * n) // 6]
    tri = pts[idx] / np.linalg.norm(pts[idx], axis=1, keepdims=True)
    rows = 0.5 * np.stack([tri[:, 3], -tri[:, 2], -tri[:, 1], tri[:, 0]], axis=1)
    _, _, vt = np.linalg.svd(rows)
    p0 = ProjectivePlane(vt[-1])
    if p0.classify() != "spacelike":
        raise RuntimeError("no disjoint spacelike plane found")
    g = ROTATION_GENERATOR @ np.linalg.inv(p0.dual_mat2().m)
    tpts = np.einsum("ij,njk->nik", g, pts.reshape(-1, 2, 2)).reshape(-1, 4)
    label = _scan_z_family(tpts, cap)
    if label is None:
        raise RuntimeError("no disjoint spacelike plane found")
    return ProjectivePlane(np.linalg.inv(g) @ mat_of(label))


class HullFace:
    """Merged planar face of a hull: plane data plus its vertex cycle."""

    __slots__ = ("plane", "normal", "offset", "vertex_ids", "future", "dual")

    def __init__(self, plane, normal, offset, vertex_ids, future):
        self.plane = plane
        self.normal = normal
        self.offset = offset
        self.vertex_ids = vertex_ids
        self.future = future
        self.dual = plane.dual_mat2() if plane.classify() == "spacelike" else None


class BendingDatum:
    """Edge between two adjacent faces with its dual-point distance."""

    __slots__ = ("face_i", "face_j", "shared_vertex_ids", "weight")

    def __init__(self, face_i, face_j, shared_vertex_ids, weight):
        self.face_i = face_i
        self.face_j = face_j
        self.shared_vertex_ids = shared_vertex_ids
        self.weight = weight

    def __repr__(self):
        return "BendingDatum(%d, %d, w=%s)" % (self.face_i, self.face_j, self.weight)


class HullComplex:
    """Convex hull of a circle graph in an affine chart.

    Fields: the graph, the chart plane (points are transported by
    v -> m^{-1} v, m its dual, before taking the standard chart), the
    chart coordinates of all samples, the merged faces, and the vertex
    ids that are hull vertices.  Flat (planar) graphs produce a complex
    with flat = True, a single plane, and no faces.
    """

    def __init__(self, graph, chart_plane, chart_points,
                 faces, vertex_ids, flat=False, flat_plane=None):
        self.graph = graph
        self.chart_plane = chart_plane
        self.chart_points = chart_points
        self.faces = faces
        self.vertex_ids = vertex_ids
        self.flat = flat
        self.flat_plane = flat_plane

    def future_faces(self):
        return [f for f in self.faces if f.future]

    def past_faces(self):
        return [f for f in self.faces if not f.future]

    def vertex_on_quadric_error(self):
        pts = self.graph.points()
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        if len(self.vertex_ids) == 0:
            return 0.0
        return float(np.max(np.abs(qform(pts[self.vertex_ids]))))

    def convexity_slack(self):
        """Most negative signed distance of any vertex inside any face
        half-space (0 for an exactly convex complex)."""
        worst = 0.0
        for f in self.faces:
            slack = self.chart_points @ f.normal + f.offset
            worst = min(worst, -float(np.max(slack)))
        return worst

    def _ordered_cycle(self, face):
        ids = face.vertex_ids
        pts = self.chart_points[ids]
        center = pts.mean(axis=0)
        n = face.normal
        a = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(a, n)) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        e1 = np.cross(n, a)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        ang = np.arctan2((pts - center) @ e2, (pts - center) @ e1)
        return [ids[i] for i in np.argsort(ang)]

    def to_obj(self):
        lines = ["# convex hull in affine chart; plane at infinity dual to"]
        lines.append("# %s" % np.array2string(self.chart_plane.label, precision=9))
        index = {}
        for i in self.vertex_ids:
            index[i] = len(index) + 1
            x, y, z = self.chart_points[i]
            lines.append("v %.9f %.9f %.9f" % (x, y, z))
        for f in self.faces:
            cycle = [index[i] for i in self._ordered_cycle(f)]
            lines.append("f " + " ".join(str(i) for i in cycle))
        return "\n".join(lines) + "\n"


def ConvexHull(points, qhull_options=None):
    """scipy.spatial.ConvexHull, imported on first use so that commands
    that build no hull do not load scipy.  It keeps scipy's name, under
    which perfbench's tracer counts the QJ fallback."""
    from scipy.spatial import ConvexHull as qhull

    return qhull(points, qhull_options=qhull_options)


def _face_plane_label(chart_mat_inv, normal, offset):
    """Projective label of the chart plane normal . X + offset = 0,
    pulled back through the chart transport v -> m^{-1} v."""
    # in transported (a,b,c,d): n1*y + n2*z + n3*u + offset*w = 0
    n1, n2, n3 = normal
    cov = 0.5 * np.array([offset + n2, n1 + n3, n1 - n3, offset - n2])
    C = mat_of(cov)
    # incidence(v) = tr(C^T m^{-1} v); the label's adjugate matches 2 C^T m^{-1}
    m = np.linalg.inv(chart_mat_inv)
    return vec_of(m @ adjugate(C.T))


def convex_hull(graph, chart_plane=None):
    """Convex hull of the graph in the chart of a disjoint spacelike
    plane, with coplanar facets merged and faces split future/past by
    the rotation-flow time orientation."""
    if chart_plane is None:
        chart_plane = disjoint_spacelike_plane(graph)
    if chart_plane.classify() != "spacelike":
        raise ValueError("chart plane must be spacelike")
    m = chart_plane.dual_mat2().m
    minv = np.linalg.inv(m)
    pts4 = np.einsum("ij,njk->nik", minv, graph.points().reshape(-1, 2, 2)).reshape(-1, 4)
    w = 0.5 * (pts4[:, 0] + pts4[:, 3])
    scale = np.linalg.norm(pts4, axis=1)
    if np.min(np.abs(w)) < 1e-9 * np.max(scale):
        raise ValueError("chart plane is not disjoint from the samples")
    pts4 = pts4 * np.sign(w)[:, None]
    chart_pts = chart_coords(pts4)

    centered = chart_pts - chart_pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[-1] < 1e-9 * max(sv[0], 1.0):
        plane = _flat_plane(graph)
        return HullComplex(graph, chart_plane, chart_pts, [],
                           np.arange(len(graph)), flat=True, flat_plane=plane)

    from scipy.spatial import QhullError

    try:
        hull = ConvexHull(chart_pts)
    except QhullError:
        hull = ConvexHull(chart_pts, qhull_options="QJ")

    # merge triangulated facets that share a supporting plane
    groups = {}
    for eq, simplex in zip(hull.equations, hull.simplices):
        key = tuple(np.round(eq, 6))
        ids, eqs = groups.setdefault(key, (set(), []))
        ids.update(int(i) for i in simplex)
        eqs.append(eq)
    # time orientation: the rotation flow v -> v . R(t) points to the future
    faces = []
    for ids, eqs in groups.values():
        ids = np.array(sorted(ids))
        eq = np.mean(eqs, axis=0)
        normal, offset = eq[:3], float(eq[3])
        normal = normal / np.linalg.norm(normal)
        label = _face_plane_label(minv, normal, offset)
        plane = ProjectivePlane(label)
        flow = 0.0
        for i in ids[: min(len(ids), 8)]:
            p = pts4[i].reshape(2, 2)
            dp = vec_of(p @ ROTATION_GENERATOR)
            wp = 0.5 * (pts4[i, 0] + pts4[i, 3])
            dw = 0.5 * (dp[0] + dp[3])
            d3 = np.array([0.5 * (dp[1] + dp[2]), 0.5 * (dp[0] - dp[3]),
                           0.5 * (dp[1] - dp[2])])
            flow += float(np.dot(normal, (d3 - chart_pts[i] * dw) / wp))
        faces.append(HullFace(plane, normal, offset, ids, future=flow > 0))
    return HullComplex(graph, chart_plane, chart_pts, faces,
                       np.array(sorted(int(i) for i in hull.vertices)))


def _flat_plane(graph):
    """Plane containing every point of a planar graph."""
    pts = graph.points()
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    # qpair(label, v) is linear in label: v contributes row (d,-c,-b,a)/2
    rows = 0.5 * np.stack([pts[:, 3], -pts[:, 2], -pts[:, 1], pts[:, 0]], axis=1)
    _, _, vt = np.linalg.svd(rows)
    return ProjectivePlane(vt[-1])


def face_adjacency(hull, future_only=True):
    """Pairs of face indices sharing at least two hull vertices."""
    faces = hull.faces
    picked = [i for i, f in enumerate(faces) if f.future or not future_only]
    vmap = {}
    for i in picked:
        for v in faces[i].vertex_ids:
            vmap.setdefault(int(v), []).append(i)
    counts = {}
    for v, fs in vmap.items():
        for a in range(len(fs)):
            for b in range(a + 1, len(fs)):
                key = (fs[a], fs[b])
                counts.setdefault(key, []).append(v)
    return [(i, j, shared) for (i, j), shared in counts.items() if len(shared) >= 2]


def bending_data(hull):
    """Dual-point distances across future-boundary edges.

    The distance between the dual points of two adjacent spacelike
    faces is arccosh of the normalized pairing, equivalently arccosh of
    |tr(m1 m2^{-1})| / 2 for the determinant-one duals.  Null-face
    adjacencies get weight None.
    """
    if hull.flat:
        return []
    out = []
    for i, j, shared in face_adjacency(hull, future_only=True):
        fi, fj = hull.faces[i], hull.faces[j]
        if fi.dual is None or fj.dual is None:
            out.append(BendingDatum(i, j, shared, None))
            continue
        rel = fi.dual @ fj.dual.inverse()
        out.append(BendingDatum(i, j, shared,
                                math.acosh(max(abs(rel.trace()) / 2.0, 1.0))))
    return out


class ExtractedEarthquake:
    """Left-earthquake data read off the future boundary of a hull."""

    def __init__(self, left_factors, boundary_map, shear_edges, dominant_shear=0.0):
        self.left_factors = left_factors
        self.boundary_map = boundary_map
        self.shear_edges = shear_edges
        self.dominant_shear = dominant_shear

    def total_shear(self):
        """Weight of the dominant leaf: the shear between the two
        largest future faces, which meet along it."""
        return self.dominant_shear


def _face_mobius(dual):
    """Mobius map whose graph is the face plane's quadric conic: the
    plane of dual m meets the quadric in {(x, R adj(m) x)}."""
    return Mat2(ROTATION_GENERATOR @ adjugate(dual.m))


def _boundary_map(tls, mobs):
    """CircleMap of tl -> RP1Point.from_theta(tl).apply(m).theta, with
    one Mobius matrix m per sample (or one for all), in one stacked
    pass that equals the per-sample RP1Point arithmetic bit for bit."""
    v = rp1_from_thetas(tls)
    return CircleMap(zip(tls, rp1_stack((mobs @ v[:, :, None])[:, :, 0])[1].tolist()))


def extract_left_earthquake(hull):
    """Per-face left/right factors relative to the largest future face,
    the recovered boundary circle map, and the shear weights (twice the
    bending weights) of the future-boundary edges."""
    tls = [tl for tl, _ in hull.graph.samples]
    if hull.flat:
        plane = hull.flat_plane
        if plane.classify() != "spacelike":
            raise ValueError("flat hull on a non-spacelike plane")
        cm = _boundary_map(tls, _face_mobius(plane.dual_mat2()).m)
        return ExtractedEarthquake([Mat2.identity()], cm, [], 0.0)

    # near-tangent sliver faces of the sampled hull classify as null;
    # they carry no dual point and are skipped
    order = [i for i, f in enumerate(hull.faces) if f.future and f.dual is not None]
    if not order:
        raise ValueError("hull has no spacelike future faces")
    by_size = sorted(order, key=lambda i: -len(hull.faces[i].vertex_ids))
    m_ref = hull.faces[by_size[0]].dual
    left_factors = [m_ref @ hull.faces[i].dual.inverse() for i in order]

    # assign each sample to the future face of its nearest hull vertex
    # (ties to the earlier vertex by theta); a vertex belongs to the
    # first face of `order` that holds it
    face_of = np.full(len(tls), -1)
    for pos in reversed(range(len(order))):
        face_of[hull.faces[order[pos]].vertex_ids] = pos
    theta = np.array(tls)
    vids = np.flatnonzero(face_of >= 0)
    vids = vids[np.argsort(theta[vids])]
    vthetas = theta[vids]
    k = np.searchsorted(vthetas, theta)
    near = np.stack([(k - 1) % len(vids), k % len(vids)])
    d = np.abs(vthetas[near] - theta)
    d = np.minimum(d, 1.0 - d)
    nearest = vids[np.where(d[1] < d[0], near[1], near[0])]
    pos = np.where(face_of >= 0, face_of, face_of[nearest])
    mobs = np.array([_face_mobius(hull.faces[i].dual).m for i in order])
    cm = _boundary_map(tls, mobs[pos])

    shear_edges = [(2.0 * b.weight, b.face_i, b.face_j)
                   for b in bending_data(hull) if b.weight is not None]

    # the dominant leaf separates the two largest regions of the bent
    # surface; sampling slivers can hide their shared edge, so measure
    # the shear between their duals directly
    dominant = 0.0
    if len(by_size) >= 2:
        rel = hull.faces[by_size[0]].dual @ hull.faces[by_size[1]].dual.inverse()
        dominant = 2.0 * math.acosh(max(abs(rel.trace()) / 2.0, 1.0))
    return ExtractedEarthquake(left_factors, cm, shear_edges, dominant)


def attracting_thetas(mats):
    """Angle parameter of the attracting fixed point of each hyperbolic
    matrix in a (N, 2, 2) stack, in closed form: the eigenvector
    (b, lam - a) of the larger eigenvalue lam, or (lam - d, c) where
    that is nearly zero (near-diagonal matrices)."""
    a, b, c, d = (mats[:, i, j] for i in (0, 1) for j in (0, 1))
    t = a + d
    disc = t * t - 4.0
    if np.any(disc <= 0):
        raise ValueError("element is not hyperbolic (trace %.6f)" % t[np.argmax(disc <= 0)])
    lam = 0.5 * (t + np.copysign(np.sqrt(disc), t))
    v = np.stack([b, lam - a], axis=1)
    near = np.max(np.abs(v), axis=1) < 1e-12 * np.maximum(np.abs(lam), 1.0)
    v[near] = np.stack([lam - d, c], axis=1)[near]
    return rp1_stack(v)[1]


def sample_conjugacy(rep_l, rep_r, L, dedup=1e-4):
    """Graph samples of the circle map conjugating two Fuchsian-like
    representations: the attracting fixed point of rep_l(w) pairs with
    that of rep_r(w) over all nontrivial ball-L words."""
    ball = GroupBall(rep_l, L)
    thetas = np.stack([attracting_thetas(ball.elements[1:]),
                       attracting_thetas(ball.evaluate(rep_r)[1:])], axis=1)
    # sorted by (left, right); the dedup and jitter passes are sequential
    kept = []
    for tl, tr in thetas[np.lexsort((thetas[:, 1], thetas[:, 0]))].tolist():
        if kept and tl - kept[-1][0] < dedup:
            continue
        kept.append((tl, tr))
    if len(kept) > 1 and (kept[0][0] - kept[-1][0]) % 1.0 < dedup:
        kept.pop()
    if len(kept) < 3:
        raise ValueError("the radius-%d ball gives %d conjugacy samples; "
                         "need at least 3" % (L, len(kept)))

    # cyclic monotonicity of the right angles, tolerating tiny jitter
    clean = [kept[0]]
    for tl, tr in kept[1:]:
        step = (tr - clean[-1][1] + 0.5) % 1.0 - 0.5
        if step < -1e-5:
            raise ValueError("conjugacy samples are not cyclically monotone")
        if step < 0:
            continue
        clean.append((tl, tr))
    return CircleGraph(clean)


def dependence_membership(p, graph, eps=EPS):
    """Whether the dual plane of p misses the sampled graph circle.

    Returns True/False by the sign pattern of the incidences, or None
    when the test is indeterminate (planar graph, or a sample within
    eps of the plane).
    """
    p = vec_of(p)
    if graph.is_planar():
        return None
    pts = graph.points()
    inc = qpair(p, pts)
    scale = np.linalg.norm(p) * np.linalg.norm(pts, axis=1)
    if np.any(np.abs(inc) < eps * scale):
        return None
    return bool(np.all(inc > 0) or np.all(inc < 0))


def lemma5_configuration():
    """The symmetric nine-point realization of a three-point graph
    configuration on the quadric X^2 + Y^2 = Z^2 + 1: three points at
    height 0, the primed triple at height sqrt(3) and the double-primed
    triple at height -sqrt(3)."""
    r3 = math.sqrt(3.0)
    base = [(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3), 0.0)
            for k in range(3)]
    up = [(2 * math.sin(math.pi / 3), 2 * math.cos(math.pi / 3), r3),
          (-2.0, 0.0, r3),
          (-2 * math.sin(math.pi / 3), 2 * math.cos(math.pi / 3), r3)]
    down = [(x, y, -z) for x, y, z in up]
    return [chart_quadric_point(*p) for p in base + up + down]


def plane_separates(plane, points, eps=EPS):
    """Constant-sign incidence of a plane on a list of 4-vectors."""
    pts = np.asarray(points, dtype=float)
    inc = qpair(plane.label, pts)
    margin = eps * np.linalg.norm(plane.label) * np.linalg.norm(pts, axis=1)
    return bool(np.all(inc > margin) or np.all(inc < -margin))
