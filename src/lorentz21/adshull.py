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

import collections
import math

import numpy as np

from .fuchsian import GroupBall, Mat2
from .minkowski import RP1Point, adjugate, finite, mat2_stack, rp1_from_thetas, rp1_stack
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


def _rowdot(u, v):
    """np.dot of each row pair of two (N, k) stacks, bit for bit."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


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


class HullFaces:
    """The merged faces of a hull, one row per face: the chart plane
    normals[i] . X + offsets[i] = 0 (unit normal), its ProjectivePlane
    label, the class classify() names, the dual_mat2 matrix (NaN unless
    spacelike) and the time orientation.  Face i's sorted vertex ids are
    ids[start[i]:start[i + 1]]; face owner[k] holds vertex ids[k]."""

    def __init__(self, normals, offsets, labels, future, ids, start):
        self.normals, self.offsets, self.labels = normals, offsets, labels
        self.future, self.ids, self.start = future, ids, start
        self.owner = np.repeat(np.arange(len(offsets)), np.diff(start))
        q, scale = qform(labels), _rowdot(labels, labels)
        self.classes = np.where(q > EPS * scale, "spacelike",
                                np.where(q < -EPS * scale, "lorentzian", "null"))
        spacelike = self.classes == "spacelike"
        self.duals = np.full((len(labels), 2, 2), np.nan)
        self.duals[spacelike] = mat2_stack(
            labels[spacelike].reshape(-1, 2, 2) / np.sqrt(q[spacelike])[:, None, None])

    def __len__(self):
        return len(self.offsets)


BendingDatum = collections.namedtuple("BendingDatum", "face_i face_j shared_vertex_ids weight")


class HullComplex:
    """Convex hull of a circle graph in an affine chart.

    Fields: the graph, the chart plane (points are transported by
    v -> m^{-1} v, m its dual, before taking the standard chart), the
    chart coordinates of all samples, the merged faces, and the vertex
    ids that are hull vertices.  Flat (planar) graphs produce a complex
    with flat = True, a single plane, and no faces.
    """

    def __init__(self, graph, chart_plane, chart_points, faces, vertex_ids,
                 flat=False, flat_plane=None, qhull_facets=0, joggled=False):
        self.graph = graph
        self.chart_plane = chart_plane
        self.chart_points = chart_points
        self.faces = faces
        self.vertex_ids = vertex_ids
        self.flat = flat
        self.flat_plane = flat_plane
        self.qhull_facets, self.joggled = qhull_facets, joggled

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
        # one matvec per face: a stacked product changes the per-face maxima
        for normal, offset in zip(self.faces.normals, self.faces.offsets.tolist()):
            slack = self.chart_points @ normal + offset
            worst = min(worst, -float(np.max(slack)))
        return worst

    def _ordered_cycle(self, ids, n):
        pts = self.chart_points[ids]
        center = pts.mean(axis=0)
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
        for ids, n in zip(np.split(self.faces.ids, self.faces.start[1:-1]), self.faces.normals):
            cycle = [index[i] for i in self._ordered_cycle(ids, n)]
            lines.append("f " + " ".join(str(i) for i in cycle))
        return "\n".join(lines) + "\n"


def ConvexHull(points, qhull_options=None):
    """scipy.spatial.ConvexHull, imported on first use so that commands
    that build no hull do not load scipy.  It keeps scipy's name, under
    which perfbench's tracer counts the QJ fallback."""
    from scipy.spatial import ConvexHull as qhull

    return qhull(points, qhull_options=qhull_options)


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
        faces = HullFaces(np.zeros((0, 3)), np.zeros(0), np.zeros((0, 4)), np.zeros(0, bool),
                          np.zeros(0, int), np.zeros(1, int))
        return HullComplex(graph, chart_plane, chart_pts, faces,
                           np.arange(len(graph)), flat=True, flat_plane=plane)

    from scipy.spatial import QhullError

    try:
        hull, joggled = ConvexHull(chart_pts), False
    except QhullError:
        hull, joggled = ConvexHull(chart_pts, qhull_options="QJ"), True
    # inv(minv), not m: the round trip differs from m in the last bits
    faces = _merged_faces(hull, pts4, chart_pts, np.linalg.inv(minv))
    return HullComplex(graph, chart_plane, chart_pts, faces,
                       np.array(sorted(int(i) for i in hull.vertices)),
                       qhull_facets=len(hull.equations), joggled=joggled)


def _group_means(rows, group):
    """np.mean(rows[group == g], axis=0) for g = 0, 1, .., bit for bit and
    unpadded: slot k adds the k-th row of each group with more than k."""
    count = np.bincount(group)
    members = np.argsort(group, kind="stable")
    begin = np.cumsum(count) - count
    big = np.argsort(-count, kind="stable")
    total = rows[members[begin[big]]]
    for k in range(1, count[big[0]]):
        have = big[:np.searchsorted(-count[big], -k)]
        total[:len(have)] += rows[members[begin[have] + k]]
    return (total / count[big, None])[np.argsort(big)]


def _merged_faces(hull, pts4, chart_pts, chart_mat):
    """Qhull's facets merged into a HullFaces record, each stacked step
    equal to the per-face arithmetic bit for bit.  Facets whose equations
    agree to 6 decimals form one face, numbered by first appearance, with
    the mean equation; chart_mat is the chart transport m."""
    eqs = hull.equations
    keys = np.ascontiguousarray(np.round(eqs, 6) + 0.0).view(np.dtype((np.void, 32))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    face = np.argsort(np.argsort(first))[inverse]
    mean = _group_means(eqs, face)
    normals = mean[:, :3] / np.sqrt(_rowdot(mean[:, :3], mean[:, :3]))[:, None]
    offsets = mean[:, 3]

    # in transported (a,b,c,d) a face reads n1*y + n2*z + n3*u + offset*w = 0,
    # i.e. tr(C^T m^{-1} v) = 0; the label's adjugate matches 2 C^T m^{-1}
    n1, n2, n3 = normals.T
    cov = 0.5 * np.stack([offsets + n2, n1 + n3, n1 - n3, offsets - n2], axis=1)
    labels = (chart_mat @ adjugate(cov.reshape(-1, 2, 2).transpose(0, 2, 1))).reshape(-1, 4)
    labels = labels / np.max(np.abs(labels), axis=1, keepdims=True)

    n = len(chart_pts)
    code = np.unique(face[:, None] * n + hull.simplices)
    ids, start = code % n, np.searchsorted(code, np.arange(len(mean) + 1) * n)

    # time orientation: the rotation flow v -> v . R(t) points to the
    # future; a face sums its chart velocity over its first <= 8 vertices
    # one vertex column at a time, in the per-face loop's order of adds
    dp = (pts4.reshape(-1, 2, 2) @ ROTATION_GENERATOR).reshape(-1, 4)
    wp, dw = 0.5 * (pts4[:, 0] + pts4[:, 3]), 0.5 * (dp[:, 0] + dp[:, 3])
    d3 = 0.5 * np.stack([dp[:, 1] + dp[:, 2], dp[:, 0] - dp[:, 3], dp[:, 1] - dp[:, 2]], axis=1)
    velocity = (d3 - chart_pts * dw[:, None]) / wp[:, None]
    flow = np.zeros(len(mean))
    for j in range(8):
        has = np.flatnonzero(np.diff(start) > j)
        flow[has] += _rowdot(normals[has], velocity[ids[start[has] + j]])
    return HullFaces(normals, offsets, labels, flow > 0, ids, start)


def _flat_plane(graph):
    """Plane containing every point of a planar graph."""
    pts = graph.points()
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    # qpair(label, v) is linear in label: v contributes row (d,-c,-b,a)/2
    rows = 0.5 * np.stack([pts[:, 3], -pts[:, 2], -pts[:, 1], pts[:, 0]], axis=1)
    _, _, vt = np.linalg.svd(rows)
    return ProjectivePlane(vt[-1])


def face_adjacency(hull):
    """Future-face pairs (i < j) sharing two or more hull vertices: the
    (E, 2) pairs, shared ids and start (pair e's at shared[start[e]:start[e
    + 1]]), in the order a scan of the vertices by first appearance meets."""
    faces = hull.faces
    future = faces.future[faces.owner]
    face, v = faces.owner[future], faces.ids[future]
    _, first, inverse = np.unique(v, return_index=True, return_inverse=True)
    seen = first[inverse]
    o = np.argsort(seen, kind="stable")
    seen, face, v = seen[o], face[o], v[o]
    # every pair (a, b) of one vertex's incidences, a before b, in scan order
    a, b = np.zeros((2, 0), int)
    for d in range(1, np.bincount(inverse, minlength=1).max()):
        same = np.flatnonzero(seen[d:] == seen[:-d])
        a, b = np.concatenate([a, same]), np.concatenate([b, same + d])
    o = np.lexsort((face[b], face[a], seen[a]))
    a, b = a[o], b[o]
    _, first, inverse, count = np.unique(face[a] * len(faces) + face[b], return_index=True,
                                         return_inverse=True, return_counts=True)
    # each pair's occurrences together, pairs in the order first met
    o = np.argsort(first[inverse], kind="stable")
    o = o[count[inverse[o]] >= 2]
    head, start = np.unique(first[inverse[o]], return_index=True)
    return np.stack([face[a[head]], face[b[head]]], axis=1), v[a[o]], np.append(start, len(o))


def _dual_distances(m1, m2):
    """arccosh(|tr(m1 m2^{-1})| / 2) per row of two dual stacks, normalized
    as Mat2 does; math.acosh per value, as np.arccosh differs in last bits."""
    rel = mat2_stack(m1 @ mat2_stack(adjugate(m2)))
    return [math.acosh(max(t / 2.0, 1.0)) for t in np.abs(rel[:, 0, 0] + rel[:, 1, 1]).tolist()]


def bending_data(hull):
    """Dual-point distances across future-boundary edges.

    The distance between the dual points of two adjacent spacelike
    faces is arccosh of the normalized pairing, equivalently arccosh of
    |tr(m1 m2^{-1})| / 2 for the determinant-one duals.  Null-face
    adjacencies get weight None.
    """
    pairs, shared, start = face_adjacency(hull)
    duals = hull.faces.duals
    weights = _dual_distances(duals[pairs[:, 0]], duals[pairs[:, 1]])
    spacelike = (hull.faces.classes == "spacelike")[pairs].all(axis=1).tolist()
    shared, start = shared.tolist(), start.tolist()
    return [BendingDatum(i, j, shared[lo:hi], w if ok else None) for (i, j), lo, hi, w, ok
            in zip(pairs.tolist(), start[:-1], start[1:], weights, spacelike)]


class ExtractedEarthquake:
    """Left-earthquake data read off the future boundary of a hull.  The
    `dominant_shear` is the weight of the dominant leaf: the shear
    between the two largest of the `strata`, which meet along it."""

    def __init__(self, left_factors, boundary_map, shear_edges, dominant_shear=0.0, strata=1):
        self.left_factors = left_factors
        self.boundary_map = boundary_map
        self.shear_edges = shear_edges
        self.dominant_shear = dominant_shear
        self.strata = strata


def _face_mobius(duals):
    """Mobius maps whose graphs are the face planes' quadric conics: the
    plane of dual m meets the quadric in {(x, R adj(m) x)}."""
    return mat2_stack(ROTATION_GENERATOR @ adjugate(duals))


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
        cm = _boundary_map(tls, _face_mobius(plane.dual_mat2().m[None]))
        return ExtractedEarthquake(np.eye(2)[None], cm, [], 0.0)

    # near-tangent sliver faces of the sampled hull classify as null;
    # they carry no dual point and are skipped
    faces = hull.faces
    kept = faces.future & (faces.classes == "spacelike")
    order = np.flatnonzero(kept)
    if not len(order):
        raise ValueError("hull has no spacelike future faces")
    by_size = order[np.argsort(-np.diff(faces.start)[order], kind="stable")]
    duals = faces.duals[order]
    left_factors = mat2_stack(faces.duals[by_size[0]] @ mat2_stack(adjugate(duals)))

    # assign each sample to the future face of its nearest hull vertex
    # (ties to the earlier vertex by theta); a vertex belongs to the
    # first face of `order` that holds it
    held = kept[faces.owner]
    v, first = np.unique(faces.ids[held], return_index=True)
    face_of = np.full(len(tls), -1)
    face_of[v] = np.searchsorted(order, faces.owner[held][first])
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
    cm = _boundary_map(tls, _face_mobius(duals)[pos])

    shear_edges = [(2.0 * b.weight, b.face_i, b.face_j)
                   for b in bending_data(hull) if b.weight is not None]

    # the dominant leaf separates the two largest regions of the bent
    # surface.  Thinned samples can split one region into several faces,
    # so faces joined by an edge of shear below 1e-3 form one stratum,
    # sized by its distinct vertices and represented by its first face
    # in by-size order; sampling slivers can hide the shared edge of
    # the two largest, so measure the shear between their duals directly
    flat = np.array([(i, j) for w, i, j in shear_edges if w < 1e-3], dtype=int).reshape(-1, 2)
    label = _components(len(order), np.searchsorted(order, flat))
    stratum = label[np.searchsorted(order, faces.owner[held])]
    vertices = np.bincount(np.unique(stratum * len(tls) + faces.ids[held]) // len(tls))
    heads = np.unique(label)
    lead = np.full(len(order), len(order))
    # by_size permutes the ascending order, so argsort gives each one's rank
    np.minimum.at(lead, label, np.argsort(by_size))
    top = heads[np.lexsort((lead[heads], -vertices[heads]))]
    dominant = 0.0
    if len(top) >= 2:
        first, second = by_size[lead[top[:2]]]
        dominant = 2.0 * _dual_distances(faces.duals[[first]], faces.duals[[second]])[0]
    return ExtractedEarthquake(left_factors, cm, shear_edges, dominant, len(heads))


def _components(n, pairs):
    """Connected-component label of each of n nodes under the (E, 2)
    edges: the least node of its component."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[pairs[:, 0]], label[pairs[:, 1]])
        new = label.copy()
        np.minimum.at(new, pairs[:, 0], low)
        np.minimum.at(new, pairs[:, 1], low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def attracting_thetas(mats):
    """Angle parameter of the attracting fixed point of each hyperbolic
    matrix in a (N, 2, 2) stack, in closed form: the eigenvector
    (b, lam - a) of the larger eigenvalue lam, or (lam - d, c) where
    that is nearly zero (near-diagonal matrices)."""
    a, b, c, d = (mats[:, i, j] for i in (0, 1) for j in (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        t = a + d
        disc = t * t - 4.0
    if not np.isfinite(disc).all():
        raise ValueError("a trace is too large for its fixed points")
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
