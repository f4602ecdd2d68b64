"""Anti-de Sitter space as the projective quadric model.

Projective coordinates (a, b, c, d) on RP^3 carry the signature (2,2)
form q = ad - bc.  The quadric q = 0 is the boundary; the region q > 0
is anti-de Sitter space, identified with PSL(2,R) by reading (a,b,c,d)
as the matrix [[a,b],[c,d]] normalized to determinant 1.  The quadric
is doubly ruled; the rulings identify it with RP^1 x RP^1, and graphs
of monotone circle maps embed as nowhere-timelike curves on it.

A plane is its (4,) label, its dual point: the plane of label m consists
of the points v with <m, v> = 0 for the polarized form of q.  Convex
hulls of circle-map graphs are computed in an affine chart whose plane
at infinity is a disjoint spacelike plane, and the future boundary
faces yield the left earthquake with the graph as boundary value.
"""

from __future__ import annotations

import bisect
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .fuchsian import EVALUATE_BLOCK, GroupBall
from .minkowski import (EPS, adjugate, finite, mat2_stack, per_value, refuse_unnormalizable,
                        rp1_from_thetas, rp1_stack, rp1_units, row_keys)
from .quakes import CircleMap

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


def rulings_of(p):
    """Ruling coordinates of a quadric point: left = (A:C) = (B:D) and
    right = (A:B) = (C:D), each the longer of its two 2-vectors, returned
    as unit vectors in rp1_units' normal form."""
    p = np.asarray(p, dtype=float)
    scale = float(np.dot(p, p))
    if scale == 0 or abs(qform(p)) > EPS * scale:
        raise ValueError("point is not on the quadric")
    a, b, c, d = p
    pairs = [(np.array([a, c]), np.array([b, d])), (np.array([a, b]), np.array([c, d]))]
    left, right = rp1_units(np.array([u if np.dot(u, u) >= np.dot(v, v) else v
                                      for u, v in pairs]))
    return left, right


def plane_classes(labels):
    """The class of the plane of each row of a (N, 4) label stack, named
    "spacelike", "null" or "lorentzian" as qform(label) is above EPS
    |label|^2, within it or below minus it, and its dual point as a
    Mat2-normalized determinant-one matrix (NaN unless spacelike)."""
    q, scale = qform(labels), _rowdot(labels, labels)
    classes = np.where(q > EPS * scale, "spacelike",
                       np.where(q < -EPS * scale, "lorentzian", "null"))
    spacelike = classes == "spacelike"
    duals = np.full((len(labels), 2, 2), np.nan)
    duals[spacelike] = mat2_stack(
        labels[spacelike].reshape(-1, 2, 2) / np.sqrt(q[spacelike])[:, None, None])
    return classes, duals


def plane_label(v):
    """The (4,) label of the plane {u : qpair(v, u) = 0}: v scaled to
    max-abs 1.  Its dual point is the label itself."""
    label = np.asarray(v, dtype=float).reshape(4)
    n = float(np.max(np.abs(label)))
    if n == 0:
        raise ValueError("zero label is not a plane")
    return label / n


def _spacelike_dual(label, refusal):
    """plane_classes' dual matrix of one label; `refusal` is raised
    unless the plane is spacelike."""
    classes, duals = plane_classes(label[None])
    if classes[0] != "spacelike":
        raise refusal
    return duals[0]


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
    return plane_label([-k, 1.0, -1.0, -k])


class CircleGraph(CircleMap):
    """Sampled graph of a monotone circle map on the quadric: at least 3
    (theta_left, theta_right) samples, taken mod 1 and sorted.  The
    quadric point of a sample is the Segre image of the two RP^1 points.
    """

    def __init__(self, samples):
        if len(samples) < 3:
            raise ValueError("need at least 3 samples")
        super().__init__(samples)
        s = self.samples % 1.0
        self.samples = s[np.lexsort((s[:, 1], s[:, 0]))]
        self._points = None
        # counts from the sampling that made the graph, for a report
        self.diagnostics = {}

    def points(self):
        """(N, 4) array of quadric points, one per sample, with
        representative signs aligned along the curve so that incidence
        sign patterns are meaningful."""
        if self._points is None:
            l, r = rp1_from_thetas(self.samples[:, 0]), rp1_from_thetas(self.samples[:, 1])
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
        return super().is_monotone(tol)

    def is_planar(self):
        """True iff all sample points lie on one projective plane, to a
        relative 1e-9 in the singular values."""
        pts = self.points()
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        s = np.linalg.svd(pts, compute_uv=False)
        return s[-1] < 1e-9 * s[0]

    def spacelike_consecutive(self):
        """Consecutive samples must be mutually spacelike on the quadric,
        which for graph points means both ruling coordinates step in the
        same direction (a product of steps below -1e-12 is a reversal)."""
        step = (np.roll(self.samples, -1, axis=0) - self.samples + 0.5) % 1.0 - 0.5
        return not np.any(step[:, 0] * step[:, 1] < -1e-12)

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


def plane_separates(label, points):
    """Whether the plane of label has incidences of one strict sign on
    the (N, 4) points, each beyond EPS of |label| |point|."""
    points = np.asarray(points, dtype=float)
    inc = qpair(label, points)
    margin = EPS * np.linalg.norm(label) * np.linalg.norm(points, axis=1)
    return bool(np.all(inc > margin) or np.all(inc < -margin))


def _scan_z_family(pts, cap):
    k = 0.25
    for _ in range(cap):
        for kk in (k, -k):
            label = np.array([-kk, 1.0, -1.0, -kk])
            if plane_separates(label, pts):
                return label
        k *= 1.25
    return None


def _plane_through(pts):
    """The plane through the (N, 4) points, each scaled to unit length,
    by least squares: qpair(label, v) is linear in label, v contributing
    the row (d, -c, -b, a) / 2.  From 4 rows on, the reduced SVD has the
    same last right singular vector without the (N, N) left factor."""
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    rows = 0.5 * np.stack([pts[:, 3], -pts[:, 2], -pts[:, 1], pts[:, 0]], axis=1)
    return plane_label(np.linalg.svd(rows, full_matrices=len(rows) < 4)[2][-1])


def disjoint_spacelike_plane(graph, cap=120):
    """The label of a spacelike plane with constant-sign incidence on
    all graph samples: the planes {Z = k} of the standard chart are scanned
    outward in |k|; if that family is exhausted the graph is first
    recentered so that the plane through three spread samples becomes
    the standard plane."""
    pts = graph.points()
    label = _scan_z_family(pts, cap)
    if label is not None:
        return plane_label(label)
    n = len(graph)
    refusal = RuntimeError("no disjoint spacelike plane found")
    p0 = _plane_through(pts[[n // 6, n // 2, (5 * n) // 6]])
    g = ROTATION_GENERATOR @ np.linalg.inv(_spacelike_dual(p0, refusal))
    tpts = np.einsum("ij,njk->nik", g, pts.reshape(-1, 2, 2)).reshape(-1, 4)
    label = _scan_z_family(tpts, cap)
    if label is None:
        raise refusal
    return plane_label(np.linalg.inv(g) @ label.reshape(2, 2))


class HullFaces:
    """The merged faces of a hull, one row per face: the chart plane
    normals[i] . X + offsets[i] = 0 (unit normal), its label (max-abs 1,
    as plane_label scales it), the class and the dual matrix of
    plane_classes (NaN unless spacelike) and the time orientation.  Face
    i's sorted vertex ids are ids[start[i]:start[i + 1]]; face owner[k]
    holds vertex ids[k]."""

    def __init__(self, normals, offsets, labels, future, ids, start):
        self.normals, self.offsets, self.labels = normals, offsets, labels
        self.future, self.ids, self.start = future, ids, start
        self.owner = np.repeat(np.arange(len(offsets)), np.diff(start))
        self.classes, self.duals = plane_classes(labels)

    def __len__(self):
        return len(self.offsets)


class HullComplex:
    """Convex hull of a circle graph in an affine chart.

    Fields: the graph, the chart plane's label (points are transported
    by v -> m^{-1} v, m its dual, before taking the standard chart), the
    chart coordinates of all samples, the merged faces, and the vertex
    ids that are hull vertices.  Flat (planar) graphs produce a complex
    with flat = True, a single plane's label, and no faces.
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
        worst, normals, offsets = 0.0, self.faces.normals[:, :, None], self.faces.offsets
        # a batched matmul makes the same matvec per face, where P @ N.T
        # changes the per-face maxima; max then add is exact, as rounding
        # is monotone.  16 faces of 7k points stay in cache
        for lo in range(0, len(offsets), 16):
            top = np.matmul(self.chart_points, normals[lo:lo + 16])[..., 0].max(axis=1)
            worst = min(worst, -float(np.max(top + offsets[lo:lo + 16])))
        return worst

    def to_obj(self):
        """Wavefront OBJ of the hull vertices (1-based in vertex_ids
        order) and faces, each face's cycle ordered by the angle about its
        vertex mean in a basis of its plane."""
        lines = ["# convex hull in affine chart; plane at infinity dual to"]
        lines.append("# %s" % np.array2string(self.chart_plane, precision=9))
        lines += ["v %.9f %.9f %.9f" % tuple(p)
                  for p in self.chart_points[self.vertex_ids].tolist()]
        faces, n, owner = self.faces, self.faces.normals, self.faces.owner
        pts = self.chart_points[faces.ids]
        rel = pts - _group_means(pts, owner)[owner]
        helper = np.where((np.abs(n[:, 0]) > 0.9)[:, None], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        e1 = np.cross(n, helper)
        e1 /= np.sqrt(_rowdot(e1, e1))[:, None]
        e2 = np.cross(n, e1)
        angle = np.arctan2(_rowdot(rel, e2[owner]), _rowdot(rel, e1[owner]))
        index = np.zeros(len(self.chart_points), int)
        index[self.vertex_ids] = np.arange(1, len(self.vertex_ids) + 1)
        cycles = index[faces.ids[np.lexsort((angle, owner))]].astype(str).tolist()
        lines += ["f " + " ".join(cycles[lo:hi])
                  for lo, hi in zip(faces.start[:-1].tolist(), faces.start[1:].tolist())]
        return "\n".join(lines) + "\n"


def _scipy_extension(name):
    """The scipy extension module `name`, loaded from its own file
    without running the __init__ of the packages above it; the module in
    sys.modules if one is there, so a process that has imported
    scipy.spatial shares its classes."""
    if name in sys.modules:
        return sys.modules[name]
    package = name.split(".")[1:-1]
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(root, *package)
               for root in importlib.util.find_spec("scipy").submodule_search_locations])
    if spec is None:
        raise ImportError("scipy has no module %s" % name, name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # as import does, before the module runs
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


def _qhull():
    """scipy.spatial._qhull, which holds ConvexHull and QhullError.
    The scipy.linalg.cython_lapack it cimports is loaded first, or the
    cimport would import scipy.linalg's Python layer.  The two take
    0.02-0.06 s, where `import scipy.spatial` takes 0.29-0.41 s, as it
    also loads scipy.sparse, scipy.special and scipy.linalg."""
    _scipy_extension("scipy.linalg.cython_lapack")
    return _scipy_extension("scipy.spatial._qhull")


def ConvexHull(points, qhull_options=None):
    """The (M, 3) vertex ids and (M, 4) facet equations of Qhull's
    triangulated hull of (N, 3) points, as scipy.spatial.ConvexHull
    computes them, from its extension module without the wrapper: that
    wrapper's masked-array check and its vertices load numpy.ma, and its
    area and volume go unread.  Loaded on first use, so that commands
    that build no hull do not load Qhull; scipy's name and signature
    stay, under which perfbench's tracer counts the QJ fallback."""
    qhull = _qhull()._Qhull(b"i", np.ascontiguousarray(points, dtype=np.double),
                            (qhull_options or "").encode("latin1"), required_options=b"Qt")
    try:
        qhull.triangulate()
        simplices, _, equations, _, _ = qhull.get_simplex_facet_array()
    finally:
        qhull.close()
    return simplices, equations


def _sorted_unique(values):
    """np.unique of an integer array, whose plain form loads numpy.ma."""
    values = np.sort(values, axis=None)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def convex_hull(graph, chart_plane=None):
    """Convex hull of the graph in the chart of a disjoint spacelike
    plane, with coplanar facets merged and faces split future/past by
    the rotation-flow time orientation."""
    chart_plane = plane_label(disjoint_spacelike_plane(graph) if chart_plane is None
                              else chart_plane)
    m = _spacelike_dual(chart_plane, ValueError("chart plane must be spacelike"))
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
        plane = _plane_through(graph.points())
        faces = HullFaces(np.zeros((0, 3)), np.zeros(0), np.zeros((0, 4)), np.zeros(0, bool),
                          np.zeros(0, int), np.zeros(1, int))
        return HullComplex(graph, chart_plane, chart_pts, faces,
                           np.arange(len(graph)), flat=True, flat_plane=plane)

    try:
        (simplices, equations), joggled = ConvexHull(chart_pts), False
    except _qhull().QhullError:
        (simplices, equations), joggled = ConvexHull(chart_pts, qhull_options="QJ"), True
    # inv(minv), not m: the round trip differs from m in the last bits
    faces = _merged_faces(simplices, equations, pts4, chart_pts, np.linalg.inv(minv))
    return HullComplex(graph, chart_plane, chart_pts, faces, _sorted_unique(simplices),
                       qhull_facets=len(equations), joggled=joggled)


def _group_means(rows, group):
    """np.mean(rows[group == g], axis=0) for g = 0, 1, .., bit for bit:
    each group's first row, then the rest added in order."""
    first = np.unique(group, return_index=True)[1]
    total = rows[first]
    rest = np.ones(len(group), dtype=bool)
    rest[first] = False
    np.add.at(total, group[rest], rows[rest])
    return total / np.bincount(group)[:, None]


def _merged_faces(simplices, eqs, pts4, chart_pts, chart_mat):
    """Qhull's facets (vertex ids and equations) merged into a HullFaces
    record, each stacked step equal to the per-face arithmetic bit for
    bit.  Facets whose equations agree to 6 decimals form one face,
    numbered by first appearance, with the mean equation; chart_mat is
    the chart transport m."""
    keys = row_keys(eqs, 6)
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
    code = _sorted_unique(face[:, None] * n + simplices)
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


def _quotients(m1, m2, what):
    """m1 m2^{-1} per row of two broadcast dual stacks, normalized as Mat2
    does; a NaN dual gives NaN.  A product of two finite duals that cannot
    be normalized fails the hull (RuntimeError, naming `what`)."""
    prods = m1 @ mat2_stack(adjugate(m2))
    both = np.isfinite(m1).all(axis=(-2, -1)) & np.isfinite(m2).all(axis=(-2, -1))
    refuse_unnormalizable(prods[both], what, RuntimeError)
    return mat2_stack(prods)


def _dual_distances(m1, m2):
    """arccosh(|tr(m1 m2^{-1})| / 2) per row of two dual stacks, by
    math.acosh; a NaN dual gives NaN."""
    rel = _quotients(m1, m2, "a product of two face duals")
    return per_value(math.acosh, np.maximum(np.abs(rel[:, 0, 0] + rel[:, 1, 1]) / 2.0, 1.0))


def bending_data(hull):
    """Dual-point distances across future-boundary edges: face_adjacency's
    (pairs, shared, start) and the (E,) weights.

    The distance between the dual points of two adjacent spacelike
    faces is arccosh of the normalized pairing, equivalently arccosh of
    |tr(m1 m2^{-1})| / 2 for the determinant-one duals.  An edge with a
    face that is not spacelike has no dual there and weight NaN.
    """
    pairs, shared, start = face_adjacency(hull)
    duals = hull.faces.duals
    return pairs, shared, start, _dual_distances(duals[pairs[:, 0]], duals[pairs[:, 1]])


class ExtractedEarthquake:
    """Left-earthquake data read off the future boundary of a hull.  The
    `bending` record is bending_data's; the `dominant_shear` is the
    weight of the dominant leaf: the shear between the two largest of
    the `strata`, which meet along it."""

    def __init__(self, left_factors, boundary_map, bending, dominant_shear=0.0, strata=1):
        self.left_factors = left_factors
        self.boundary_map = boundary_map
        self.bending = bending
        self.dominant_shear = dominant_shear
        self.strata = strata


def _face_mobius(duals):
    """Mobius maps whose graphs are the face planes' quadric conics: the
    plane of dual m meets the quadric in {(x, R adj(m) x)}."""
    return mat2_stack(ROTATION_GENERATOR @ adjugate(duals))


def extract_left_earthquake(hull):
    """Per-face left/right factors relative to the largest future face,
    the recovered boundary circle map, and the bending record of the
    future-boundary edges (a shear weight is twice a bending weight)."""
    theta = hull.graph.samples[:, 0]
    if hull.flat:
        dual = _spacelike_dual(hull.flat_plane, ValueError("flat hull on a non-spacelike plane"))
        cm = CircleMap.of_mobius(theta, _face_mobius(dual[None]))
        return ExtractedEarthquake(np.eye(2)[None], cm, bending_data(hull), 0.0)

    # near-tangent sliver faces of the sampled hull classify as null;
    # they carry no dual point and are skipped
    faces = hull.faces
    kept = faces.future & (faces.classes == "spacelike")
    order = np.flatnonzero(kept)
    if not len(order):
        raise ValueError("hull has no spacelike future faces")
    by_size = order[np.argsort(-np.diff(faces.start)[order], kind="stable")]
    duals = faces.duals[order]
    left_factors = _quotients(faces.duals[by_size[0]], duals, "a left factor")

    # assign each sample to the future face of its nearest hull vertex
    # (ties to the earlier vertex by theta); a vertex belongs to the
    # first face of `order` that holds it
    held = kept[faces.owner]
    v, first = np.unique(faces.ids[held], return_index=True)
    face_of = np.full(len(theta), -1)
    face_of[v] = np.searchsorted(order, faces.owner[held][first])
    vids = np.flatnonzero(face_of >= 0)
    vids = vids[np.argsort(theta[vids])]
    vthetas = theta[vids]
    k = np.searchsorted(vthetas, theta)
    near = np.stack([(k - 1) % len(vids), k % len(vids)])
    d = np.abs(vthetas[near] - theta)
    d = np.minimum(d, 1.0 - d)
    nearest = vids[np.where(d[1] < d[0], near[1], near[0])]
    pos = np.where(face_of >= 0, face_of, face_of[nearest])
    cm = CircleMap.of_mobius(theta, _face_mobius(duals)[pos])

    bending = pairs, _, _, weights = bending_data(hull)

    # the dominant leaf separates the two largest regions of the bent
    # surface.  Thinned samples can split one region into several faces,
    # so faces joined by an edge of shear below 1e-3 form one stratum,
    # sized by its distinct vertices and represented by its first face
    # in by-size order; sampling slivers can hide the shared edge of
    # the two largest, so measure the shear between their duals directly
    label = _components(len(order), np.searchsorted(order, pairs[2.0 * weights < 1e-3]))
    stratum = label[np.searchsorted(order, faces.owner[held])]
    vertices = np.bincount(_sorted_unique(stratum * len(theta) + faces.ids[held]) // len(theta))
    heads = _sorted_unique(label)
    lead = np.full(len(order), len(order))
    # by_size permutes the ascending order, so argsort gives each one's rank
    np.minimum.at(lead, label, np.argsort(by_size))
    top = heads[np.lexsort((lead[heads], -vertices[heads]))]
    dominant = 0.0
    if len(top) >= 2:
        first, second = by_size[lead[top[:2]]]
        dominant = 2.0 * _dual_distances(faces.duals[[first]], faces.duals[[second]]).item()
    return ExtractedEarthquake(left_factors, cm, bending, dominant, len(heads))


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


def _hyperbolic_blocks(blocks):
    """(t, disc) of each (k, 2, 2) stack of an iterable: the trace t of
    each matrix and its discriminant t * t - 4.0.  Refuses once the
    blocks are spent, as one pass over them would: a discriminant that
    overflows in any block before a matrix that is not hyperbolic, named
    by the first one's trace; no block is yielded once either is seen."""
    too_large, bad = False, None
    for block in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            t = block[:, 0, 0] + block[:, 1, 1]
            disc = t * t - 4.0
        too_large = too_large or not np.isfinite(disc).all()
        if bad is None and np.any(disc <= 0):
            bad = t[np.argmax(disc <= 0)]
        if not too_large and bad is None:
            yield t, disc
    if too_large:
        raise ValueError("a trace is too large for its fixed points")
    if bad is not None:
        raise ValueError("element is not hyperbolic (trace %.6f)" % bad)


def refuse_nonhyperbolic(stacks):
    """Refuse an iterable of (k, 2, 2) stacks in which a trace is too
    large for its fixed points or a matrix is not hyperbolic, as
    `_hyperbolic_blocks`, once the stacks are spent."""
    for _ in _hyperbolic_blocks(stacks):
        pass


def attracting_thetas(mats):
    """Angle parameter of the attracting fixed point of each hyperbolic
    matrix in a (N, 2, 2) stack, in closed form, one block at a time: the
    eigenvector (b, lam - a) of the larger eigenvalue lam, or (lam - d, c)
    where that is nearly zero (near-diagonal matrices)."""
    out = np.empty(len(mats))
    lo = 0
    blocks = (mats[a:a + EVALUATE_BLOCK] for a in range(0, len(mats), EVALUATE_BLOCK))
    for t, disc in _hyperbolic_blocks(blocks):
        hi = lo + len(t)
        a, b, c, d = (mats[lo:hi, i, j] for i in (0, 1) for j in (0, 1))
        lam = 0.5 * (t + np.copysign(np.sqrt(disc), t))
        v = np.stack([b, lam - a], axis=1)
        near = np.max(np.abs(v), axis=1) < 1e-12 * np.maximum(np.abs(lam), 1.0)
        v[near] = np.stack([lam - d, c], axis=1)[near]
        out[lo:hi] = rp1_stack(v)[1]
        lo = hi
    return out


def _chain_heads(values, gap):
    """Greedy chain over sorted values: the first index, then each time
    the first index j with values[j] - values[i] >= gap, i the last one
    kept.  That difference is monotone in values[j], so a bisection on
    values[i] + gap lands within a step or two of j."""
    heads, i, n = [], 0, len(values)
    while i < n:
        heads.append(i)
        j = bisect.bisect_left(values, values[i] + gap, i + 1)
        while j < n and values[j] - values[i] < gap:
            j += 1
        while j > i + 1 and values[j - 1] - values[i] >= gap:
            j -= 1
        i = j
    return np.array(heads, dtype=np.intp)


# left angles of conjugacy samples closer than this to the last kept are dropped
DEDUP = 1e-4


def sample_conjugacy(rep_l, rep_r, L):
    """Graph samples of the circle map conjugating two Fuchsian-like
    representations: the attracting fixed point of rep_l(w) pairs with
    that of rep_r(w) over all nontrivial ball-L words.  Left angles
    closer than DEDUP to the last kept one are dropped; among exactly
    equal left angles the smallest right angle is kept.  The graph's
    `diagnostics` count the candidate words, the samples the dedup keeps
    and those the jitter rule then drops.

    The left matrices go once their angles are taken; rep_r is then
    evaluated in blocks along the ball's words, and only the rows the
    dedup keeps are held.  Every row is still refused as a
    whole evaluation would be: an overflow anywhere, then a trace too
    large for its fixed points, then a matrix that is not hyperbolic."""
    ball = GroupBall(rep_l, L)
    left = attracting_thetas(ball.elements[1:])
    del ball.elements
    order = np.argsort(left, kind="stable")
    lefts = left[order]
    heads = _chain_heads(memoryview(lefts), DEDUP)
    # each kept head's run of equal left angles; right angles only there
    runs = np.searchsorted(lefts, lefts[heads], side="right") - heads
    starts = np.cumsum(runs) - runs
    rows = 1 + order[np.arange(runs.sum()) + np.repeat(heads - starts, runs)]
    candidates = len(left)
    del left, order
    by_row = np.argsort(rows)
    sorted_rows, right = rows[by_row], np.empty((len(rows), 2, 2))

    def blocks():
        for lo, block in ball.products(rep_r):
            a, b = np.searchsorted(sorted_rows, [lo, lo + len(block)])
            right[by_row[a:b]] = block[sorted_rows[a:b] - lo]
            if lo:
                yield block

    refuse_nonhyperbolic(blocks())
    rights = np.minimum.reduceat(attracting_thetas(right), starts)
    kept = list(zip(lefts[heads].tolist(), rights.tolist()))
    # the per-element arrays go before the graph's arrays are made: made
    # above them on the heap, those would keep their memory from the system
    del ball, lefts, heads, runs, starts, rows, by_row, sorted_rows, right, rights
    if len(kept) > 1 and (kept[0][0] - kept[-1][0]) % 1.0 < DEDUP:
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
    graph = CircleGraph(clean)
    graph.diagnostics = {"conjugacy_candidates": candidates, "conjugacy_dedup_kept": len(kept),
                         "conjugacy_jitter_dropped": len(kept) - len(clean)}
    return graph


def dependence_membership(p, graph):
    """Whether the dual plane of p misses the sampled graph circle.

    Returns True/False by the sign pattern of the incidences, or None
    when the test is indeterminate (planar graph, or a sample within
    EPS of the plane).
    """
    p = np.asarray(p, dtype=float).reshape(4)
    if graph.is_planar():
        return None
    pts = graph.points()
    inc = qpair(p, pts)
    scale = np.linalg.norm(p) * np.linalg.norm(pts, axis=1)
    if np.any(np.abs(inc) < EPS * scale):
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
