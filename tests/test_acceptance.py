"""Acceptance suite: one pass/fail line per criterion.

Each criterion prints exactly one line "CRITERION <k>: PASS ..." or
"CRITERION <k>: FAIL ..." with the measured quantities, and asserts the
stated tolerances.  The lines bypass pytest's output capture so they
appear in a plain "pytest -v" run.
"""

import math
import time

import numpy as np
import pytest

from lorentz21 import adshull, flatspace, quakes
from lorentz21.fuchsian import (
    GroupBall,
    euler_class,
    regular_polygon_rep,
)
from lorentz21.laminations import WeightedMulticurve
from lorentz21.minkowski import CausalClass, Mat2, RP1Point, classify
from reference import (GeodesicH2, boundary_point, leaves_of, real_boundary_point, trivial_rep,
                       uhp_point)


@pytest.fixture(scope="module")
def octagon():
    return regular_polygon_rep(2)


_CAPMAN = [None]


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    _CAPMAN[0] = request.config.pluginmanager.getplugin("capturemanager")
    yield


def verdict(k, ok, detail):
    line = "CRITERION %d: %s  %s" % (k, "PASS" if ok else "FAIL", detail)
    capman = _CAPMAN[0]
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line)
    return ok


def test_criterion_1_euler_class(octagon):
    t0 = time.perf_counter()
    e_trivial = euler_class(trivial_rep(2))
    e_oct = euler_class(octagon)
    rng = np.random.default_rng(17)
    conj_ok = True
    tried = 0
    while tried < 20:
        c = rng.normal(size=(2, 2))
        if np.linalg.det(c) < 0.1:
            continue
        tried += 1
        conj_ok = conj_ok and euler_class(octagon.conjugate(c)) == e_oct
    dt = time.perf_counter() - t0
    ok = e_trivial == 0 and abs(e_oct) == 2 and conj_ok and dt < 5.0
    assert verdict(1, ok, "trivial e=%d, octagon |e|=%d, 20 conjugations %s, %.2fs"
                   % (e_trivial, abs(e_oct), "exact" if conj_ok else "BROKEN", dt))


def test_criterion_2_cocycle_suite(octagon):
    t0 = time.perf_counter()
    ball = GroupBall(octagon, 3)
    worst_id = 0.0
    worst_rel = 0.0
    cocs = {}
    for w in (0.1, 1.0, 5.0):
        mc = WeightedMulticurve([("a1", w)])
        coc = flatspace.cocycle_from_lamination(octagon, mc, L=3)
        cocs[w] = coc
        worst_rel = max(worst_rel, flatspace.relator_residual(coc))
        worst_id = max(worst_id, flatspace.cocycle_identity_sweep(coc, ball))
    lin = 0.0
    for v01, v1, v5 in zip(cocs[0.1].gen_vectors, cocs[1.0].gen_vectors,
                           cocs[5.0].gen_vectors):
        lin = max(lin, float(np.max(np.abs(np.asarray(v01, float) * 10.0
                                           - np.asarray(v1, float)))))
        lin = max(lin, float(np.max(np.abs(np.asarray(v1, float) * 5.0
                                           - np.asarray(v5, float)))))
    dt = time.perf_counter() - t0
    ok = worst_id < 1e-8 and worst_rel < 1e-8 and lin < 1e-9 and dt < 30.0
    assert verdict(2, ok, "identity %.2e, relator %.2e, linearity %.2e, %.1fs"
                   % (worst_id, worst_rel, lin, dt))


def test_criterion_3_cyclic_anchor():
    e = 0.8
    v = flatspace.cyclic_boost_cocycle(1.3, e)
    err_v = float(np.max(np.abs(v - np.array([0.0, e, 0.0]))))
    seg = flatspace.cyclic_initial_singularity(1.3, e)
    err_len = abs(seg.length - e)
    ok = err_v < 1e-12 and err_len < 1e-9
    assert verdict(3, ok, "cocycle error %.2e (tol 1e-12), length error %.2e (tol 1e-9)"
                   % (err_v, err_len))


def test_criterion_4_development(octagon):
    mc = WeightedMulticurve([("a1", 1.0)])
    patch = flatspace.develop_surface(octagon, mc, density=150, L=3, seed=0)
    slope = flatspace.graph_slope_check(patch)
    gap = flatspace.injectivity_gap(patch, max_pairs=10000, seed=1)
    bad_x = sum(1 for x in patch.xvals
                if classify(x) not in (CausalClass.SPACELIKE, CausalClass.ZERO))
    ok = slope < 1.0 and gap >= -1e-9 and bad_x == 0
    assert verdict(4, ok, "slope %.4f (<1), gap %.2e (>=-1e-9) on 10^4 null pairs, "
                   "%d non-spacelike x" % (slope, gap, bad_x))


def test_criterion_5_earthquake_anchors():
    worst_chain = 0.0
    worst_boundary = 0.0
    for s in (2.0, 4.0, 9.0):
        ex = quakes.quadric_action_example(s)
        r = math.sqrt(s)
        worst_chain = max(worst_chain, float(np.max(np.abs(
            ex["end"] - np.array([[s * s, s], [s, 1.0]])))))
        worst_chain = max(worst_chain, float(np.max(np.abs(
            ex["half"] - np.array([[s, r], [r, 1.0]])))))
        leaf = GeodesicH2(real_boundary_point(0.0), real_boundary_point(None))
        lamination = quakes.FiniteLaminationH2(leaves_of([(leaf, math.log(s))]),
                                               uhp_point(-1.0, 1.0))
        quake = quakes.EarthquakeMap(lamination, side="left")
        for rr in (-2.0, -0.5, 0.5, 3.0):
            u, v = boundary_point(quake, real_boundary_point(rr))
            img = u / v
            expect = rr if rr < 0 else s * rr
            worst_boundary = max(worst_boundary,
                                 abs(img - expect) / max(1.0, abs(expect)))
    ok = worst_chain < 1e-12 and worst_boundary < 1e-12
    assert verdict(5, ok, "chain error %.2e, boundary-map error %.2e (tol 1e-12)"
                   % (worst_chain, worst_boundary))


def test_criterion_6_ads_roundtrip(octagon):
    t0 = time.perf_counter()
    details = []
    ok = True
    for w in (0.3, 1.0):
        mc = WeightedMulticurve([("a1", w)])
        rep_r = quakes.rep_after_earthquake(octagon, mc, 1.0, L=3)
        graph = adshull.sample_conjugacy(octagon, rep_r, 6)
        hull = adshull.convex_hull(graph)
        quake = adshull.extract_left_earthquake(hull)
        shear = quake.dominant_shear
        spacing = 1.0 / len(graph)
        sup = 0.0
        for (tl, tr), (_, out) in zip(graph.samples, quake.boundary_map.samples):
            d = abs(out - tr)
            sup = max(sup, min(d, 1.0 - d))
        ok = ok and abs(shear - w) < 0.05 * w and sup <= 10.0 * spacing
        details.append("w=%.1f: shear %.4f (5%% band), sup %.1e <= %.1e"
                       % (w, shear, sup, 10.0 * spacing))
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    assert verdict(6, ok, "; ".join(details) + ", %.0fs" % dt)


def _test_hulls():
    graphs = []
    for s in (2.0, 4.0, 9.0):
        m = Mat2(np.diag([math.sqrt(s), 1.0 / math.sqrt(s)])).m

        def f(t, m=m):
            x = RP1Point.from_theta(t)
            u, v = x.v
            if abs(v) < 1e-15 or u / v >= 0:
                return x.apply(m).theta
            return t

        graphs.append(adshull.CircleGraph([(k / 96.0, f(k / 96.0))
                                           for k in range(96)]))
    return [adshull.convex_hull(g) for g in graphs]


def test_criterion_7_hull_causality():
    lorentzian = 0
    quadric_err = 0.0
    for hull in _test_hulls():
        lorentzian += sum(1 for c in hull.faces.classes if c == "lorentzian")
        quadric_err = max(quadric_err, hull.vertex_on_quadric_error())
    pts = adshull.lemma5_configuration()
    lemma_ok = (adshull.plane_separates(adshull.plane_z_equals(2.0), pts)
                and adshull.plane_separates(adshull.plane_z_equals(-2.0), pts)
                and not adshull.plane_separates(adshull.plane_z_equals(1.5), pts)
                and not adshull.plane_separates(adshull.plane_z_equals(0.0), pts))
    ok = lorentzian == 0 and quadric_err < 1e-9 and lemma_ok
    assert verdict(7, ok, "%d lorentzian faces, quadric error %.1e (tol 1e-9), "
                   "|k|>sqrt(3) family %s" % (lorentzian, quadric_err,
                                              "reproduced" if lemma_ok else "BROKEN"))


def test_criterion_8_bending_factor():
    factors = []
    worst_oracle = 0.0
    for s, hull in zip((2.0, 4.0, 9.0), _test_hulls()):
        pairs, _, _, weights = adshull.bending_data(hull)
        weight = weights[~np.isnan(weights) & hull.faces.future[pairs].all(axis=1)][0]
        # hand oracle: dual points [[0,1],[-1,0]] and [[0,-1],[s,0]]/sqrt(s)
        oracle = math.acosh((math.sqrt(s) + 1.0 / math.sqrt(s)) / 2.0)
        worst_oracle = max(worst_oracle, abs(weight - oracle))
        factors.append(weight / math.log(s))
    spread = max(factors) - min(factors)
    ok = worst_oracle < 1e-9 and spread < 1e-9
    assert verdict(8, ok, "oracle error %.1e (tol 1e-9), factor %.12f constant to %.1e"
                   % (worst_oracle, factors[0], spread))
