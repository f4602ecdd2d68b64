"""The package's one value type for group elements, ideal points and
planes is the array: `Mat2` and `RP1Point` are the scalar reference of
`minkowski`, which no other module binds, the functions that once
returned them return arrays, and a plane is its (4,) label."""

import importlib
import pkgutil

import numpy as np

import lorentz21
from lorentz21 import minkowski
from lorentz21.adshull import (CircleGraph, convex_hull, disjoint_spacelike_plane, plane_classes,
                               plane_z_equals)
from lorentz21.fuchsian import axis, regular_polygon_rep
from lorentz21.quakes import EarthquakeMap, FiniteLaminationH2, real_boundary_point, uhp_point
from reference import GeodesicH2, leaves_of


def test_only_minkowski_binds_the_scalar_types():
    names = [m.name for m in pkgutil.iter_modules(lorentz21.__path__)]
    assert "minkowski" in names and "fuchsian" in names
    for name in names:
        if name == "minkowski":
            continue
        module = importlib.import_module("lorentz21." + name)
        bound = [key for key, value in vars(module).items()
                 if key in ("Mat2", "RP1Point")
                 or value is minkowski.Mat2 or value is minkowski.RP1Point]
        assert not bound, "lorentz21.%s binds %s" % (name, ", ".join(bound))


def test_group_elements_and_ideal_points_are_arrays():
    octagon = regular_polygon_rep(2)
    m = octagon.evaluate((1, 2))
    assert type(m) is np.ndarray and m.shape == (2, 2)
    att, rep, length = axis(m)
    assert type(att) is np.ndarray and type(rep) is np.ndarray
    assert att.shape == rep.shape == (2,) and isinstance(length, float)
    dual = plane_classes(plane_z_equals(2.0)[None])[1][0]
    assert type(dual) is np.ndarray and dual.shape == (2, 2)
    leaf = GeodesicH2(real_boundary_point(0.0), real_boundary_point(None))
    quake = EarthquakeMap(FiniteLaminationH2(leaves_of([(leaf, 1.0)]), uhp_point(-1.0, 1.0)))
    x = quake.boundary_point(real_boundary_point(2.0))
    assert type(x) is np.ndarray and x.shape == (2,)


def test_no_module_binds_a_plane_type():
    for name in [m.name for m in pkgutil.iter_modules(lorentz21.__path__)]:
        module = importlib.import_module("lorentz21." + name)
        bound = [key for key in ("ProjectivePlane", "vec_of") if key in vars(module)]
        assert not bound, "lorentz21.%s binds %s" % (name, ", ".join(bound))


def test_planes_are_labels():
    graph = CircleGraph([(k / 24, (k / 24) ** 2) for k in range(24)])
    for label in (plane_z_equals(2.0), disjoint_spacelike_plane(graph),
                  convex_hull(graph).chart_plane):
        assert type(label) is np.ndarray and label.dtype == float and label.shape == (4,)
