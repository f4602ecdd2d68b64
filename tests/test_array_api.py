"""The package's one value type for group elements, ideal points and
planes is the array: `Mat2` and `RP1Point` are the scalar reference of
`minkowski`, which no other module binds, the functions that once
returned them return arrays, and a plane is its (4,) label.  And the
package holds no code that only the tests call."""

import ast
import glob
import importlib
import os
import pkgutil
import re

import numpy as np

import lorentz21
from lorentz21 import minkowski
from lorentz21.adshull import (CircleGraph, convex_hull, disjoint_spacelike_plane, plane_classes,
                               plane_z_equals)
from lorentz21.fuchsian import axis, regular_polygon_rep


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


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# public names that only tests call and that stay in the package: the
# paper's constructions, which the acceptance tests check, the ruling,
# plane and lifted-lamination constructors of the paper's examples, and
# bundled, the package's entry to its sample files
TEST_ONLY_ALLOWED = {"lemma5_configuration", "StandardTorusSpacetime",
                     "cyclic_initial_singularity", "quadric_action_example",
                     "dependence_membership", "rulings_of", "plane_z_equals",
                     "equivariant_lamination", "bundled"}

# public methods that only tests call and that stay in the package, as
# Class.method; every method of the classes in TEST_ONLY_CLASSES stays
TEST_ONLY_METHODS = {
    # the centring of representations will conjugate them
    "Representation.conjugate",
    # paper constructions the ROADMAP keeps
    "LorentzIsometry.identity", "LorentzIsometry.compose",
    "StandardTorusSpacetime.contains", "CyclicSingularitySegment.length",
}
# the scalar reference of minkowski, whose methods the benchmark binds
TEST_ONLY_CLASSES = {"Mat2", "RP1Point"}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _names(path, strings):
    """Every name a file reads, imports or looks up as an attribute;
    with strings, also the parts of its dotted-name string constants,
    as the benchmark's tracer names its targets."""
    out = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            out.update(node.value.split("."))
    return out


def test_every_public_name_has_a_program_caller():
    """A top-level public function or class of the package, or a public
    method of one of its classes, is named by the package's code or by
    the benchmark's, or is allowed above: code only the tests call lives
    under tests/."""
    src = sorted(glob.glob(os.path.join(ROOT, "src", "lorentz21", "*.py")))
    named = set().union(*(_names(path, False) for path in src),
                        *(_names(path, True)
                          for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))))
    defs = [(os.path.basename(path), node) for path in src for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [(module, node.name) for module, node in defs
              if not node.name.startswith("_") and node.name not in named | TEST_ONLY_ALLOWED]
    unused += [(module, "%s.%s" % (cls.name, node.name)) for module, cls in defs
               if isinstance(cls, ast.ClassDef) and cls.name not in TEST_ONLY_CLASSES
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
               and node.name not in named
               and "%s.%s" % (cls.name, node.name) not in TEST_ONLY_METHODS]
    assert len(src) > 5 and not unused, "only tests call %s" % unused
