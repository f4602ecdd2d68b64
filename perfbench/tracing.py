"""Spans and counters recorded around calls into lorentz21's layers.

The wrappers live here, in the benchmark, and are installed into an
operation's own process after it has imported lorentz21.  Every module
binding of a wrapped function is replaced, so a call made through
`from .fuchsian import euler_class` nests under its caller exactly like
a call made through `fuchsian.euler_class`; methods are wrapped on their
class, which covers every binding of the class.  Spans are kept in
memory as [name, start, end, parent] records and written out as JSONL
when the operation ends; the parent process turns them into per-layer
self times.
"""

import collections
import inspect
import json
import sys
import time


class Recorder:
    """In-memory span stack and counters of one operation process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    def bump(self, name, amount=1):
        self.counts[name] += amount

    def high(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def dump(self, path, op_id):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"op": op_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"op": op_id, "counters": dict(self.counts)}) + "\n")


# --- counter hooks ------------------------------------------------------
# A span hook runs after its call returns, when the innermost open span is
# the caller's; it gets the call's bound arguments and its result.

def _ball_built(rec, a, out):
    n = len(a["self"].elements)
    rec.bump("fuchsian.ball_builds")
    rec.bump("fuchsian.ball_elements", n)
    if rec.current() == "adshull.conjugacy":
        rec.bump("adshull.conjugacy_tried", n - 1)


def _leaf_lifts_hit(rec, a):
    from lorentz21.fuchsian import parse_word

    w = a["w"]
    if isinstance(w, str):
        w = parse_word(w, a["rep"].genus)
    hit = (w, a["radius"]) in getattr(a["rep"], "_lift_cache", {})
    rec.bump("laminations.lift_calls")
    rec.bump("laminations.lift_hits", int(hit))
    return hit


def _leaf_lifts(rec, a, out, hit):
    if not hit:
        rec.bump("laminations.lift_leaves", len(out))


def _multicurve_lifts(rec, a, out):
    if rec.current() == "laminations.crossings":
        rec.high("laminations.crossing_radius_max", a["radius"])


def _crossings(rec, a, out):
    rec.bump("laminations.crossings_calls")


def _sweep(rec, a, out):
    rec.bump("flatspace.sweep_pairs", len(a["ball"]) ** 2)
    rec.high("flatspace.sweep_ball_radius", a["ball"].radius)


def _develop(rec, a, out):
    rec.bump("flatspace.develop_samples", len(out))


def _conjugacy(rec, a, out):
    rec.bump("adshull.conjugacy_kept", len(out))


def _hull(rec, a, out):
    rec.bump("adshull.hull_faces", len(out.faces))


# span name -> [(module, attribute, hook)] of every function or method it
# covers; a hook taking a fourth argument gets what _BEFORE returned
SPANS = {
    "fuchsian.ball": [("fuchsian", "GroupBall.__init__", _ball_built)],
    "fuchsian.euler": [("fuchsian", "euler_class", None),
                       ("fuchsian", "milnor_wood_ok", None)],
    "laminations.lifts": [("laminations", "leaf_lifts", _leaf_lifts),
                          ("laminations", "multicurve_lifts", _multicurve_lifts)],
    "laminations.disjoint": [("laminations", "disjointness_check", None)],
    "laminations.crossings": [("laminations", "crossings", _crossings)],
    "laminations.basepoint": [("laminations", "default_basepoint", None)],
    "flatspace.cocycle": [("flatspace", "cocycle_from_lamination", None)],
    "flatspace.sweep": [("flatspace", "cocycle_identity_sweep", _sweep)],
    "flatspace.develop": [("flatspace", "develop_surface", _develop)],
    "flatspace.patch_checks": [("flatspace", "graph_slope_check", None),
                               ("flatspace", "injectivity_gap", None),
                               ("flatspace", "support_planes", None)],
    "quakes.shear_rep": [("quakes", "rep_after_earthquake", None)],
    "quakes.boundary": [("quakes", "boundary_value", None)],
    "quakes.apply": [("quakes", "EarthquakeMap.apply", None),
                     ("quakes", "EarthquakeMap.one_sided_values", None)],
    "adshull.conjugacy": [("adshull", "sample_conjugacy", _conjugacy)],
    "adshull.hull": [("adshull", "convex_hull", _hull),
                     ("adshull", "HullComplex.convexity_slack", None),
                     ("adshull", "HullComplex.vertex_on_quadric_error", None)],
    "adshull.extract": [("adshull", "extract_left_earthquake", None)],
    "adshull.bending": [("adshull", "bending_data", None)],
    # self time of the commands: parsing, formatting and writing
    "cli.io": [("cli", name, None) for name in
               ("cmd_euler", "cmd_flat", "cmd_quake", "cmd_ads_hull", "cmd_ads_between")],
}
_BEFORE = {("laminations", "leaf_lifts"): _leaf_lifts_hit}


# Counters on hot calls: no span and no argument binding.

def _same_geodesic(rec, args, kwargs, out):
    if rec.current() == "laminations.disjoint":
        rec.bump("laminations.disjoint_pairs")


def _separating(rec, args, kwargs, out):
    rec.bump("quakes.leaves_scanned", len(args[0].lamination.leaves))
    rec.bump("quakes.leaves_crossed", len(out))


def _qhull(rec, args, kwargs, out):
    if "QJ" in (kwargs.get("qhull_options") or ""):
        rec.bump("adshull.qhull_joggles")


COUNTERS = [
    ("minkowski", "Mat2.__init__", lambda rec, a, k, o: rec.bump("minkowski.mat2_objects")),
    ("minkowski", "RP1Point.__init__", lambda rec, a, k, o: rec.bump("minkowski.rp1_objects")),
    ("laminations", "same_geodesic", _same_geodesic),
    # the base class only: the equivariant map's override goes through crossings
    ("quakes", "EarthquakeMap._separating", _separating),
    ("adshull", "ConvexHull", _qhull),
]


def _rebind(module, attr, wrap):
    """Replace `module.attr` by `wrap(original)`: on the class for a
    method, else in every lorentz21 namespace that binds the original."""
    owner = sys.modules["lorentz21." + module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, meth, wrap(getattr(cls, meth)))
        return
    original = getattr(owner, attr)
    wrapper = wrap(original)
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "lorentz21" or name.startswith("lorentz21.")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _span(rec, name, hook, before):
    def wrap(fn):
        sig = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig is not None else None
            state = before(rec, bound) if before is not None else None
            rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close()
            if before is not None:
                hook(rec, bound, out, state)
            elif hook is not None:
                hook(rec, bound, out)
            return out
        return traced
    return wrap


def _counter(rec, count):
    def wrap(fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(rec, args, kwargs, out)
            return out
        return counted
    return wrap


def install(rec):
    """Wrap every target in the lorentz21 modules the process has imported."""
    loaded = {n.split(".", 1)[1] for n in sys.modules if n.startswith("lorentz21.")}
    for module, attr, count in COUNTERS:
        if module in loaded:
            _rebind(module, attr, _counter(rec, count))
    for name, targets in SPANS.items():
        for module, attr, hook in targets:
            if module in loaded:
                _rebind(module, attr, _span(rec, name, hook, _BEFORE.get((module, attr))))
