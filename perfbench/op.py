"""Run one benchmark operation in this (fresh) process.

    python3 perfbench/op.py SPEC.json

SPEC is {"kind": "cli", "argv": [...]} for a `lorentz21` command, run
through `lorentz21.cli.main(argv)` as the console script does, or
{"kind": "shear", ...} for one library call.  Library
operations print a report shaped like the CLI's ({"values", "checks"}).
With "trace": PATH the layer wrappers are installed after the import and
the spans are written to PATH as JSONL when the operation ends.  The
exit status is the operation's: 0 pass, 1 a check failed, 2 bad input.
"""

import importlib
import json
import os
import sys


def _check(name, residual, bound):
    """A CLI-style check that passes when residual < bound."""
    return {"name": name, "residual": float(residual), "tolerance": bound,
            "ok": bool(residual < bound)}


def shear(spec):
    """rep_after_earthquake(rep, curve, w, L=3), written to spec["out"]."""
    from lorentz21 import laminations, quakes
    from lorentz21.fuchsian import Representation

    rep = Representation.load(spec["rep"])
    mc = laminations.WeightedMulticurve.load(spec["multicurve"])
    rep_r = quakes.rep_after_earthquake(rep, mc, spec["scale"], L=3)
    with open(spec["out"], "w") as fh:
        json.dump(rep_r.to_json(), fh, sort_keys=True, indent=2)
    defect = rep_r.relator_defect()
    return {"values": {"relator_defect": defect}, "checks": [_check("relator", defect, 1e-6)]}


# operation kind -> (call, the module a library user imports for it)
LIBRARY = {"shear": (shear, "lorentz21.quakes")}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    rec = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        rec = tracing.Recorder()
    cli = spec["kind"] == "cli"
    call, module = (None, "lorentz21.cli") if cli else LIBRARY[spec["kind"]]
    try:
        if rec:
            rec.open("cli.import" if cli else "lib.import")
        imported = importlib.import_module(module)
        if rec:
            rec.close()
            tracing.install(rec)
        if cli:
            return imported.main(spec["argv"])
        report = call(spec)
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return 0 if all(c["ok"] for c in report["checks"]) else 1
    finally:
        if rec:
            rec.dump(spec["trace"], spec["op_id"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
