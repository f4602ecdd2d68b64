"""Benchmark runner for lorentz21.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.
It generates the workload's inputs from the seed (timed as set-up),
then runs the workload's operations one at a time, each in a fresh
process so every cache starts empty, and repeats the sequence until the
time budget is spent (at least once).  Every report is checked
by the workload's oracles.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced sequences and
reports per-layer metrics from the spans the traced ones wrote.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it holds the details: every operation's
median wall time, the error rate and each failure.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5   # at the start; one more follows every operation
DEADLINE_S = 170.0

PER_LAYER = [
    # span self times, seconds
    "cli.import_s", "cli.io_s", "fuchsian.ball_s", "fuchsian.euler_s",
    "laminations.lifts_s", "laminations.disjoint_s", "laminations.crossings_s",
    "laminations.basepoint_s", "flatspace.cocycle_s", "flatspace.sweep_s",
    "flatspace.develop_s", "flatspace.patch_checks_s", "quakes.shear_rep_s",
    "quakes.boundary_s", "quakes.apply_s", "adshull.conjugacy_s", "adshull.hull_s",
    "adshull.extract_s", "adshull.bending_s",
    # counts
    "cli.bytes_out", "minkowski.mat2_objects", "minkowski.rp1_objects",
    "fuchsian.ball_builds", "fuchsian.ball_elements", "laminations.lift_leaves",
    "laminations.disjoint_pairs", "laminations.crossings_calls",
    "laminations.crossing_radius_max", "flatspace.sweep_pairs",
    "flatspace.sweep_ball_radius", "flatspace.develop_samples", "quakes.leaves_scanned",
    "quakes.leaves_crossed", "adshull.hull_faces", "adshull.qhull_joggles",
    # ratios
    "laminations.lift_hit_ratio", "quakes.crossing_hit_ratio",
    "adshull.conjugacy_kept_ratio", "trace.overhead",
]
RATIOS = {
    "laminations.lift_hit_ratio": ("laminations.lift_hits", "laminations.lift_calls"),
    "quakes.crossing_hit_ratio": ("quakes.leaves_crossed", "quakes.leaves_scanned"),
    "adshull.conjugacy_kept_ratio": ("adshull.conjugacy_kept", "adshull.conjugacy_tried"),
}
MAX_COUNTERS = ("laminations.crossing_radius_max", "flatspace.sweep_ball_radius")


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "ratio" if metric.endswith(("_ratio", "overhead", "_rate")) else "count"


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def run_op(op, op_id, root, d, deadline, trace):
    """Run one operation in a fresh process; returns (wall_s, rss_mb,
    exit code, report or None, stdout path, spans path or None)."""
    spec = dict(op.spec)
    tag = "%d-%s" % (op_id, op.metric)
    if trace:
        spec.update(trace=os.path.join(d, tag + ".spans.jsonl"), op_id=op_id)
    spec_path = os.path.join(d, tag + ".spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out_path = os.path.join(d, tag + ".out")
    with open(out_path, "wb") as out, open(os.path.join(d, tag + ".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "op.py"), spec_path],
                                stdout=out, stderr=err, env=env, cwd=root)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - time.monotonic()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        with open(out_path) as fh:
            report = json.load(fh)
    except ValueError:
        report = None
    return wall, usage.ru_maxrss / 1024.0, code, report, out_path, spec.get("trace")


def bytes_out(op, stdout_path):
    """Bytes a CLI operation wrote: its report plus the files in --out."""
    if op.spec["kind"] != "cli":
        return 0
    argv = op.spec["argv"]
    n = os.path.getsize(stdout_path)
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        n += sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
    return n


class SetUp:
    """The workload's set-up: a fresh process that writes the seed's
    inputs into a directory.  Every call is timed, and every set-up of a
    run must write the same files."""

    def __init__(self, workload, seed, env):
        self.argv = [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed)]
        self.env = env
        self.times = []
        self.digests = set()

    def __call__(self, dest):
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        t0 = time.perf_counter()
        text = subprocess.run(self.argv + [dest], env=self.env, check=True,
                              stdout=subprocess.PIPE, timeout=60).stdout
        self.times.append(time.perf_counter() - t0)
        digest = hashlib.sha256(text.replace(dest.encode(), b""))
        for f in sorted(os.listdir(dest)):
            with open(os.path.join(dest, f), "rb") as fh:
                digest.update(f.encode() + b"\0" + fh.read())
        self.digests.add(digest.hexdigest())
        return text


class Run:
    """State of one benchmark run: op results, failures, traces."""

    def __init__(self, root, out):
        self.root = root
        self.out = out
        self.times = {}        # op metric -> [wall_s]
        self.rss = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []     # every failed oracle, and any other anomaly
        self.first = {}        # op index -> (values, checks) of its first run
        self.sequences = {False: [], True: []}   # traced? -> [sequence wall_s]
        self.layers = []       # per traced sequence: {metric: value}

    def sequence(self, ops, deadline, trace, after_op):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        total = 0.0
        traces = []
        for i, op in enumerate(ops):
            wall, rss, code, report, stdout, spans = run_op(op, i, self.root, self.out,
                                                            deadline, trace)
            total += wall
            self.attempted += 1
            self.times.setdefault(op.metric, []).append(wall)
            self.rss = max(self.rss, rss)
            problems = self.check(i, op, code, report)
            if problems:
                self.failed += 1
                self.problems.append({"op": op.metric, "traced": trace, "problems": problems})
            if trace:
                traces.append((spans, bytes_out(op, stdout) if code == 0 else 0))
            after_op()
        self.sequences[trace].append(total)
        if trace:
            self.layers.append(per_layer(traces))

    def check(self, i, op, code, report):
        if report is None:
            return ["exit %d, no JSON report" % code]
        problems = []
        if code != 0:
            problems.append("exit code %d" % code)
        if "checks" not in report:
            return problems + ["error report: %s" % report.get("error")]
        problems += ["check %s failed: %r > %r" % (c["name"], c["residual"], c["tolerance"])
                     for c in report["checks"] if not c["ok"]]
        try:
            problems += op.oracle(report)
        except (KeyError, TypeError) as exc:
            problems.append("report lacks what the oracle reads: %r" % exc)
        seen = (report.get("values"), report["checks"])
        if self.first.setdefault(i, seen) != seen:
            problems.append("values or checks differ from this seed's first run")
        return problems


def per_layer(traces):
    """Per-layer metrics of one traced sequence from its ops' span files."""
    totals = {}
    counts = {}
    for path, nbytes in traces:
        counts["cli.bytes_out"] = counts.get("cli.bytes_out", 0) + nbytes
        if not os.path.exists(path):
            continue
        spans = {}
        child = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if "counters" in rec:
                    for k, v in rec["counters"].items():
                        if k in MAX_COUNTERS:
                            counts[k] = max(counts.get(k, 0), v)
                        else:
                            counts[k] = counts.get(k, 0) + v
                    continue
                if rec["end"] is None:
                    continue
                dur = rec["end"] - rec["start"]
                spans[rec["id"]] = (rec["name"], dur)
                if rec["parent"] is not None:
                    child[rec["parent"]] = child.get(rec["parent"], 0.0) + dur
        for i, (name, dur) in spans.items():
            totals[name + "_s"] = totals.get(name + "_s", 0.0) + dur - child.get(i, 0.0)
    out = {}
    for metric in PER_LAYER:
        if metric in RATIOS:
            num, den = RATIOS[metric]
            out[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif unit(metric) == "s":
            out[metric] = totals.get(metric, 0.0)
        elif metric != "trace.overhead":
            out[metric] = counts.get(metric, 0)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    start = time.monotonic()
    deadline = start + DEADLINE_S
    signal.signal(signal.SIGALRM, _alarm)
    # on SIGTERM, unwind through run_op and subprocess.run, which kill and
    # reap the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lorentz21", "cli.py")):
        sys.stderr.write("perfbench: no src/lorentz21 under %s; run from a lorentz21 checkout\n"
                         % root)
        return 2
    workload = WORKLOADS[args.workload]
    d = os.path.join(root, ".perfbench", workload.name)
    env = dict(os.environ, PYTHONPATH=src)
    # set-ups are spread over the run, one after every operation, so
    # setup_s samples the host at the same times as the operations
    setup = SetUp(workload.name, args.seed, env)
    inputs = json.loads(setup(os.path.join(d, "inputs")))
    spare = os.path.join(d, "setup")
    for _ in range(SETUP_REPEATS - 1):
        setup(spare)
    run = Run(root, os.path.join(d, "out"))
    ops = workload.ops(inputs, args.seed, run.out)

    # run whole sequences while at least half of the next one is expected
    # to fit in the budget; with tracing, untraced and traced sequences
    # alternate so the overhead ratio compares neighbours in time
    pattern = [False, True] if args.trace else [False]
    t0 = time.monotonic()
    while True:
        for traced in pattern:
            run.sequence(ops, deadline, traced, lambda: setup(spare))
        spent = time.monotonic() - t0
        est = sum(statistics.median(run.sequences[t]) for t in pattern)
        if spent + est / 2 > args.seconds or time.monotonic() + 1.5 * est > deadline:
            break

    if len(setup.digests) != 1:
        run.problems.append({"op": "setup", "problems": ["inputs differ between set-ups"]})
    ops_detail = {op.metric: {"value": statistics.median(run.times[op.metric]), "unit": "s",
                              "runs": len(run.times[op.metric])} for op in ops}
    e2e = {
        "wall_s": statistics.median(run.sequences[False]),
        "peak_rss_mb": run.rss,
        "setup_s": statistics.median(setup.times),
    }
    detail = {"workload": workload.name, "seed": args.seed,
              "sequences": {"untraced": run.sequences[False], "traced": run.sequences[True]},
              "metrics": dict({k: {"value": v, "unit": unit(k)} for k, v in e2e.items()},
                              error_rate={"value": run.failed / run.attempted, "unit": "ratio"},
                              **ops_detail),
              "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              # equal across runs of one seed when the outputs are deterministic
              "outputs_sha256": hashlib.sha256(json.dumps(
                  sorted(run.first.items()), sort_keys=True).encode()).hexdigest()}
    if args.trace:
        layers = {}
        for metric in PER_LAYER:
            if metric == "trace.overhead":
                layers[metric] = (statistics.median(run.sequences[True])
                                  / statistics.median(run.sequences[False]))
            elif unit(metric) == "count":
                values = {seq[metric] for seq in run.layers}
                if len(values) != 1:
                    run.problems.append({"op": "trace", "problems": [
                        "%s differs between traced sequences: %s" % (metric, sorted(values))]})
                layers[metric] = run.layers[0][metric]
            else:
                layers[metric] = statistics.median(seq[metric] for seq in run.layers)
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: detail["metrics"][k] for k in e2e}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
