"""The repository benchmark: seeded workloads against modmacd's public API.

    python3 bench/run.py --workload phi_routes --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Load model: a closed loop with one client.  This process starts one fresh
interpreter per pass (bench/child.py), one at a time; inside a pass the
operations run one after another.  Module caches are cold at the start of
each pass and warm up across it, as they do for every CLI invocation.
Passes repeat, on the same seeded inputs, until --seconds is used up (at
least MIN_PASSES), and the metrics are medians over passes.

Every time is reported at one reference speed of the host: each pass's
times are multiplied by REF_SLICE_S over the mean time of the reference
slices that the pass ran between its operations (see child.py).  The
unscaled times are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.  The
lines before it give every metric with its unit, ``fail_frac``, the output
digest and the machine record.  Each run's record, and with ``--trace 1``
its spans, is written to bench/out/.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import MODULES  # noqa: E402

MIN_PASSES = 3
# Nominal time of one reference slice, the speed all times are scaled to.
# On a shared 2-vCPU VM (Intel Xeon) plain Python ran up to ~25% slower for
# tens of seconds to minutes at a time, in CPU time as much as in wall time,
# so unscaled medians of runs minutes apart differed by more than any useful
# bound.  The slices run the same kind of code in the same process and
# nothing from modmacd, so the scaling removes the host's speed and keeps
# every change to the library.
REF_SLICE_S = 0.005
RUN_LIMIT_S = 170  # a run must end within 180 s

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


class HarnessError(Exception):
    """A pass could not run: no result is printed for the run."""


def machine_record():
    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(), "cpu_model": model,
            "loadavg_at_start": read("/proc/loadavg").split()[:3]}


def run_pass(workload, seed, trace, small, inject_wrong, deadline):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if small:
        cmd.append("--small")
    if inject_wrong:
        cmd.append("--inject-wrong")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise HarnessError("pass exceeded the %d s run limit" % RUN_LIMIT_S)
    if proc.returncode != 0:
        raise HarnessError("pass exited with %d:\n%s"
                           % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_scale(p, kind=0):
    """REF_SLICE_S over the mean reference-slice time of pass p, in wall
    (kind 0) or CPU (kind 1) time."""
    return REF_SLICE_S / statistics.fmean(r[kind] for r in p["ref"])


def tail_level(ops_per_pass):
    """Highest whole percentile with at least 10 of a pass's operations
    beyond it.  Passes repeat the same operations, so counting repeats would
    put the tail on the three or four costliest inputs of the seed."""
    if ops_per_pass <= 10:
        raise HarnessError("%d operations per pass leave no tail"
                           % ops_per_pass)
    return int(100 * (1 - 10 / ops_per_pass))


def percentile(values, level):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-len(ordered) * level // 100)
    return ordered[rank - 1]


def run_workload(workload, seed, seconds, trace=False, small=False,
                 inject_wrong=False):
    """Run passes for `seconds`; returns the summary dict of the run."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        trace_this = trace and len(traced) < len(plain)
        (traced if trace_this else plain).append(
            run_pass(workload, seed, trace_this, small, inject_wrong,
                     deadline))
        done = plain + traced
        elapsed = time.monotonic() - start
        longest = max(p["setup_s"] + p["wall_s"] for p in done)
        enough = len(traced) >= 2 if trace else len(plain) >= MIN_PASSES
        if enough and elapsed + longest > seconds:
            break
        if elapsed + longest > RUN_LIMIT_S - 5:
            break

    done = plain + traced
    ops = [rec for p in done for rec in p["ops"]]
    failed = sum(1 for rec in ops if not rec[2])
    digests = sorted({p["digest"] for p in done})
    per_pass = len(done[0]["ops"])
    level = tail_level(per_pass)
    # Passes repeat the same operations in the same order: an operation's
    # latency is its median over the passes, and the percentiles are taken
    # over the distinct operations.
    lat_ms = [1e3 * statistics.median(p["ops"][i][1] * host_scale(p)
                                      for p in plain)
              for i in range(per_pass)]

    def scaled(key, kind=0):
        return statistics.median(p[key] * host_scale(p, kind) for p in plain)

    e2e = {
        "setup_s": scaled("setup_s"),
        "wall_s": scaled("wall_s"),
        "cpu_s": scaled("cpu_s", 1),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": percentile(lat_ms, level),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    summary = {
        "workload": workload, "seed": seed, "small": small,
        "passes": len(plain), "traced_passes": len(traced),
        "ops_per_pass": per_pass, "attempted": len(ops), "failed": failed,
        "fail_frac": failed / len(ops), "tail_level": level,
        "digest": digests[0] if len(digests) == 1 else None,
        "digests": digests, "end_to_end": e2e,
        "unscaled": {key: statistics.median(p[key] for p in plain)
                     for key in ("setup_s", "wall_s", "cpu_s")},
        "ref_slice_ms": statistics.median(
            1e3 * statistics.fmean(r[0] for r in p["ref"]) for p in plain),
        "pass_s": [[p["setup_s"], p["wall_s"], p["cpu_s"], host_scale(p)]
                   for p in plain],
        "errors": [e for p in done for e in p["errors"]][:5],
    }
    if trace:
        summary["per_layer"] = per_layer_metrics(plain, traced)
        summary["spans"] = traced[0]["trace"]["spans"]
    summary["correct"] = failed == 0 and len(digests) == 1
    return summary


def per_layer_metrics(plain, traced):
    """Counts from the first traced pass (every pass makes the same calls),
    times as medians over traced passes, at the reference speed."""
    first = traced[0]["trace"]

    def med(get):
        return statistics.median(get(p) * host_scale(p) for p in traced)

    def wall(passes):
        return statistics.median(p["wall_s"] * host_scale(p) for p in passes)

    out = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name == "exactalg.mul.term_pairs":
            value = first["term_pairs"]
        elif name == "phi.normalized.hit_ratio":
            calls = first["calls"]["phi.normalized"]
            value = 1 - first["positive_under_normalized"] / calls \
                if calls else 0.0
        elif name == "exactalg.rf_ops.self_s":
            value = med(lambda p: p["trace"]["rf_self_s"])
        elif name == "bench.self_s":
            value = med(lambda p: p["wall_s"] - p["trace"]["library_s"])
        elif name == "trace.wall_s":
            value = wall(traced)
        elif name == "trace.overhead_s":
            value = wall(traced) - wall(plain)
        elif kind == "calls":
            value = first["calls"][base]
        elif kind == "count":
            value = first["items"][base]
        elif kind == "size":
            value = first["caches"][base.split(".", 1)[1]]
        elif base in MODULES:
            value = med(lambda p: p["trace"]["module_self_s"][base])
        else:
            value = med(lambda p: p["trace"]["self_s"][base])
        out[name] = {"value": value, "unit": unit}
    return out


def report(summary, machine):
    """Human-readable lines, then the result line the driver reads."""
    print("# machine %s" % json.dumps(machine, sort_keys=True))
    print("# %s seed=%d passes=%d ops/pass=%d digest=%s"
          % (summary["workload"], summary["seed"], summary["passes"],
             summary["ops_per_pass"], summary["digest"] or
             "MISMATCH %s" % summary["digests"]))
    e2e = summary["end_to_end"]
    parts = []
    for name, unit in END_TO_END:
        parts.append("%s=%.6g %s" % (name, e2e[name], unit))
        if name == "op_ms_tail":
            parts[-1] += " (p%d of %d ops, each a median of %d passes)" % (
                summary["tail_level"], summary["ops_per_pass"],
                summary["passes"])
    parts.append("fail_frac=%.6g ratio (%d/%d)" % (
        summary["fail_frac"], summary["failed"], summary["attempted"]))
    print("# " + "  ".join(parts))
    unscaled = sorted(summary["unscaled"].items())
    print("# unscaled: %s; reference slice %.4g ms (nominal %.4g ms)" % (
        "  ".join("%s=%.6g s" % kv for kv in unscaled),
        summary["ref_slice_ms"], 1e3 * REF_SLICE_S))
    for err in summary["errors"]:
        print("# error: " + err.replace("\n", "\n#   "))
    if "per_layer" in summary:
        layer = summary["per_layer"]
        total = sum(layer["%s.self_s" % m]["value"]
                    for m in MODULES + ("bench",))
        shares = ", ".join("%s %.1f%%" % (m, 100 * layer[m + ".self_s"]
                                          ["value"] / total)
                           for m in MODULES + ("bench",))
        print("# self-time shares: " + shares)
        print("# exactalg self time under rational-function operations: "
              "%.1f%%" % (100 * layer["exactalg.rf_ops.self_s"]["value"]
                          / total))
        print("# tracing overhead: %.4g s (traced %.4g s vs untraced %.4g s)"
              % (layer["trace.overhead_s"]["value"],
                 layer["trace.wall_s"]["value"], e2e["wall_s"]))
        metrics = layer
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))


def save(summary, machine):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (
        summary["workload"], summary["seed"], int("per_layer" in summary)))
    with open(path, "w") as fh:
        json.dump(dict(summary, machine=machine), fh, sort_keys=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, exit through subprocess.run, which kills and reaps the
    # running pass instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    machine = machine_record()
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    ok = True
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds,
                                   trace=bool(args.trace))
        except HarnessError as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 2
        save(summary, machine)
        report(summary, machine)
        ok = ok and summary["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
