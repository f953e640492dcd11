"""One pass of a workload in a fresh interpreter; started by run.py.

Prints one JSON line: set-up time (from the parent's spawn timestamp to the
first operation), wall and CPU time of the operation sequence without the
reference slices run between operations, the (wall, CPU) time of each of
those slices, peak RSS, per-operation latency and verdict, the digest of all
outputs and, when traced, the per-module numbers.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The reference slice: a fixed sparse polynomial product in plain Python, the
# same kind of work as the library's hot loop (tuple exponents, dict
# accumulation, small and 100-bit integers).  It runs between operations, at
# most every REF_EVERY_S, so that run.py can rescale each pass to one host
# speed.  It uses nothing from modmacd, so no change to the library moves it.
REF_EVERY_S = 0.25
_REF_A = {(i, j, (i * j) % 3): (7 * i + 3 * j) % 11 - 5 or 1
          for i in range(6) for j in range(5)}
_REF_B = {(j, i, (i + j) % 4): ((5 * i + j) % 13 - 6 or 1) << 100
          for i in range(5) for j in range(6)}


def ref_slice():
    """Fixed work, a few milliseconds; returns (wall, cpu) seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(2):
        for left, right in ((_REF_A, _REF_A), (_REF_A, _REF_B)):
            out = {}
            for e1, c1 in left.items():
                for e2, c2 in right.items():
                    key = tuple(x + y for x, y in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
    return time.perf_counter() - w0, time.process_time() - c0


def _import_modmacd():
    """Import the package built from this checkout's src/, nothing else."""
    sys.path.insert(0, SRC)
    import modmacd
    if not os.path.abspath(modmacd.__file__).startswith(SRC + os.sep):
        raise ImportError("modmacd imported from %s, not %s"
                          % (modmacd.__file__, SRC))
    return modmacd


def _inject_wrong_phi_finite(mm):
    """Make phi_finite answer one too much, in every namespace bound to it."""
    import modmacd.phi as phi
    original = phi.phi_finite

    def wrong(sp):
        return original(sp) + 1

    for mod in (mm, phi):
        mod.phi_finite = wrong


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawn")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args(argv)

    mm = _import_modmacd()
    sys.path.insert(0, HERE)
    import workloads
    ops = workloads.build(args.workload, mm, random.Random(args.seed),
                          args.small)
    setup_s = time.monotonic() - args.spawned

    if args.inject_wrong:
        _inject_wrong_phi_finite(mm)
    tracer = modules = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        modules = tracer.install(mm)

    records, outputs, errors = [], {}, []
    ref = [ref_slice()]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    next_ref = wall0 + REF_EVERY_S
    for key, run in ops:
        if time.perf_counter() >= next_ref:
            ref.append(ref_slice())
            next_ref = time.perf_counter() + REF_EVERY_S
        t0 = time.perf_counter()
        try:
            ok, out = run()
        except Exception:  # a raising operation is a failed operation
            ok, out = False, None
            if len(errors) < 5:
                errors.append("%s: %s" % (key, traceback.format_exc(limit=3)))
        records.append((key, time.perf_counter() - t0, bool(ok)))
        outputs[key] = out
    wall_s = time.perf_counter() - wall0 - sum(w for w, _ in ref[1:])
    cpu_s = time.process_time() - cpu0 - sum(c for _, c in ref[1:])
    ref.append(ref_slice())

    canon = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records, "errors": errors, "ref": ref,
        "digest": hashlib.sha256(canon.encode()).hexdigest(),
    }
    if tracer is not None:
        from tracer import cache_sizes
        result["trace"] = {
            "calls": tracer.calls, "items": tracer.items,
            "self_s": tracer.self_s, "module_self_s": tracer.module_self(),
            "term_pairs": tracer.term_pairs,
            "positive_under_normalized": tracer.positive_under_normalized,
            "library_s": tracer.library_s, "rf_self_s": tracer.rf_self_s,
            "caches": cache_sizes(modules),
            "spans": tracer.spans,
        }
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
