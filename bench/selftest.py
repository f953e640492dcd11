"""Self-test of the benchmark harness; exits 0 when every check holds.

    python3 bench/selftest.py

Runs every workload at its smallest size, plain and traced, and checks that
every metric BENCHMARK.json names is reported with its unit, that no
operation fails, that the output digest and the per-module counts repeat
from run to run, and that a wrong answer injected into one Phi route (in the
pass's own interpreter) is counted as a failure.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    want_e2e, want_layer = run.END_TO_END, run.PER_LAYER
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    check([w["name"] for w in run.SPEC["workloads"]]
          == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        first = run.run_workload(name, 1, 0, small=True)
        again = run.run_workload(name, 1, 0, small=True)
        e2e = first["end_to_end"]
        check(all(isinstance(e2e.get(n), float) and e2e[n] > 0
                  for n, _ in want_e2e),
              "%s: every end-to-end metric present and nonzero" % name)
        check(first["failed"] == 0 and first["fail_frac"] == 0,
              "%s: fail_frac is 0 over %d operations"
              % (name, first["attempted"]))
        check(first["digest"] is not None
              and first["digest"] == again["digest"],
              "%s: digest stable across passes and runs" % name)

        traced = run.run_workload(name, 1, 0, trace=True, small=True)
        retraced = run.run_workload(name, 1, 0, trace=True, small=True)
        layer = traced["per_layer"]
        check(all(n in layer and layer[n]["unit"] == u
                  and isinstance(layer[n]["value"], (int, float))
                  for n, u in want_layer),
              "%s: every per-layer metric present with its unit" % name)
        counts = [n for n, u in want_layer if u == "count"]
        check(all(layer[n]["value"] == retraced["per_layer"][n]["value"]
                  for n in counts),
              "%s: per-module counts repeat exactly" % name)
        check(traced["digest"] == first["digest"],
              "%s: tracing leaves the outputs unchanged" % name)

    bad = run.run_workload("phi_routes", 1, 0, small=True, inject_wrong=True)
    check(not bad["correct"] and bad["failed"] == bad["attempted"] > 0,
          "a wrong phi_finite is counted as a failure (%d of %d)"
          % (bad["failed"], bad["attempted"]))

    print("selftest: %s" % ("FAILED: %d checks" % len(failures)
                            if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
