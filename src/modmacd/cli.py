"""Command-line front door: compute Phi, coefficient tables, Kostka tables,
run verification sweeps and Cauchy checks."""

import argparse
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .combinat import (Partition, SequencePair, parse_intlist, partitions_of)
from .errors import ModmacdError, UsageError
from .exactalg import ExactPolynomial, render
from .lattice import (fused_L_recurrence, fused_vertex_bruteforce, rll_check)
from .modmac import (cauchy_check, duality_check, kostka_qt, modified_H,
                     modified_HL, w_reduction_check)
from .phi import phi_finite, phi_normalized, phi_positive, phi_series

VAR_ORDER = ("q", "t", "z", "v") + tuple(
    "x%d" % i for i in range(1, 13)) + tuple(
    "z%d" % i for i in range(1, 13))

ROUTE_MAP = {"lattice": "lattice_x", "dual": "lattice_dual",
             "oracle": "oracle"}


def _partition_key(mu):
    return ",".join(str(p) for p in mu.parts) if mu.parts else "0"


def _emit_poly(poly, as_json):
    if as_json:
        return poly.to_json()
    return render(poly, VAR_ORDER)


def _emit_table(table, as_json, prefix="m"):
    keys = sorted(table, key=lambda mu: mu.parts, reverse=True)
    if as_json:
        payload = {_partition_key(mu): json.loads(table[mu].to_json())
                   for mu in keys}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "; ".join("%s[%s]: %s" % (prefix, _partition_key(mu),
                                     render(table[mu], VAR_ORDER))
                     for mu in keys)


def _cmd_phi(args):
    sp = SequencePair(parse_intlist(args.nu), parse_intlist(args.nutilde))
    forms = {"series": phi_series, "finite": phi_finite,
             "positive": phi_positive, "auto": phi_normalized}
    poly = forms[args.form](sp)
    print(_emit_poly(poly, args.json))
    return 0


def _cmd_hpoly(args):
    lam = Partition(parse_intlist(args.lam))
    res = modified_H(lam, N=args.vars, route=ROUTE_MAP[args.route])
    print(_emit_table(res.coeffs, args.json))
    return 0


def _cmd_hl(args):
    lam = Partition(parse_intlist(args.lam))
    N = args.vars if args.vars is not None else max(len(lam), 1)
    print(_emit_table(modified_HL(lam, N), args.json))
    return 0


def _cmd_kostka(args):
    lam = Partition(parse_intlist(args.lam))
    print(_emit_table(kostka_qt(lam), args.json, prefix="s"))
    return 0


def _cmd_coeff(args):
    lam = Partition(parse_intlist(args.lam))
    mu = Partition(tuple(sorted(parse_intlist(args.mu), reverse=True)))
    res = modified_H(lam, N=args.vars, route=ROUTE_MAP[args.route])
    poly = res.coeffs.get(mu, ExactPolynomial.constant(0))
    print(_emit_poly(poly, args.json))
    return 0


def _cmd_cauchy(args):
    n = args.vars if args.vars is not None else 1
    degree = args.max_weight if args.max_weight is not None else 2
    ok = cauchy_check(args.form, n, n, degree)
    print("cauchy %s vars=%d degree=%d: %s"
          % (args.form, n, degree, "ok" if ok else "FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

def _verify_phi(mw):
    bound = min(mw, 4)
    for N in range(1, 4):
        for nu in itertools.product(range(bound + 1), repeat=N):
            if any(nu[i] > nu[i + 1] for i in range(N - 1)):
                continue
            for nut in itertools.product(range(bound + 1), repeat=N - 1):
                full = nut + (nu[-1],)
                if any(full[i] > full[i + 1] for i in range(N - 1)):
                    continue
                if any(b < a for a, b in zip(nu, full)):
                    continue
                sp = SequencePair(nu, full)
                a = phi_series(sp)
                if a != phi_finite(sp) or a != phi_positive(sp):
                    return False
                if not a.is_nonnegative():
                    return False
    return True


def _verify_lattice(mw):
    T = ExactPolynomial.variable("t")
    minus = ExactPolynomial.constant(-1)
    for J in (1, 2):
        for lam in itertools.product(range(2), repeat=2):
            if sum(lam) > J:
                continue
            for mu in itertools.product(range(2), repeat=2):
                if sum(mu) > J:
                    continue
                for lamp in itertools.product(range(2), repeat=2):
                    mup = tuple(a + b - c for a, b, c in zip(lam, lamp, mu))
                    if any(v < 0 for v in mup):
                        continue
                    zsub = minus * T ** J \
                        * ExactPolynomial.variable("x")
                    lhs = fused_L_recurrence(lam, mu, lamp, mup).substitute(
                        {"z": zsub})
                    if lhs != fused_vertex_bruteforce(J, lam, mu, lamp, mup):
                        return False
    return rll_check(1, 2) and rll_check(2, 2)


def _verify_reductions(mw):
    for w in range(1, min(mw, 3) + 1):
        for lam in partitions_of(w):
            if not w_reduction_check(lam, w):
                return False
    return True


def _verify_hl(mw):
    for w in range(1, mw + 1):
        for lam in partitions_of(w):
            N = max(len(lam), lam.part(1), 1)
            res = modified_H(lam, N=N, route="lattice_x")
            at_q0 = {mu: poly.substitute({"q": 0})
                     for mu, poly in res.coeffs.items()}
            at_q0 = {mu: poly for mu, poly in at_q0.items()
                     if not poly.is_zero()}
            if at_q0 != modified_HL(lam, N):
                return False
    return True


def _verify_duality(mw):
    for w in range(1, mw + 1):
        for lam in partitions_of(w):
            if not duality_check(lam):
                return False
    return True


def _verify_cauchy(mw):
    return all(cauchy_check(name, 1, 1, 2)
               for name in ("PQ", "dual", "W", "mixedQ", "mixedP"))


_SUITES = {
    "phi": _verify_phi,
    "lattice": _verify_lattice,
    "reductions": _verify_reductions,
    "hl": _verify_hl,
    "duality": _verify_duality,
    "cauchy": _verify_cauchy,
}


def _run_suite(item):
    name, mw = item
    return name, _SUITES[name](mw)


def _cmd_verify(args):
    mw = args.max_weight if args.max_weight is not None else 4
    if mw < 1:
        raise UsageError("--max-weight must be at least 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    items = [(name, mw) for name in names]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_suite, items))
    else:
        results = [_run_suite(item) for item in items]
    status = 0
    for name, ok in results:
        print("%s: %s" % (name, "ok" if ok else "FAILED"))
        if not ok:
            status = 1
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modmacd",
        description="Exact computations with modified Macdonald polynomials "
                    "and the positive polynomial Phi.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true",
                           help="emit the JSON polynomial format")
        group.add_argument("--text", action="store_true",
                           help="emit human-readable text (default)")

    p = sub.add_parser("phi", help="evaluate the polynomial Phi")
    p.add_argument("--nu", required=True, help="comma list, nondecreasing")
    p.add_argument("--nutilde", required=True,
                   help="comma list, nondecreasing, same last entry")
    p.add_argument("--form", default="positive",
                   choices=("series", "finite", "positive", "auto"))
    add_output_flags(p)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("hpoly", help="monomial coefficient table of H")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--vars", type=int, default=None)
    p.add_argument("--route", default="lattice", choices=sorted(ROUTE_MAP))
    add_output_flags(p)
    p.set_defaults(func=_cmd_hpoly)

    p = sub.add_parser("hl", help="modified Hall-Littlewood table")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--vars", type=int, default=None)
    add_output_flags(p)
    p.set_defaults(func=_cmd_hl)

    p = sub.add_parser("kostka", help="two-parameter Kostka table")
    p.add_argument("--lambda", dest="lam", required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("coeff", help="single monomial coefficient of H")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--vars", type=int, default=None)
    p.add_argument("--route", default="lattice", choices=sorted(ROUTE_MAP))
    add_output_flags(p)
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(_SUITES))
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cauchy", help="check one Cauchy identity")
    p.add_argument("--form", default="PQ",
                   choices=("PQ", "dual", "W", "mixedQ", "mixedP"))
    p.add_argument("--vars", type=int, default=None,
                   help="alphabet size for both sides")
    p.add_argument("--max-weight", type=int, default=None,
                   help="series truncation degree")
    p.set_defaults(func=_cmd_cauchy)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, UsageError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2
    except ModmacdError as exc:
        print("internal assertion failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
