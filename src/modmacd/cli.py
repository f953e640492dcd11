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
    # The table only holds mu with at most N parts.
    N = args.vars
    if N is None:
        N = max(len(lam), lam.part(1), len(mu), 1)
    elif N < len(mu):
        raise UsageError("--vars must be at least the length of --mu")
    res = modified_H(lam, N=N, route=ROUTE_MAP[args.route])
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
# verification sweeps: each suite yields (check, args) cases in a fixed
# order, and the first false check(*args) is the suite's counterexample
# ---------------------------------------------------------------------------

def phi_routes_check(sp):
    """The three Phi routes agree and have nonnegative coefficients."""
    a = phi_series(sp)
    return a == phi_finite(sp) == phi_positive(sp) and a.is_nonnegative()


def fused_vertex_check(J, lam, mu, lamp, mup):
    """The fused recurrence at z = -t^J x equals the word-sum vertex."""
    z = ExactPolynomial.monomial({"t": J, "x": 1}, -1)
    lhs = fused_L_recurrence(lam, mu, lamp, mup).substitute({"z": z})
    return lhs == fused_vertex_bruteforce(J, lam, mu, lamp, mup)


def hl_collapse_check(lam):
    """The lattice H table at q = 0 is the modified Hall-Littlewood table."""
    N = max(len(lam), lam.part(1), 1)
    at_q0 = {mu: poly.substitute({"q": 0}) for mu, poly
             in modified_H(lam, N=N, route="lattice_x").coeffs.items()}
    return {mu: poly for mu, poly in at_q0.items()
            if not poly.is_zero()} == modified_HL(lam, N)


def _ascending(seq):
    return all(a <= b for a, b in zip(seq, seq[1:]))


def _phi_cases(mw):
    # Dominated pairs nu <= nutilde with N <= 3 and entries <= min(mw, 4).
    entries = range(min(mw, 4) + 1)
    for N in range(1, 4):
        for nu in itertools.product(entries, repeat=N):
            for head in itertools.product(entries, repeat=N - 1):
                nut = head + nu[-1:]
                if _ascending(nu) and _ascending(nut) \
                        and all(a <= b for a, b in zip(nu, nut)):
                    yield phi_routes_check, (SequencePair(nu, nut),)


def _lattice_cases(mw):
    # Fixed: n = 2 columns, J <= 2, 0/1 occupations; then two RLL checks.
    pairs = list(itertools.product(range(2), repeat=2))
    for J in (1, 2):
        for lam, mu, lamp in itertools.product(pairs, repeat=3):
            mup = tuple(a + b - c for a, b, c in zip(lam, lamp, mu))
            if sum(lam) <= J and sum(mu) <= J and min(mup) >= 0:
                yield fused_vertex_check, (J, lam, mu, lamp, mup)
    yield rll_check, (1, 2)
    yield rll_check, (2, 2)


def _shapes(top):
    """Every partition of weight 1..top."""
    for w in range(1, top + 1):
        yield from partitions_of(w)


_CAUCHY_FORMS = ("PQ", "dual", "W", "mixedQ", "mixedP")

_SUITES = {
    "phi": _phi_cases,
    "lattice": _lattice_cases,
    "reductions": lambda mw: ((w_reduction_check, (lam, lam.weight()))
                              for lam in _shapes(min(mw, 5))),
    "hl": lambda mw: ((hl_collapse_check, (lam,)) for lam in _shapes(mw)),
    "duality": lambda mw: ((duality_check, (lam,)) for lam in _shapes(mw)),
    "cauchy": lambda mw: ((cauchy_check, (form, 1, 1, 2))
                          for form in _CAUCHY_FORMS),
}


def _run_suite(item):
    """One suite's report line; text only, so a process pool pickles str."""
    name, mw = item
    for check, args in _SUITES[name](mw):
        if not check(*args):
            return "%s: FAILED at %s(%s)" % (
                name, check.__name__, ", ".join(map(repr, args)))
    return "%s: ok" % name


def _cmd_verify(args):
    mw = args.max_weight if args.max_weight is not None else 4
    if mw < 1:
        raise UsageError("--max-weight must be at least 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    items = [(name, mw) for name in names]
    if args.jobs > 1:
        # the pool starts all its workers at once: no more than the suites
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(items))) \
                as pool:
            lines = list(pool.map(_run_suite, items))
    else:
        lines = [_run_suite(item) for item in items]
    for line in lines:
        print(line)
    return 0 if all(line.endswith(": ok") for line in lines) else 1


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
    p.add_argument("--max-weight", type=int, default=None,
                   help="weight cap, default 4: phi entries <= min(mw, 4) "
                        "with N <= 3, reductions weights <= min(mw, 5), "
                        "hl and duality weights <= mw; lattice and "
                        "cauchy are fixed")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cauchy", help="check one Cauchy identity")
    p.add_argument("--form", default="PQ", choices=_CAUCHY_FORMS)
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
