"""Seeded, stratified inputs and checked operations for the three workloads.

``build(name, mm, rng, small)`` returns the operation list of one pass.  An
operation is ``(key, run)``; ``run()`` makes one verified call into the
public API of ``modmacd`` (imported as ``mm``) and returns ``(ok, output)``,
where ``output`` is kept for the digest and ``ok`` is the cross-check.

The checks use only integer facts computed here (multinomials, hook lengths,
Kostka numbers) and compare polynomials by their term dicts, so checking adds
no calls into the library's own layers.

Why each workload exists, which layer it stresses and which ROADMAP item
should leave it unchanged is recorded in BENCHMARK.json.
"""

import math

WORKLOADS = ("phi_routes", "h_lattice", "oracle_cauchy")

# phi_routes: dominated pairs with N in 3..5 and entries <= 6.  Each N is cut
# into PHI_BINS equal-count classes by a cost proxy and one pair is drawn per
# class, so two seeds do about the same work.
PHI_NS = (3, 4, 5)
PHI_MAX_ENTRY = 6
PHI_BINS = 100
PHI_BINS_SMALL = 4

# h_lattice: shapes of weight 4..6 at N = least and least + 1.  An item whose
# x and dual routes together enumerate more than H_FAMILY_CAP nu-families is
# left out; (5,1) at N = 5 alone enumerates 17375 and takes about 5 s, which
# would make one operation most of a pass.
#
# The two shape workloads take their classes whole, in a fixed order, and do
# not use the seed: any subset of so few shapes changes the work several-fold,
# and every seeded choice tried (item order; in oracle_cauchy also N per
# shape, the orientation and the order of the identities) changed which
# operations meet cold caches or sit at the median, and moved op_ms_p50 by
# 7-15% between seeds.
H_WEIGHTS = (4, 5, 6)
H_FAMILY_CAP = 1500

# oracle_cauchy: every shape of weight 4..5, then the five Cauchy identities.
O_WEIGHTS = (4, 5)
CAUCHY_IDENTITIES = ("PQ", "dual", "W", "mixedQ", "mixedP")
CAUCHY_DEGREE = 3


# -- integer combinatorics used to generate inputs and check answers --------

def partitions(n, max_part=None):
    """Partitions of n as tuples, decreasing lexicographic order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(n, max_part), 0, -1)
            for rest in partitions(n - first, first)]


def conjugate(lam):
    return tuple(sum(1 for p in lam if p >= i)
                 for i in range(1, (lam[0] if lam else 0) + 1))


def multinomial(mu):
    out = math.factorial(sum(mu))
    for m in mu:
        out //= math.factorial(m)
    return out


def hook_count(lam):
    """Number of standard Young tableaux of shape lam."""
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(sum(lam)) // hooks


def kostka_number(lam, mu):
    """Semistandard tableaux of shape lam and content mu (strip removal)."""
    mu = tuple(m for m in mu if m)
    if not mu:
        return int(not lam)
    if sum(mu) != sum(lam):
        return 0
    last = mu[-1]
    total = 0
    # remove a horizontal strip of size `last` from lam
    padded = lam + (0,)

    def rec(i, prefix, removed):
        nonlocal total
        if i == len(lam):
            if removed == last:
                total += kostka_number(
                    tuple(p for p in prefix if p), mu[:-1])
            return
        for v in range(padded[i + 1], padded[i] + 1):
            if removed + padded[i] - v <= last:
                rec(i + 1, prefix + (v,), removed + padded[i] - v)

    rec(0, (), 0)
    return total


def qt_terms(poly):
    """Terms of a polynomial in (q, t), keyed by (q exponent, t exponent)."""
    names = poly.vars
    out = {}
    for exp, c in poly.terms.items():
        powers = dict(zip(names, exp))
        if set(powers) - {"q", "t"}:
            raise ValueError("unexpected symbols %r" % (names,))
        out[(powers.get("q", 0), powers.get("t", 0))] = c
    return out


def canonical_table(table):
    """Digest form of a table keyed by Partition with polynomial values."""
    return {",".join(map(str, mu.parts)) or "0":
            sorted([list(e), str(c)] for e, c in qt_terms(p).items())
            for mu, p in table.items()}


def _table_sums_ok(table, n, N):
    """At q = t = 1 the coefficient of m_mu is the multinomial of mu."""
    want = {mu for mu in partitions(n) if len(mu) <= N}
    got = {mu.parts for mu in table}
    return got == want and all(
        sum(p.terms.values()) == multinomial(mu.parts)
        for mu, p in table.items())


# -- phi_routes -------------------------------------------------------------

def _bounded_nondecreasing(bounds, low=0):
    """Nondecreasing tuples t with low <= t[0] and t[k] <= bounds[k]."""
    if not bounds:
        yield ()
        return
    for v in range(low, bounds[0] + 1):
        for rest in _bounded_nondecreasing(bounds[1:], v):
            yield (v,) + rest


def dominated_pairs(N, max_entry):
    """(nu, nutilde): nondecreasing, nu <= nutilde, equal last entries."""
    for nut in _bounded_nondecreasing((max_entry,) * N):
        for head in _bounded_nondecreasing(nut[:-1]):
            yield head + (nut[-1],), nut


def phi_cost_proxy(nu):
    """Series length times the number of finite-sum terms.

    Fitted against measured time of the three routes, it orders pairs by
    cost well enough (log-correlation about 0.9) for equal-count classes.
    """
    N = len(nu)
    length = nu[N - 2] + nu[N - 1] + 2
    terms = 1
    prev = 0
    for v in nu[:-1]:
        terms *= v - prev + 1
        prev = v
    return length * terms


def _phi_ops(mm, rng, small):
    bins = PHI_BINS_SMALL if small else PHI_BINS
    pairs = []
    for N in PHI_NS:
        pop = sorted(dominated_pairs(N, PHI_MAX_ENTRY),
                     key=lambda p: (phi_cost_proxy(p[0]), p))
        for b in range(bins):
            pairs.append(rng.choice(pop[b * len(pop) // bins:
                                        (b + 1) * len(pop) // bins]))
    rng.shuffle(pairs)

    def op(nu, nut):
        sp = mm.SequencePair(nu, nut)
        a = mm.phi_series(sp)
        b = mm.phi_finite(sp)
        c = mm.phi_positive(sp)
        ok = a == b == c and a.is_nonnegative()
        return ok, [list(a.vars),
                    sorted([list(e), str(k)] for e, k in a.terms.items())]

    return [("phi:%s|%s" % (nu, nut), lambda nu=nu, nut=nut: op(nu, nut))
            for nu, nut in pairs]


# -- h_lattice --------------------------------------------------------------

def nu_family_count(lam, N):
    """Number of nu-families the x route enumerates for lam with N rows."""
    conj = conjugate(lam)
    count = 1
    for j in range(1, lam[0] + 1):
        top = conj[j - 1] - (conj[j] if j < len(conj) else 0)
        count *= math.comb(top + N - 1, N - 1) ** j
    return count


def h_items(weights, cap):
    items = []
    for w in weights:
        for lam in partitions(w):
            least = max(len(lam), lam[0])
            for N in (least, least + 1):
                if nu_family_count(lam, N) \
                        + nu_family_count(conjugate(lam), N) <= cap:
                    items.append((lam, N))
    return items


def _h_ops(mm, rng, small):
    items = h_items(H_WEIGHTS[:1] if small else H_WEIGHTS, H_FAMILY_CAP)
    tables = {}
    ops = []
    for lam, N in items:
        def run_x(lam=lam, N=N):
            table = mm.modified_H(lam, N, route="lattice_x").coeffs
            tables[lam, N] = table
            return _table_sums_ok(table, sum(lam), N), canonical_table(table)

        def run_dual(lam=lam, N=N):
            table = mm.modified_H(lam, N, route="lattice_dual").coeffs
            return table == tables[lam, N], canonical_table(table)

        def run_hl(lam=lam, N=N):
            hl = mm.modified_HL(lam, N)
            at0 = {}
            for mu, poly in tables[lam, N].items():
                terms = {e: c for e, c in qt_terms(poly).items() if e[0] == 0}
                if terms:
                    at0[mu] = terms
            ok = at0 == {mu: qt_terms(p) for mu, p in hl.items()}
            return ok, canonical_table(hl)

        tag = "%s@%d" % (",".join(map(str, lam)), N)
        ops += [("hx:" + tag, run_x), ("hdual:" + tag, run_dual),
                ("hl:" + tag, run_hl)]
    return ops


# -- oracle_cauchy ----------------------------------------------------------

def _oracle_ops(mm, rng, small):
    weights = O_WEIGHTS[:1] if small else O_WEIGHTS
    degree = CAUCHY_DEGREE - 1 if small else CAUCHY_DEGREE
    tables = {}
    ops = []
    # Every shape of each weight at every N from its least to the weight,
    # then the identities.
    for w in weights:
        for lam in partitions(w):
            tag = ",".join(map(str, lam))
            for N in range(max(len(lam), lam[0]), w + 1):
                def run_h(lam=lam, N=N, n=w):
                    table = mm.modified_H(lam, N, route="oracle").coeffs
                    tables[lam] = table
                    return _table_sums_ok(table, n, N), \
                        canonical_table(table)

                ops.append(("ho:%s@%d" % (tag, N), run_h))

            def run_kostka(lam=lam, n=w):
                kos = mm.kostka_qt(lam)
                terms = {nu.parts: qt_terms(p) for nu, p in kos.items()}
                ok = set(terms) == set(partitions(n)) and all(
                    sum(t.values()) == hook_count(nu)
                    and t.get((0, 0), 0) == int(nu == lam)
                    for nu, t in terms.items())
                # the Schur expansion must reproduce the oracle's table
                for mu, poly in tables[lam].items():
                    acc = {}
                    for nu, t in terms.items():
                        k = kostka_number(nu, mu.parts)
                        for e, c in t.items():
                            acc[e] = acc.get(e, 0) + k * c
                    ok = ok and {e: c for e, c in acc.items() if c} \
                        == qt_terms(poly)
                return ok, canonical_table(kos)

            ops.append(("k:" + tag, run_kostka))

    # W is by far the costliest identity, so it runs with one variable per
    # side; the others run in both orientations of (1, 2).
    if small:
        checks = [(name, 1, 1) for name in CAUCHY_IDENTITIES]
    else:
        checks = [("W", 1, 1)] + [(name, nx, ny)
                                  for name in CAUCHY_IDENTITIES if name != "W"
                                  for nx, ny in ((1, 2), (2, 1))]
    for name, nx, ny in checks:
        def run_cauchy(name=name, nx=nx, ny=ny):
            ok = mm.cauchy_check(name, nx, ny, degree)
            return ok is True, ok

        ops.append(("cauchy:%s@%d,%d,%d" % (name, nx, ny, degree),
                    run_cauchy))
    return ops


BUILDERS = {"phi_routes": _phi_ops, "h_lattice": _h_ops,
            "oracle_cauchy": _oracle_ops}


def build(name, mm, rng, small=False):
    return BUILDERS[name](mm, rng, small)
