"""Acceptance sweep: end-to-end criteria 1-18, one test (and one printed
pass/fail line) each.  All comparisons are exact."""

import itertools
import json
import os
import subprocess
import sys
import time

import modmacd
from modmacd import clear_caches
from modmacd.combinat import Partition, SequencePair, partitions_of
from modmacd.exactalg import ExactPolynomial, P, sym
from modmacd.lattice import (fused_L_recurrence, fused_vertex_bruteforce,
                             rll_check)
from modmacd.modmac import (cauchy_check, duality_check, kostka_qt,
                            modified_H, modified_HL, w_reduction_check)
from modmacd.phi import (g_poly, phi_finite, phi_normalized, phi_positive,
                         phi_prime, phi_series, rotate)

import frontier
from reference import phi_prime_series

Q = sym("q")
T = sym("t")
Z = sym("z")
X = sym("x")


def _report(number, budget, started):
    elapsed = time.time() - started
    print("CRITERION %d: PASS (%.3fs)" % (number, elapsed))
    assert elapsed < budget, \
        "criterion %d exceeded its %gs budget" % (number, budget)


def _nondecreasing(bound, length):
    for tup in itertools.product(range(bound + 1), repeat=length):
        if all(tup[i] <= tup[i + 1] for i in range(length - 1)):
            yield tup


def _dominated_pairs(bound, nmax):
    for N in range(1, nmax + 1):
        for nut in _nondecreasing(bound, N):
            for nu in _nondecreasing(bound, N - 1):
                full = nu + (nut[-1],)
                if any(full[i] > full[i + 1] for i in range(N - 1)):
                    continue
                if any(a > b for a, b in zip(full, nut)):
                    continue
                yield SequencePair(full, nut)


def _all_pairs(bound, nmax):
    for N in range(1, nmax + 1):
        for nut in _nondecreasing(bound, N):
            for nu in _nondecreasing(bound, N - 1):
                full = nu + (nut[-1],)
                if any(full[i] > full[i + 1] for i in range(N - 1)):
                    continue
                yield SequencePair(full, nut)


_H_TABLES = {}


def _h_table(lam, route):
    key = (lam.parts, route)
    if key not in _H_TABLES:
        N = max(len(lam), lam.part(1), 1)
        _H_TABLES[key] = modified_H(lam, N=N, route=route).coeffs
    return _H_TABLES[key]


def test_criterion_01_phi_worked_example():
    t0 = time.time()
    sp = SequencePair((1, 3, 4, 5), (2, 3, 5, 5))
    one = P(1)
    expected = T ** 8 * Z ** 3 \
        + P(2) * (one + T) * (one + T + T ** 2) * T ** 4 * Z ** 2 \
        + (one + T + T ** 2) * (one + P(3) * T + T ** 2) * T * Z \
        + (one + T)
    assert phi_series(sp) == expected
    assert phi_finite(sp) == expected
    assert phi_positive(sp) == expected
    _report(1, 0.015, t0)


def test_criterion_02_phi_routes_exhaustive():
    t0 = time.time()
    count = 0
    for sp in _dominated_pairs(6, 4):
        a = phi_series(sp)
        assert a == phi_finite(sp)
        assert a == phi_positive(sp)
        assert a.is_nonnegative()
        count += 1
    assert count > 5000
    _report(2, 8.1, t0)


def test_criterion_03_rotation_and_prime_relation():
    t0 = time.time()
    for sp in _all_pairs(4, 3):
        base = phi_normalized(sp)
        for k in range(1, sp.N + 1):
            rotated, shift = rotate(sp, k)
            assert ExactPolynomial.monomial({"z": shift}) \
                * phi_normalized(rotated) == base
            # phi_normalized reads one cached representative per rotation
            # orbit; phi_series reads no cache
            if all(a <= b for a, b in zip(rotated.nu, rotated.nutilde)):
                assert ExactPolynomial.monomial({"z": shift}) \
                    * phi_series(rotated) == base
        assert phi_prime_series(sp) == phi_prime(sp)
    _report(3, 6, t0)


def test_criterion_04_g_polynomial():
    t0 = time.time()
    for m in range(4):
        for n in (1, 2, 3):
            for a in itertools.product(range(5), repeat=n):
                for b in itertools.product(range(5), repeat=n):
                    s = g_poly(m, a, b, form="sum")
                    p = g_poly(m, a, b, form="positive")
                    assert s == p
                    assert p.is_nonnegative()
    _report(4, 20, t0)


def test_criterion_05_fusion_identification():
    t0 = time.time()
    minus = ExactPolynomial.constant(-1)
    for n in (1, 2):
        for J in (1, 2, 3):
            for lam in itertools.product(range(3), repeat=n):
                if sum(lam) > J:
                    continue
                for mu in itertools.product(range(3), repeat=n):
                    if sum(mu) > J:
                        continue
                    for lamp in itertools.product(range(3), repeat=n):
                        mup = tuple(x + y - w
                                    for x, y, w in zip(lam, lamp, mu))
                        if any(v < 0 or v > 2 for v in mup):
                            continue
                        spec = fused_L_recurrence(
                            lam, mu, lamp, mup).substitute(
                                {"z": minus * T ** J * X})
                        assert spec == fused_vertex_bruteforce(
                            J, lam, mu, lamp, mup)
    _report(5, 2.3, t0)


def test_criterion_06_exchange_relation():
    t0 = time.time()
    assert rll_check(1, 3)
    assert rll_check(2, 3)
    _report(6, 1.2, t0)


def test_criterion_07_h_routes_identical():
    t0 = time.time()
    for w in range(1, 7):
        for lam in partitions_of(w):
            a = _h_table(lam, "lattice_x")
            b = _h_table(lam, "lattice_dual")
            c = _h_table(lam, "oracle")
            assert a == b == c
            for poly in a.values():
                assert poly.is_nonnegative()
    _report(7, 2.2, t0)


def test_criterion_08_hall_littlewood_collapse():
    # Built here from cold caches, not read from criterion 7's tables, so a
    # full run and a lone run time the same work.
    clear_caches()
    t0 = time.time()
    for w in range(1, 7):
        for lam in partitions_of(w):
            N = max(len(lam), lam.part(1), 1)
            full = modified_H(lam, N=N, route="lattice_x").coeffs
            at0 = {mu: p.substitute({"q": P(0)}) for mu, p in full.items()}
            at0 = {mu: p for mu, p in at0.items() if not p.is_zero()}
            assert at0 == modified_HL(lam, N)
    _report(8, 0.85, t0)


def test_criterion_09_reduction_square():
    t0 = time.time()
    for w in range(1, 6):
        for lam in partitions_of(w):
            assert w_reduction_check(lam, w)
    _report(9, 2.1, t0)


def test_criterion_10_duality():
    t0 = time.time()
    for w in range(1, 6):
        for lam in partitions_of(w):
            assert duality_check(lam)
    _report(10, 0.11, t0)


def test_criterion_11_cauchy_identities():
    t0 = time.time()
    for name in ("PQ", "dual", "W", "mixedQ", "mixedP"):
        assert cauchy_check(name, 2, 2, 3)
    _report(11, 0.15, t0)


def _check_kostka(w):
    zeros = {"q": P(0), "t": P(0)}
    for lam in partitions_of(w):
        table = kostka_qt(lam)
        for nu, poly in table.items():
            # Positivity is asserted inside the extraction as well; the
            # explicit check keeps each criterion self-contained.
            assert poly.is_nonnegative()
            val = poly.substitute(zeros)
            assert val.is_zero() or val == P(1)
            if not val.is_zero() and nu != lam:
                # Off-diagonal survivors would break triangularity.
                raise AssertionError(
                    "unexpected entry at %r for %r" % (nu, lam))
        assert table[lam].substitute(zeros) == P(1)


def test_criterion_12_kostka_positivity_and_triangularity():
    t0 = time.time()
    for w in range(1, 7):
        _check_kostka(w)
    _report(12, 0.26, t0)


def test_criterion_13_weight_7_routes_and_hall_littlewood_collapse():
    t0 = time.time()
    for lam in partitions_of(7):
        N = max(len(lam), lam.part(1))
        x = _h_table(lam, "lattice_x")
        assert x == _h_table(lam, "lattice_dual") == _h_table(lam, "oracle"), \
            lam
        assert all(poly.is_nonnegative() for poly in x.values()), lam
        at0 = {mu: p.substitute({"q": P(0)}) for mu, p in x.items()}
        at0 = {mu: p for mu, p in at0.items() if not p.is_zero()}
        assert at0 == modified_HL(lam, N), lam
    _report(13, 6.1, t0)


def test_criterion_14_cauchy_identities_at_degree_4():
    t0 = time.time()
    for name in ("PQ", "dual", "mixedQ", "mixedP"):
        assert cauchy_check(name, 2, 2, 4), name
        assert cauchy_check(name, 3, 3, 3), name
    assert cauchy_check("W", 1, 2, 4)
    assert cauchy_check("W", 2, 1, 4)
    assert cauchy_check("W", 2, 2, 4)
    assert cauchy_check("W", 2, 2, 5)
    _report(14, 17, t0)


def test_criterion_15_weight_8_routes_and_hall_littlewood_collapse():
    t0 = time.time()
    for lam in partitions_of(8):
        N = max(len(lam), lam.part(1))
        x = _h_table(lam, "lattice_x")
        assert x == _h_table(lam, "lattice_dual") == _h_table(lam, "oracle"), \
            lam
        assert all(poly.is_nonnegative() for poly in x.values()), lam
        at0 = {mu: p.substitute({"q": P(0)}) for mu, p in x.items()}
        at0 = {mu: p for mu, p in at0.items() if not p.is_zero()}
        assert at0 == modified_HL(lam, N), lam
    _report(15, 12.95, t0)


# One route over every shape of a weight at the least N, in a child process
# of its own: it prints its tables (for lattice_x also their q = 0
# collapse), each polynomial in canonical JSON, and its own getrusage peak.
_ROUTE_CHILD = """
import json, resource, sys
from modmacd.combinat import partitions_of
from modmacd.exactalg import P
from modmacd.modmac import modified_H, modified_HL

route, weight = sys.argv[1], int(sys.argv[2])
tables, at0 = {}, {}
for lam in partitions_of(weight):
    N = max(len(lam), lam.part(1))
    if route == "hl":
        table = modified_HL(lam, N)
    else:
        table = modified_H(lam, N=N, route=route).coeffs
    key = repr(lam.parts)
    tables[key] = {repr(mu.parts): p.to_json() for mu, p in table.items()}
    if route == "lattice_x":
        at0[key] = {repr(mu.parts): p.to_json() for mu, p
                    in ((mu, p.substitute({"q": P(0)}))
                        for mu, p in table.items()) if not p.is_zero()}
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"tables": tables, "at0": at0, "peak_mb": peak_mb}))
"""


def _route_child(route, weight):
    src = os.path.dirname(os.path.dirname(os.path.abspath(modmacd.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.Popen(
        [sys.executable, "-c", _ROUTE_CHILD, route, str(weight)],
        stdout=subprocess.PIPE, env=env, text=True)


def test_criterion_16_weight_9_lattice_routes_in_bounded_memory():
    # lattice_x, lattice_dual, Hall-Littlewood and the oracle over every
    # shape of weight 9 at the least N, each in its own process: x equals
    # dual and the oracle, the q = 0 collapse of x equals Hall-Littlewood,
    # and each lattice route peaks under 150 MB.  The three lattice tables
    # come out of one sweep driver, so only the oracle, which shares none
    # of it, can see a fault there that moves them alike; the x and
    # Hall-Littlewood tables must also give the recorded frontier digests
    # (tests/frontier.py).
    t0 = time.time()
    children = {}
    try:
        for route in ("lattice_x", "lattice_dual", "hl", "oracle"):
            children[route] = _route_child(route, 9)
        outs = {route: child.communicate()[0]
                for route, child in children.items()}
    finally:
        # A failure here must not leave a weight-9 child running into the
        # timed criteria that follow.
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    for route, child in children.items():
        assert child.returncode == 0, route
    got = {route: json.loads(out) for route, out in outs.items()}
    x = got["lattice_x"]
    assert len(x["tables"]) == 30
    assert x["tables"] == got["lattice_dual"]["tables"]
    assert x["tables"] == got["oracle"]["tables"]
    assert x["at0"] == got["hl"]["tables"]
    recorded = frontier.recorded()
    assert frontier.digest(x["tables"]) == recorded["weight_9_x"]
    assert frontier.digest(got["hl"]["tables"]) == recorded["weight_9_hl"]
    for route in ("lattice_x", "lattice_dual"):
        assert got[route]["peak_mb"] < 150, (route, got[route]["peak_mb"])
    _report(16, 52.3, t0)


def test_criterion_17_oracle_positivity_at_weight_10():
    # The oracle tables at N = 10 and kostka_qt over every shape of weight
    # 10 are nonnegative and give the recorded frontier digests.
    t0 = time.time()
    oracle, kostka = {}, {}
    for lam in partitions_of(10):
        table = modified_H(lam, N=10, route="oracle").coeffs
        assert all(poly.is_nonnegative() for poly in table.values()), lam
        oracle[repr(lam.parts)] = frontier.as_json(table)
        kostka[repr(lam.parts)] = frontier.as_json(kostka_qt(lam))
    assert len(oracle) == 42
    recorded = frontier.recorded()
    assert frontier.digest(oracle) == recorded["weight_10_oracle"]
    assert frontier.digest(kostka) == recorded["weight_10_kostka"]
    _report(17, 16.4, t0)


def test_criterion_18_kostka_positivity_at_weight_9():
    t0 = time.time()
    _check_kostka(9)
    _report(18, 4.41, t0)
