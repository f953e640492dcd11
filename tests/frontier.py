"""Frontier digests: one SHA-256 per table set at the largest weights the
acceptance criteria build, so that a change that moves a frontier answer
fails even when every route moves alike.

tests/data/frontier_digests.json holds four digests:

- ``weight_9_x``: lattice_x over every shape of weight 9 at the least N,
  max(ell(lambda), lambda_1) (criterion 16);
- ``weight_9_hl``: Hall-Littlewood over the same shapes and N (criterion
  16);
- ``weight_10_oracle``: the oracle over every shape of weight 10 at
  N = 10 (criterion 17);
- ``weight_10_kostka``: kostka_qt over every shape of weight 10
  (criterion 17).

Each digest is taken over the canonical JSON of
{repr(lambda.parts): {repr(mu.parts): polynomial.to_json()}}, the form the
criterion-16 children print, dumped with sorted keys and no spaces.

Write the file with

    PYTHONPATH=src python tests/frontier.py

which first checks what criteria 16 and 17 check (x equals dual and the
oracle at weight 9 and collapses at q = 0 onto Hall-Littlewood; the weight-10
oracle tables are nonnegative) and refuses to write if that fails.
"""

import hashlib
import json
import os

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "frontier_digests.json")


def as_json(table):
    """{repr(mu.parts): polynomial JSON} of one table keyed by Partition."""
    return {repr(mu.parts): p.to_json() for mu, p in table.items()}


def digest(tables):
    """SHA-256 of the canonical JSON of {repr(lambda.parts): as_json}."""
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded():
    with open(PATH) as fh:
        return json.load(fh)


def _write():
    from modmacd import clear_caches
    from modmacd.combinat import partitions_of
    from modmacd.exactalg import P
    from modmacd.modmac import kostka_qt, modified_H, modified_HL

    tables, at0 = {}, {}
    for route in ("lattice_x", "lattice_dual", "oracle", "hl"):
        out = {}
        for lam in partitions_of(9):
            N = max(len(lam), lam.part(1))
            table = modified_HL(lam, N) if route == "hl" \
                else modified_H(lam, N=N, route=route).coeffs
            out[repr(lam.parts)] = as_json(table)
            if route == "lattice_x":
                at0[repr(lam.parts)] = as_json(
                    {mu: p for mu, p in ((mu, p.substitute({"q": P(0)}))
                                         for mu, p in table.items())
                     if not p.is_zero()})
        tables[route] = out
        clear_caches()
    x = tables["lattice_x"]
    assert x == tables["lattice_dual"] == tables["oracle"]
    assert at0 == tables["hl"]
    oracle, kostka = {}, {}
    for lam in partitions_of(10):
        table = modified_H(lam, N=10, route="oracle").coeffs
        assert all(p.is_nonnegative() for p in table.values()), lam
        oracle[repr(lam.parts)] = as_json(table)
        kostka[repr(lam.parts)] = as_json(kostka_qt(lam))
    digests = {"weight_9_x": digest(x), "weight_9_hl": digest(tables["hl"]),
               "weight_10_oracle": digest(oracle),
               "weight_10_kostka": digest(kostka)}
    with open(PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    _write()
