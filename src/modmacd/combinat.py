"""Partitions, sequence pairs and the lattice summation sets."""

from itertools import product

from .errors import MismatchedTops
from .memo import memoized


class Partition:
    """Weakly decreasing sequence of nonnegative integers, zero-trimmed."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if any(p < 0 for p in parts):
            raise ValueError("parts must be nonnegative")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def weight(self):
        return sum(self.parts)

    def part(self, i):
        """1-based part with zero padding beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def padded(self, n):
        return self.parts + (0,) * (n - len(self.parts))

    def contains(self, other):
        """Entrywise containment of Young diagrams."""
        return all(other.part(i) <= self.part(i)
                   for i in range(1, len(other) + 1))


def _at(seq, k):
    """Entry k (1-based) of a sequence; entry 0 is 0."""
    return seq[k - 1] if k >= 1 else 0


def conjugate(lam):
    """Transpose of the Young diagram."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if not lam.parts:
        return Partition()
    return Partition(tuple(sum(1 for p in lam.parts if p >= i)
                           for i in range(1, lam.parts[0] + 1)))


def stats(lam):
    """n(lambda) and the arm/leg table keyed by cell (row, col), 1-based."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    conj = conjugate(lam)
    armlegs = {}
    for i, row in enumerate(lam.parts, start=1):
        for j in range(1, row + 1):
            armlegs[(i, j)] = (row - j, conj.part(j) - i)
    return {"n": n_stat(lam), "armlegs": armlegs}


def n_stat(lam):
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    return sum(p * (i - 1) for i, p in enumerate(lam.parts, start=1))


def inversion_number(comp):
    """#{(j,k): j<k, c_j < c_k}."""
    parts = tuple(comp)
    return sum(1 for j in range(len(parts)) for k in range(j + 1, len(parts))
               if parts[j] < parts[k])


class SequencePair:
    """Pair of nondecreasing nonnegative sequences with equal last entries."""

    __slots__ = ("nu", "nutilde")

    def __init__(self, nu, nutilde):
        nu = tuple(int(v) for v in nu)
        nutilde = tuple(int(v) for v in nutilde)
        if len(nu) != len(nutilde) or not nu:
            raise ValueError("sequences must share a positive length")
        for seq in (nu, nutilde):
            if any(v < 0 for v in seq):
                raise ValueError("entries must be nonnegative")
            if any(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("sequences must be nondecreasing")
        if nu[-1] != nutilde[-1]:
            raise MismatchedTops("nu[N] != nutilde[N]: %r vs %r"
                                 % (nu, nutilde))
        self.nu = nu
        self.nutilde = nutilde

    @property
    def N(self):
        return len(self.nu)

    def __eq__(self, other):
        if not isinstance(other, SequencePair):
            return NotImplemented
        return self.nu == other.nu and self.nutilde == other.nutilde

    def __hash__(self):
        return hash((self.nu, self.nutilde))

    def __repr__(self):
        return "SequencePair(%r, %r)" % (self.nu, self.nutilde)

    def min_difference(self):
        return min(nt - n for n, nt in zip(self.nu, self.nutilde))


class NuFamily:
    """Triangular family of chains nu_{i,j} = (nu_{i,j}^1, ..., nu_{i,j}^N),
    1 <= i <= j <= n, keyed by the cell (i, j)."""

    __slots__ = ("n", "N", "chains")

    def __init__(self, n, N, chains):
        self.n = n
        self.N = N
        self.chains = chains

    def column(self, i, j):
        """The chain nu_{i,j}; zero chain for i = j+1."""
        if i == j + 1:
            return (0,) * self.N
        return self.chains[(i, j)]

    def mu(self):
        """The composition mu, a tuple with mu_k = sum of k-th increments."""
        totals = [sum(chain[k] for chain in self.chains.values())
                  for k in range(self.N)]
        return tuple(b - a for a, b in zip([0] + totals, totals))


def _chains(top, N):
    """All nondecreasing length-N chains of nonnegative ints ending at top."""
    if N == 1:
        return [(top,)]
    out = []

    def rec(prefix, last):
        if len(prefix) == N - 1:
            if last <= top:
                out.append(tuple(prefix) + (top,))
            return
        for v in range(last, top + 1):
            rec(prefix + [v], v)

    for v in range(0, top + 1):
        rec([v], v)
    return out


def enumerate_flags(lam, N, mu=None):
    """Stream flags of partitions empty = nu^0 <= ... <= nu^N = lambda'.

    Each flag is a tuple of N+1 Partitions.  With mu given, only flags with
    |nu^k| = mu_1 + ... + mu_k are produced.  The flat reference: the
    Hall-Littlewood sum walks the same columns one at a time.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    target = conjugate(lam)
    sums = None
    if mu is not None:
        mu = tuple(mu)
        if sum(mu) != lam.weight():
            return
        sums = [0]
        for m in mu:
            sums.append(sums[-1] + m)

    def between(lo, hi, want=None):
        """Partitions nu with lo <= nu <= hi entrywise (and |nu| = want)."""
        n = len(hi)
        results = []

        def rec(row, prefix, prev, total):
            if row > n:
                if want is None or total == want:
                    results.append(Partition(prefix))
                return
            lo_v = lo.part(row)
            hi_v = min(hi.part(row), prev)
            for v in range(lo_v, hi_v + 1):
                rec(row + 1, prefix + [v], v, total + v)

        rec(1, [], hi.part(1) if n else 0, 0)
        return results

    def rec_flag(chain, k):
        if k == N:
            if chain[-1] == target:
                yield tuple(chain)
            return
        for nxt in between(chain[-1], target, sums[k + 1] if sums else None):
            if k + 1 == N and nxt != target:
                continue
            yield from rec_flag(chain + [nxt], k + 1)

    yield from rec_flag([Partition()], 0)


def enumerate_nu_families(lam, N, dual=False):
    """Stream all NuFamily objects for the coefficient sum.

    dual=False: n = lambda_1, tops lambda'_j - lambda'_{j+1};
    dual=True swaps lambda and its conjugate.  This flat product is the
    reference: the lattice sums walk the same chains column by column, and
    this is kept for the tests and the benchmark tracer.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    shape = conjugate(lam) if dual else lam
    cshape = lam if dual else conjugate(lam)
    n = shape.part(1)
    tops = {j: cshape.part(j) - cshape.part(j + 1) for j in range(1, n + 1)}
    cells = [(i, j) for j in range(1, n + 1) for i in range(1, j + 1)]
    chain_sets = {j: _chains(tops[j], N) for j in tops}
    for choice in product(*(chain_sets[j] for i, j in cells)):
        yield NuFamily(n, N, dict(zip(cells, choice)))


_PARTITIONS_CACHE = {}


def partitions_of(n, max_part=None):
    """All partitions of n with parts at most max_part (default n), in
    decreasing lexicographic order, as a shared tuple."""
    return _partitions(n, n if max_part is None else min(n, max_part))


@memoized(_PARTITIONS_CACHE)
def _partitions(n, max_part):
    if n == 0:
        return (Partition(),)
    return tuple(Partition((first,) + rest.parts)
                 for first in range(max_part, 0, -1)
                 for rest in _partitions(n - first, min(n - first, first)))


def parse_intlist(text):
    """Comma-separated nonnegative integers; empty string -> empty tuple."""
    text = text.strip()
    if not text:
        return ()
    values = tuple(int(tok) for tok in text.split(","))
    if any(v < 0 for v in values):
        raise ValueError("entries must be nonnegative: %r" % text)
    return values
