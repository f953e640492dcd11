"""The vertex model that the lattice suite of verify checks (the
fundamental L-matrix, its RLL exchange relation and the fused vertex by the
word sum and by colour peeling), and the partition-function coefficient
extractors.

Each formula's weight (x, dual, Hall-Littlewood) is a product of column
weights, and each column weight is a product of per-column pieces: an
exponent (a column's term of chi, or the one from _hl_column) and one factor
per cell, or per Gaussian binomial for Hall-Littlewood.  All three sum by
one transfer sweep over columns n, ..., 1 (_column_sweep), given each
column's moves by _column_moves (x, dual) or _hl_moves: its state is the
current column's chains, each with a map from partial composition to a
packed (q, t) polynomial, and each step multiplies in one column weight,
which reads only that column and the one before it.  Every cell factor is
built once, as a cached record (l1 bound, t-degree bound, rows, W, first,
zq, zt, dual) that carries its own bounds: a Phi cell (_phi_eval) is a view
on the packed rows that phi caches for Phi (one t-digit per term z^d t^i c),
the rows object itself with their width and the exponent map that reads
them, and a factor given by its terms (a Gaussian binomial) is packed into
rows of its own by _cell.  The negative-exponent check runs once per cell,
on a Phi cell's argument or on the terms.  A structure pass first finds the
live transitions and bounds the summed l1 norm and the t-degree of each
chain tuple's partial sums from the carried bounds, which fixes the
packing; the numeric pass packs each cell at it by re-spacing each row's
digits (packed._respace) and shifting the row into place.  No
SequencePair, ExactPolynomial, per-term tuple or public Phi function is on
the cell path.  The formulas stay independent, each with its own exponent
and factors (they share only the sweep driver and the cell records; x
and dual also share the cached Phi evaluation and the split of a column
exponent into a part of the column's own chains and a dot product with the
next column's, _chi_split), because their agreement is the evidence that
each is right; the oracle shares none of their code but packed's digit
width and decoder."""

from functools import partial
from itertools import groupby, permutations, product as iproduct
from math import comb, factorial, prod
from operator import add, itemgetter, mul, sub

from .combinat import Partition, _chains, conjugate, inversion_number
from .errors import (ConsistencyError, InfeasibleMultiplicities,
                     TooFewVariables)
from .exactalg import ExactPolynomial, ONE, T, poly_divexact, sym, ZERO
from .memo import memoized
from .packed import _at_one, _binom_list, _respace, _unpack_qt, _width
from .phi import _at_one_rows, _phi_rows, _rotation
from .qseries import fusion_normalizer, gauss_binomial


def _as_poly(x):
    return sym(x) if isinstance(x, str) else x


def fundamental_L(j, i, I, K, x="x"):
    """Rank-n bosonic L-matrix element with colour indices j (in), i (out)."""
    I = tuple(I)
    K = tuple(K)
    n = len(I)
    bal = list(I)
    if j >= 1:
        bal[j - 1] += 1
    out = list(K)
    if i >= 1:
        out[i - 1] += 1
    if bal != out:
        return ZERO
    x = _as_poly(x)
    if i == 0:
        return ONE
    tail = sum(I[i:])
    if i == j:
        return x * T ** tail
    if i > j or j == 0:
        return x * (ONE - T ** I[i - 1]) * T ** tail
    return ZERO


def _rcheck_num(i_a, j_a, i_b, j_b, y_over_x_num, x):
    """Numerator of the braided R at argument y/x, cleared by x^2(1-ty/x)."""
    # Rcheck^{i1 j1}_{i2 j2} = R^{i2 j1}_{i1 j2}
    ia, ja, ib, jb = i_b, j_a, i_a, j_b
    if ia + ib != ja + jb:
        return ZERO
    y = y_over_x_num
    num = T ** int(ja < ib)
    num = num * (y if ja < ia else x)
    inner = x if not (ja == ia) else y
    if ja == ib:
        inner = T * inner
    return num * (x - inner)


def rll_check(n, levels, report=None):
    """Verify the RLL exchange relation symbolically in (x, y, t)."""
    x, y = sym("x"), sym("y")
    cache = {}

    def L(j, i, I, K, spec):
        key = (j, i, I, K, spec)
        if key not in cache:
            cache[key] = fundamental_L(j, i, I, K, x=spec)
        return cache[key]

    def shift(I, add, sub):
        out = list(I)
        if add:
            out[add - 1] += 1
        if sub:
            out[sub - 1] -= 1
        if any(v < 0 for v in out):
            return None
        return tuple(out)

    states = list(iproduct(*[range(levels + 1)] * n))
    ok = True
    for I in states:
        for i1, i2, l1, l2 in iproduct(range(n + 1), repeat=4):
            # external out-state fixed by total conservation
            tot = list(I)
            for a in (i1, i2):
                if a:
                    tot[a - 1] += 1
            for b in (l1, l2):
                if b:
                    tot[b - 1] -= 1
            if any(v < 0 for v in tot):
                continue
            Ipp = tuple(tot)
            lhs = ZERO
            rhs = ZERO
            # internal state is summed: it is fixed per term by conservation
            for j1 in range(n + 1):
                for j2 in range(n + 1):
                    r = _rcheck_num(i1, j1, i2, j2, y, x)
                    if not r.is_zero():
                        Ip = shift(I, j1, l1)
                        if Ip is not None:
                            lhs = lhs + r * L(j1, l1, I, Ip, x) \
                                * L(j2, l2, Ip, Ipp, y)
                    r = _rcheck_num(j1, l1, j2, l2, y, x)
                    if not r.is_zero():
                        Ip = shift(I, i1, j1)
                        if Ip is not None:
                            rhs = rhs + L(i1, j1, I, Ip, y) \
                                * L(i2, j2, Ip, Ipp, x) * r
            if lhs != rhs:
                ok = False
                if report is not None:
                    report.append((I, i1, i2, l1, l2))
                else:
                    return False
    return ok


def _words(length, mult, n):
    """All words over 0..n of given length and colour multiplicities."""
    if sum(mult) > length:
        return []
    letters = []
    for c, m in enumerate(mult, start=1):
        letters.extend([c] * m)
    letters.extend([0] * (length - sum(mult)))
    return sorted(set(permutations(letters)))


def fused_vertex_bruteforce(J, lam, mu, lamp, mup, x="x"):
    """Fused vertex from the word sum over fundamental L products."""
    lam, mu = tuple(lam), tuple(mu)
    lamp, mup = tuple(lamp), tuple(mup)
    n = len(lam)
    if sum(lam) > J or sum(mu) > J:
        raise InfeasibleMultiplicities(
            "multiplicities exceed the fusion level")
    x = _as_poly(x)
    total = ZERO
    for jw in _words(J, lam, n):
        winv = inversion_number(tuple(reversed(jw)))
        for lw in _words(J, mu, n):
            state = lamp
            term = ONE
            for k in range(J):
                nxt = list(state)
                if jw[k]:
                    nxt[jw[k] - 1] += 1
                if lw[k]:
                    nxt[lw[k] - 1] -= 1
                if any(v < 0 for v in nxt):
                    term = ZERO
                    break
                term = term * fundamental_L(jw[k], lw[k], state, tuple(nxt),
                                            x=T ** k * x)
                if term.is_zero():
                    break
                state = tuple(nxt)
            if term.is_zero() or state != mup:
                continue
            if winv:
                term = term * ExactPolynomial.monomial({"t": -winv})
            total = total + term
    try:
        return poly_divexact(total, fusion_normalizer(J, lam))
    except ValueError:
        raise ConsistencyError(
            "fused vertex sum not divisible by the normalizer") from None


def fused_L_recurrence(lam, mu, lamp, mup, x="x", z="z"):
    """Fused weight via the colour-peeling recurrence."""
    lam, mu = tuple(lam), tuple(mu)
    lamp, mup = tuple(lamp), tuple(mup)
    if any(a + b != c + d for a, b, c, d in zip(lam, lamp, mu, mup)):
        return ZERO
    x = _as_poly(x)
    z = _as_poly(z)
    n = len(lam)
    if n == 0:
        return ONE
    w = sum(mu)
    out = _b_coef(lam[-1], mu[-1], lamp[-1], mup[-1], x, z, w)
    if out.is_zero():
        return ZERO
    return out * fused_L_recurrence(lam[:-1], mu[:-1], lamp[:-1], mup[:-1],
                                    x=T ** lam[-1] * x, z=z)


def _b_coef(ln, mn, lpn, mpn, x, z, w):
    out = ZERO
    for k in range(mn + 1):
        coef = gauss_binomial(mpn + k, k) * gauss_binomial(lpn, mn - k)
        if coef.is_zero():
            continue
        expo = (k * k - k) // 2 + (w - mn) * (mpn + k - ln)
        term = coef * x ** k * z ** (mn - k)
        out = out + term * ExactPolynomial.monomial({"t": expo})
    return out


# ---------------------------------------------------------------------------
# column weights and coefficient extraction
# ---------------------------------------------------------------------------

def _cell(terms):
    """The cell record (see _phi_eval) of a factor given by its terms
    ((q exponent, t exponent), coefficient), or None for a zero factor,
    which no live move carries: the terms packed into one row per q
    exponent, row q its t-polynomial at 2^W with W from the terms' l1 norm,
    read by the exponent map z -> q (first 0, zq 1, zt 0, not dual).
    Packing needs every exponent >= 0 once chi is shifted, so a negative
    one raises here, once per cell."""
    terms = tuple(terms)
    if not terms:
        return None
    keys, coefficients = zip(*terms)
    qs, ts = zip(*keys)
    if min(qs) < 0 or min(ts) < 0:
        raise ConsistencyError(
            "negative exponent in a cell factor: %r" % (terms,))
    l1 = sum(map(abs, coefficients))
    W = _width(l1)
    rows = [0] * (max(qs) + 1)
    for (q, t), c in terms:
        rows[q] += c << W * t
    return l1, max(ts), tuple(rows), W, 0, 1, 0, False


_PHI_EVAL_CACHE = {}


@memoized(_PHI_EVAL_CACHE)
def _phi_eval(nu, nut, qexp, texp, dual):
    """Phi (or Phi') at the monomial argument, as a cell record
    (l1, tdeg, rows, W, first, zq, zt, dual): a view on the packed rows
    that phi caches for Phi, the rows object itself with their width W,
    and the exponent map that reads them.  rows[d] holds the z^(first + d)
    coefficient at t = 2^W; its digit i at row z is the coefficient of
    q^(z zq) t^(z zt + i), or when dual of q^(z zq + i) t^(z zt).  For Phi,
    z -> q^qexp t^texp; for Phi' (Phi of the rotated nu, shifted by
    z^{nu^1}) z -> t^qexp q^texp and t -> q.  At argument 1
    (qexp == texp == 0, the diagonal cell) the value depends on nutilde
    only and is the closed product of phi_at_one, in base q when dual.

    l1 is the summed term norm that chose the rows' W, which bounds the
    l1 norm of the cell, and tdeg its t-degree, read from the rows: the
    top balanced digit of a row sits at bit_length // W.  Arguments >= 0
    give exponents >= 0, so a negative argument raises here, once per
    cell; None for a zero factor.
    """
    if qexp < 0 or texp < 0:
        raise ConsistencyError(
            "negative exponent in a cell argument: q^%d t^%d" % (qexp, texp))
    if qexp == texp == 0:
        (rows, W, l1), first, zq, zt = _at_one_rows(nut), 0, 0, 0
    elif dual:
        (rows, W, l1), first, zq, zt = (_phi_rows(_rotation(nu, 1), nut),
                                        nu[0], texp, qexp)
    else:
        (rows, W, l1), first, zq, zt = _phi_rows(nu, nut), 0, qexp, texp
    tops = [z * zt + (0 if dual else value.bit_length() // W)
            for z, value in enumerate(rows, first) if value]
    return (l1, max(tops), rows, W, first, zq, zt, dual) if tops else None


def _pack_cell(cell, W, T):
    """A cell record at t = 2^W, q = 2^(W T), as _pack_qt packs its
    terms: each row's digits re-spaced from the rows' width to the step of
    their variable (W for t, W T for q when dual) and row z shifted by z
    times the packed exponent of q^zq t^zt."""
    _, _, rows, width, first, zq, zt, dual = cell
    spacing, step = W * T if dual else W, W * (zq * T + zt)
    return sum(_respace(value, width, spacing) << step * z
               for z, value in enumerate(rows, first) if value)


def _chi_split(nuts, dual):
    """chi (dual: chi') of one column, the pairs (nu_j, nutilde_j) with the
    nutildes nuts, in order of j, is a - sum D * _chi_nus(nus) with D the
    sums over j < l of d = nutilde_j^k - nutilde_j^(k-1), flattened over l
    and k; returns (a, D).  The sweep keeps (a, D) per column-i chain tuple
    and the nu entries per column-(i+1) one."""
    later = [0] * len(nuts[0])  # per k: sum over l > j of nutilde_l^k
    a = 0                       # (dual: nutilde_l^(k-1))
    for nut in reversed(nuts):
        d = list(map(sub, nut, (0,) + nut))
        a += sum(map(mul, d, later))
        if not dual:
            a += sum(x * (x - 1) // 2 for x in d)
        later = list(map(add, later, (0,) + nut if dual else nut))
    D = []
    run = [0] * len(nuts[0])
    for nut in nuts:
        D += run
        run = list(map(add, run, map(sub, nut, (0,) + nut)))
    return a, D


def _chi_nus(nus, dual):
    """The nu entries _chi_split's D pairs with: nu_l^(k-1) (dual: nu_l^k)
    for k = 1..N, flattened over l."""
    return [x for nu in nus for x in (nu if dual else ((0,) + nu)[:-1])]


def chi(columns, dual=False):
    """Exponent of a family of chains: the sum of its column exponents.
    columns[i - 1] maps j -> (nu_j, nutilde_j) = (nu_{i+1,j}, nu_{i,j}) for
    column i, j = i..n.

    The x exponent of a column is the sum over k = 1..N and j of
    d(d - 1)/2 + d * sum_{l > j} (nutilde_l^k - nu_l^(k-1)) with
    d = nutilde_j^k - nutilde_j^(k-1); the dual exponent chi' is the sum
    over k and j of d * sum_{l > j} (nutilde_l^(k-1) - nu_l^k).

    partition_function_coeffs takes each column's exponent through
    _chi_split; chi is the whole-family sum that the tests check it
    against."""
    total = 0
    for pairs in columns:
        js = sorted(pairs)
        a, D = _chi_split([pairs[j][1] for j in js], dual)
        total += a - sum(map(mul, D, _chi_nus([pairs[j][0] for j in js],
                                              dual)))
    return total


def _hl_column(nu, nut):
    """t-exponent and Gaussian binomials of one Hall-Littlewood column: sum
    of d(d-1)/2 over the increments d of nutilde, and the pairs (a, b) of
    [a, b]_t = [nutilde_{k+1} - nu_k, nutilde_k - nu_k] for k < N."""
    expo = sum(d * (d - 1) // 2 for d in map(sub, nut, (0,) + nut))
    return expo, [(nut[k] - nu[k - 1], nut[k - 1] - nu[k - 1])
                  for k in range(1, len(nut))]


def partition_function_coeffs(lam, N, formula="x"):
    """Monomial coefficients of the partition function, keyed by Partition.

    formula 'x': t-exponent chi with Phi factors; 'z': dual route with Phi'
    in base q; 'hl': Kirillov's sum over flags (polynomials in t).  Each term
    is the product over columns of the column's exponent and its cell
    factors (Hall-Littlewood: Gaussian binomials).

    Every sum runs on packed integers (see packed): a polynomial in (q, t)
    with coefficients of absolute value below 2^(W-1) and t-degree below T
    is held as its value at t = 2^W, q = 2^(W T), so products and sums of
    terms are products and sums of ints.  W and T come from bounds on the
    terms, never from the result: the l1 norm (sum of |c|) of a product is
    at most the product of the norms and of a sum at most the sum of the
    norms, and the degrees of a product add.  Each cell carries its bounds:
    a Phi cell, a view on phi's packed rows (_phi_eval), the summed term
    norm that chose the rows' width and the t-degree read from the rows'
    bit lengths.  This does not need Phi to be positive.

    All three sums run as a column sweep (_column_sweep) over columns
    n, ..., 1: the state after column i maps each tuple of column-i chains
    (x and dual: nu_{i,j}, j = i..n; Hall-Littlewood: the flag's column i)
    to its partial compositions, and the step to column i multiplies by
    the column's power of t (dual: q) and its cell factors (Hall-Littlewood:
    Gaussian binomials) and adds column i's increments to the composition.
    A structure pass finds the live transitions (no zero factor) and
    carries two ints per chain tuple, the summed l1 norm of its partial
    sums and a bound on their t-degree; W comes from the final total, of
    which every composition's norm is a summand.  Each column's exponent is
    shifted by its least value, and the total shift is put back when
    decoding.  The numeric pass replays the moves on packed weights, each
    cell packed once per sweep from its rows (_pack_cell).  Each
    composition's value at q = t = 1 (packed._at_one) must be the
    multinomial n! / prod comp_i!, since H(x; 1, 1) = (x_1 + ... + x_N)^n,
    and for Hall-Littlewood the values must sum to h_lambda(1^N), since
    H(x; 0, 1) = h_lambda(x); otherwise ConsistencyError, before decoding.

    Sums resolved by composition are checked for permutation invariance
    before collapsing onto partitions, on the packed values (two values
    packed at the same W and T are equal exactly when their polynomials
    are), and then one value per partition is decoded.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if N < len(lam):
        raise TooFewVariables("N must be at least ell(lambda)")
    if formula == "hl":
        shape, dual = conjugate(lam), False
        moves = partial(_hl_moves, shape, N)
        check = _check_h_at_one
    elif formula in ("x", "z"):
        dual = (formula == "z")
        shape = lam if dual else conjugate(lam)
        moves = partial(_column_moves, shape, N, dual)
        check = _check_multinomials
    else:
        raise ValueError("formula must be 'x', 'z' or 'hl'")
    values, at_one, comps, decode = _column_sweep(shape, N, dual, moves)
    check(at_one, comps, lam, N)
    by_comp = {comps[key]: v for key, v in values.items()}
    return {mu: decode(v)
            for mu, v in _collapse_compositions(by_comp).items()}


def _add_move(sums, cur, partials, inc, w):
    """Add one move of a path sum: each partial sum of its below state,
    {composition key: int}, times w, into sums[cur] at key + inc."""
    acc = sums.setdefault(cur, {})
    for key, v in partials.items():
        key += inc
        acc[key] = acc.get(key, 0) + v * w


def _column_moves(shape, N, dual, i, belows):
    """Yield the live moves into column i: (below, cur, chi, cells) for every
    tuple below of column-(i+1) chains and cur of column-i chains whose
    cell factors (records from _phi_eval) are all nonzero; chi is the
    column's exponent in chi (dual: chi').  The nonzero filter is a guard
    that never drops a valid chain: each cell is Phi or Phi' of two
    nondecreasing chains with equal tops (the diagonal cell the closed
    product of nutilde's binomials), whose coefficients are nonnegative and
    sum to prod_j C(nutilde^{j+1}, nutilde^j) >= 1."""
    js = range(i, len(shape) + 1)
    args = [(j - i, shape.part(i) - shape.part(j)) for j in js]
    chain_sets = [_chains(shape.part(j) - shape.part(j + 1), N) for j in js]
    splits = {}
    for below in belows:
        chains = ((0,) * N,) + below
        nus = _chi_nus(chains, dual)
        # per cell, the chains of column i that give a nonzero factor
        options = [[(nut, cell) for nut in chain_set
                    for cell in (_phi_eval(nu, nut, qexp, texp, dual),)
                    if cell]
                   for (qexp, texp), nu, chain_set
                   in zip(args, chains, chain_sets)]
        for picked in iproduct(*options):
            cur, cells = zip(*picked)
            if cur not in splits:
                splits[cur] = _chi_split(cur, dual)
            a, D = splits[cur]
            yield below, cur, a - sum(map(mul, D, nus)), cells


_BINOM_CELL_CACHE = {}


@memoized(_BINOM_CELL_CACHE)
def _binom_cell(a, b):
    """[a choose b]_t as a cell record built by _cell from the terms
    ((0, t exponent), coefficient); None when it is zero."""
    return _cell(((0, e), c) for e, c in enumerate(_binom_list(a, b)) if c)


def _hl_moves(shape, N, i, belows):
    """Yield the live Hall-Littlewood moves into column i of shape = lambda':
    (below, (nutilde,), expo, cells) for each state below = (nu,) (() before
    column n, nu = 0) and chain nutilde whose binomials from _hl_column,
    with its t-exponent expo, are all nonzero (nutilde >= nu entrywise)."""
    chain_set = _chains(shape.part(i), N)
    for below in belows:
        nu = below[0] if below else (0,) * N
        for nut in chain_set:
            expo, pairs = _hl_column(nu, nut)
            cells = [_binom_cell(a, b) for a, b in pairs]
            if all(cells):
                yield below, (nut,), expo, cells


def _column_sweep(shape, N, dual, column_moves):
    """A lattice sum keyed by composition, column by column as
    partition_function_coeffs describes.

    column_moves(i, belows) yields the live moves (below, cur, exponent,
    cells) into column i = len(shape), ..., 1 from the chain tuples below
    of column i + 1 (the one state () before column n): cur is a tuple of
    column-i chains of length N, the exponent is of t (dual: of q), and
    each cell a cached record (l1 bound, t-degree bound, rows, W, first,
    zq, zt, dual) from _phi_eval or _cell, which has passed the
    negative-exponent check there; the structure pass multiplies the
    carried norms and adds the carried degrees, and the numeric pass packs
    each cell once at the sweep's W and T by re-spacing its rows
    (_pack_cell), keyed by id, since the move records keep the cells
    alive for the whole sweep.  A partial composition c
    is keyed by the int sum_k c_k B^k, B = |shape| + 1 > every c_k, so
    that adding a column's increments is one addition; the last column
    adds every path into the one state ().  Returns the packed sums and
    their values at q = t = 1 (packed._at_one) by key, each key's
    composition (c_1, ..., c_N), and the decoder.
    """
    B = sum(shape) + 1
    powers = [B ** k for k in range(N)]
    # structure pass: per chain tuple, the summed l1 norm of its partial
    # sums and a bound on their t-degree; each move is added as it comes and
    # kept as one record (below, cur, increment, exponent, cells)
    columns = []
    tot, tdeg = {(): 1}, {(): 0}
    shift = 0
    for i in range(len(shape), 0, -1):
        incs = {}
        records, sums, degs = [], {}, {}
        for below, cur, expo, cells in column_moves(i, tot):
            if cur not in incs:
                incs[cur] = sum((b - a) * p for chain in cur for p, a, b
                                in zip(powers, (0,) + chain, chain))
            inc, cur = incs[cur], cur if i > 1 else ()
            # t-degrees are unshifted until the least exponent is known,
            # and chi can be negative, so no bound starts from 0
            l1, deg = tot[below], tdeg[below] + (0 if dual else expo)
            for cell in cells:
                l1, deg = l1 * cell[0], deg + cell[1]
            sums[cur] = sums.get(cur, 0) + l1
            degs[cur] = max(degs.get(cur, deg), deg)
            records.append((below, cur, inc, expo, cells))
        low = min((record[3] for record in records), default=0)
        shift += low
        tot = sums
        tdeg = degs if dual else {cur: d - low for cur, d in degs.items()}
        columns.append((records, low))
    # numeric pass: each composition's l1 norm is a summand of tot[()]
    W = _width(tot.get((), 0))
    T = max(tdeg.values(), default=0) + 1
    base = W * T if dual else W
    packed = {}
    values = {(): {0: 1}}
    for records, low in columns:
        sums = {}
        # a run of moves from one below state into one cur (in the last
        # column, all of that state's moves) is summed per increment before
        # it meets the state's partials; one partial has nothing to share
        for (below, cur), moves in groupby(records, itemgetter(0, 1)):
            partials, group = values[below], {}
            for _, _, inc, expo, cells in moves:
                w = 1
                for cell in cells:
                    if id(cell) not in packed:
                        packed[id(cell)] = _pack_cell(cell, W, T)
                    w *= packed[id(cell)]
                group[inc] = group.get(inc, 0) + (w << base * (expo - low))
                if len(partials) == 1:
                    _add_move(sums, cur, partials, inc, group.pop(inc))
            for inc, w in group.items():
                _add_move(sums, cur, partials, inc, w)
        values = sums
    values = values.get((), {})
    return values, {key: _at_one(v, W) for key, v in values.items()}, \
        {key: tuple(key // p % B for p in powers) for key in values}, \
        lambda v: _unpack_qt(v, W, T, *((shift, 0) if dual else (0, shift)))


def _check_multinomials(at_one, comps, lam, N):
    """Each composition's value at q = t = 1 is n! / prod comp_i!, and no
    composition of n = |lambda| into N parts is missing (their multinomials
    sum to N^n); at_one is keyed as comps."""
    weight = lam.weight()
    for key, value in at_one.items():
        expect = factorial(weight) // prod(map(factorial, comps[key]))
        if value != expect:
            raise ConsistencyError(
                "value %d at q = t = 1 of the composition %r is not the "
                "multinomial %d" % (value, comps[key], expect))
    if sum(at_one.values()) != N ** weight:
        raise ConsistencyError(
            "a composition of %d into %d parts is missing" % (weight, N))


def _check_h_at_one(at_one, comps, lam, N):
    """The Hall-Littlewood values at t = 1 sum to h_lambda(1^N) =
    prod_i C(lambda_i + N - 1, N - 1), since H_lambda(x; 0, 1) = h_lambda."""
    got = sum(at_one.values())
    expect = prod(comb(p + N - 1, N - 1) for p in lam)
    if got != expect:
        raise ConsistencyError(
            "the values at t = 1 sum to %d, not h_lambda(1^%d) = %d"
            % (got, N, expect))


def _collapse_compositions(by_comp):
    """Assert permutation invariance and key results by partitions."""
    out = {}
    for comp, val in by_comp.items():
        if out.setdefault(tuple(sorted(comp, reverse=True)), val) != val:
            raise ConsistencyError(
                "composition-resolved coefficients differ at %r" % (comp,))
    return {Partition(key): val for key, val in out.items()}
