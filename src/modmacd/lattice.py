"""The vertex model that the lattice suite of verify checks (the
fundamental L-matrix, its RLL exchange relation and the fused vertex by the
word sum and by colour peeling), and the partition-function coefficient
extractors.

Each formula's weight (x, dual, Hall-Littlewood) is a product of column
weights, each a column exponent (a column's term of chi, or
Hall-Littlewood's sum of d(d-1)/2 over its chain's steps) times one factor
per cell, or per Gaussian binomial for Hall-Littlewood.  All three sum by
one transfer sweep over columns n, ..., 1 (_column_sweep), given each
column's moves by _column_moves (x, dual) or _hl_moves: a state is an int
id of the current column's chains, mapped to its partial compositions'
packed (q, t) polynomials, and each step multiplies in one column weight.
The moves come from tables built once per chain per sweep: a move is a
prefix (a pick of every cell but one, its fields summed once) extended by
one option of the remaining cell, and the pairwise part of chi is taken
once per state.  Every cell factor is a cached record (l1 bound, t-degree
bound, rows, W, first, zq, zt, dual): a Phi cell (_phi_eval) is a view on
the packed rows that phi caches per rotation orbit, at the pair's z-shift,
and a factor given by its terms (a Gaussian binomial) is packed into rows
of its own by _cell.  A structure pass finds the live transitions and
bounds the sums' l1 norm and t-degree, which fixes the packing; the numeric
pass packs each cell by re-spacing its rows' digits (packed._respace).  No
SequencePair, ExactPolynomial, per-term tuple or public Phi function is on
the cell path.  The sums, keyed by composition, are checked and collapsed
onto partitions through one composition index per (n, N)
(_composition_index).  The formulas stay independent, each with its own
exponent and factors, because their agreement is the evidence that each is
right: they share only the sweep driver, the cell records and the index
and collapse; x and dual also share the cached Phi evaluation and the split
of a column exponent into a pairwise part of the column's own chains,
_chi_split, and one share per cell from the next column's, _chi_later.
The oracle shares none of their code but packed's digit width, digit
reader and row product, the partition conjugate and the partitions of a
weight (tests/test_sharing.py keeps that list)."""

from functools import partial
from itertools import (combinations_with_replacement, groupby,
                       permutations, product as iproduct)
from math import comb, factorial, prod
from operator import add, ge, itemgetter, mul, sub

from .combinat import (Partition, _chains, conjugate, inversion_number,
                       partitions_of)
from .errors import (ConsistencyError, InfeasibleMultiplicities,
                     TooFewVariables)
from .exactalg import ExactPolynomial, ONE, T, poly_divexact, sym, ZERO
from .memo import memoized
from .packed import _at_one, _binom_list, _respace, _unpack_qt, _width
from .phi import _at_one_rows, _phi_view, _rotation
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
    ((q exponent, t exponent), coefficient), or None for a zero factor:
    one row per q exponent, its t-polynomial at 2^W, W from the terms' l1
    norm, read by the exponent map z -> q (first 0, zq 1, zt 0, not dual).
    Packing needs exponents >= 0, so a negative one raises here."""
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
    (l1, tdeg, rows, W, first, zq, zt, dual): a view on phi's cached rows
    of the pair's rotation orbit (phi._phi_view), the rows object itself
    with their width W, and the exponent map that reads them.  rows[d]
    holds the z^(first + d) coefficient at t = 2^W, first the pair's
    z-shift (Phi': plus nu^1); its digit i at row z is the coefficient of
    q^(z zq) t^(z zt + i), or when dual of q^(z zq + i) t^(z zt).  For Phi,
    z -> q^qexp t^texp; for Phi' (Phi of the rotated nu) z -> t^qexp q^texp
    and t -> q.  At argument 1 (the diagonal cell) the value depends on
    nutilde only and is the closed product of phi_at_one, in base q when
    dual.  l1 is the summed term norm that chose W, which bounds the
    cell's l1 norm, and tdeg its t-degree, read from the rows: a row's top
    balanced digit sits at bit_length // W.  A negative argument raises
    here, once per cell; None for a zero factor.
    """
    if qexp < 0 or texp < 0:
        raise ConsistencyError(
            "negative exponent in a cell argument: q^%d t^%d" % (qexp, texp))
    if qexp == texp == 0:
        (rows, W, l1), first, zq, zt = _at_one_rows(nut), 0, 0, 0
    elif dual:
        rows, W, l1, first = _phi_view(_rotation(nu, 1), nut)
        first, zq, zt = first + nu[0], texp, qexp
    else:
        (rows, W, l1, first), zq, zt = _phi_view(nu, nut), qexp, texp
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
    """The pairwise part a of one column's chi (dual: chi'), the pairs
    (nu_j, nutilde_j) with the nutildes nuts, in order of j: the column's
    exponent is a - sum_j d_j . R_j, with d_j the steps of nutilde_j
    (_steps) and R_j from the nus (_chi_later).  Only a reads the whole
    tuple of nutildes; the sweep takes it once per state."""
    later = [0] * len(nuts[0])  # per k: sum over l > j of nutilde_l^k
    a = 0                       # (dual: nutilde_l^(k-1))
    for nut in reversed(nuts):
        d = _steps(nut)
        a += sum(map(mul, d, later))
        if not dual:
            a += sum(x * (x - 1) // 2 for x in d)
        later = list(map(add, later, (0,) + nut if dual else nut))
    return a


def _chi_later(nus, dual):
    """Per position j of the nu chains nus, in order of j, the vector R_j
    that the steps of nutilde_j pair with in chi (_chi_split): the sum over
    l > j of nu_l^(k-1) (dual: nu_l^k), k = 1..N.  In the sweep the nus
    are a below state's chains, so each cell's part of chi is one scalar
    per chain."""
    run = [0] * len(nus[0])
    out = []
    for nu in reversed(nus):
        out.append(run)
        run = list(map(add, run, nu if dual else (0,) + nu))
    out.reverse()
    return out


def _steps(nut):
    """The steps nutilde^k - nutilde^(k-1), k = 1..N, of a chain."""
    return tuple(map(sub, nut, (0,) + nut))


def chi(columns, dual=False):
    """Exponent of a family of chains: the sum of its column exponents.
    columns[i - 1] maps j -> (nu_j, nutilde_j) = (nu_{i+1,j}, nu_{i,j}) for
    column i, j = i..n.

    The x exponent of a column is the sum over k = 1..N and j of
    d(d - 1)/2 + d * sum_{l > j} (nutilde_l^k - nu_l^(k-1)) with
    d = nutilde_j^k - nutilde_j^(k-1); the dual exponent chi' is the sum
    over k and j of d * sum_{l > j} (nutilde_l^(k-1) - nu_l^k).

    partition_function_coeffs takes each column's exponent as the pairwise
    part of _chi_split plus one share per cell from _chi_later; chi is the
    whole-family sum of the same pieces that the tests check against the
    pairwise sum."""
    total = 0
    for pairs in columns:
        js = sorted(pairs)
        nuts = [pairs[j][1] for j in js]
        later = _chi_later([pairs[j][0] for j in js], dual)
        total += _chi_split(nuts, dual) - sum(
            sum(map(mul, _steps(nut), r)) for nut, r in zip(nuts, later))
    return total


def partition_function_coeffs(lam, N, formula="x"):
    """Monomial coefficients of the partition function, keyed by Partition.

    formula 'x': t-exponent chi with Phi factors; 'z': dual route with Phi'
    in base q; 'hl': Kirillov's sum over flags (polynomials in t).  Each term
    is the product over columns of the column's exponent and its cell
    factors (Hall-Littlewood: Gaussian binomials).

    Every sum runs on packed integers (see packed): a polynomial in (q, t)
    with coefficients of absolute value below 2^(W-1) and t-degree below T
    is held as its value at t = 2^W, q = 2^(W T).  W and T come from bounds
    on the terms, never from the result: the l1 norm (sum of |c|) of a
    product is at most the product of the norms and of a sum at most the
    sum of the norms, and the degrees of a product add.  Each cell carries
    its bounds (_phi_eval, _cell), so Phi need not be positive.

    All three sums run as a column sweep (_column_sweep) over columns
    n, ..., 1: the state after column i is an int id of a tuple of column-i
    chains (x and dual: nu_{i,j}, j = i..n; Hall-Littlewood: the flag's
    column i) and maps to its partial compositions, and the step to column
    i multiplies by the column's power of t (dual: q) and its cell factors
    and adds column i's increments to the composition.  A structure pass
    finds the live transitions and carries per state the summed l1 norm of
    its partial sums and a bound on their t-degree; each column's exponent
    is shifted by its least value, put back when decoding.  The numeric
    pass replays the moves on packed weights.  Its sums, keyed by
    composition, are checked at q = t = 1 and for permutation invariance
    on the packed values (_collapse_compositions) through one composition
    index per (n, N) that x, dual and Hall-Littlewood share, as they share
    the collapse (the oracle does not); then one value per partition is
    decoded.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if N < len(lam):
        raise TooFewVariables("N must be at least ell(lambda)")
    if formula == "hl":
        shape, dual = conjugate(lam), False
        tables = partial(_hl_moves, shape, N)
    elif formula in ("x", "z"):
        dual = (formula == "z")
        shape = lam if dual else conjugate(lam)
        tables = partial(_column_moves, shape, N, dual)
    else:
        raise ValueError("formula must be 'x', 'z' or 'hl'")
    values, W, decode = _column_sweep(shape, N, dual, tables)
    return {mu: decode(v) for mu, v in _collapse_compositions(
        values, W, lam, N, formula == "hl").items()}


def _add_move(sums, cur, partials, inc, w):
    """Add one move of a path sum: each partial sum of its below state,
    {composition key: int}, times w, into sums[cur] at key + inc."""
    acc = sums.setdefault(cur, {})
    for key, v in partials.items():
        key += inc
        acc[key] = acc.get(key, 0) + v * w


def _column_moves(shape, N, dual, powers):
    """The live moves of the x (dual) sum, from tables built once per
    chain per sweep: returns column(i, belows) for the sweep, in the form
    _column_sweep reads.  Cell j, j = i..n, of column i is Phi (dual:
    Phi') of the pair (nu_{i+1,j}, nutilde = nu_{i,j}) at q^(j-i)
    t^(shape_i - shape_j), a record from _phi_eval, with nu_{i+1,i} = 0.

    A state is an int id: the mixed-radix number of its chains' indices in
    the chain sets of its cells, cell n least significant, the same place
    values in every column.  Per cell and chain the table holds the steps
    d (_steps), the composition increment and the id share.  The column's
    exponent in chi (dual: chi') is the pairwise part a of the state's
    chains (_chi_split), taken once per state by state(id) -> (a, chains),
    minus, per cell j, d . R_j with R_j from the below state's chains
    (_chi_later).  Per below state, the cell with the most live chains is
    the innermost options list; every pick of the other cells is one
    prefix, its fields summed (l1: multiplied) and its cells in one tuple.

    The nonzero filter never drops a valid chain: each cell is Phi or Phi'
    of two nondecreasing chains with equal tops, whose coefficients are
    nonnegative and sum to prod_j C(nutilde^{j+1}, nutilde^j) >= 1."""
    n = len(shape)
    sets = [_chains(shape.part(j) - shape.part(j + 1), N)
            for j in range(1, n + 1)]
    places = [prod(map(len, sets[c + 1:])) for c in range(n)]
    tables = [[(nut, d, sum(map(mul, d, powers)), k * place)
               for k, nut in enumerate(chains) for d in (_steps(nut),)]
              for chains, place in zip(sets, places)]
    zero = (0,) * N

    def column(i, belows):
        cells = range(i - 1, n)  # cell j is index j - 1

        def state(sid):
            cur = tuple(sets[c][sid // places[c] % len(sets[c])]
                        for c in cells)
            return _chi_split(cur, dual), cur

        def moves():
            for below, chains in belows.items():
                nus = (zero,) + chains
                options = []
                for c, nu, r in zip(cells, nus, _chi_later(nus, dual)):
                    qexp, texp = c + 1 - i, shape.part(i) - shape.part(c + 1)
                    live = [(share, -sum(map(mul, d, r)), inc, cell[0],
                             cell[1], (cell,))
                            for nut, d, inc, share in tables[c]
                            for cell in (_phi_eval(nu, nut, qexp, texp,
                                                   dual),)
                            if cell]
                    if not live:
                        break
                    options.append(live)
                else:
                    options.sort(key=len)
                    inner = options.pop()
                    prefixes = [_NO_PREFIX]
                    for live in options:
                        prefixes = [(s + s2, x + x2, a + a2, l1 * m,
                                     e + e2, cs + cs2)
                                    for s, x, a, l1, e, cs in prefixes
                                    for s2, x2, a2, m, e2, cs2 in live]
                    for prefix in prefixes:
                        yield below, prefix, inner

        return moves(), state

    return column


# the prefix of a move with no cell outside its options list
_NO_PREFIX = (0, 0, 0, 1, 0, ())

_BINOM_CELL_CACHE = {}


@memoized(_BINOM_CELL_CACHE)
def _binom_cell(a, b):
    """[a choose b]_t as a cell record built by _cell from the terms
    ((0, t exponent), coefficient); None when it is zero."""
    return _cell(((0, e), c) for e, c in enumerate(_binom_list(a, b)) if c)


def _hl_moves(shape, N, powers):
    """The live Hall-Littlewood moves of shape = lambda', in
    _column_moves' form.  A state is the index of its one chain nutilde in
    column i's chain set, state(id) is (0, (nutilde,)), and every prefix is
    empty.  Per chain, column(i, belows) takes the t-exponent (the sum of
    d(d-1)/2 over nutilde's steps d) and the increment once.  From below nu
    (0 before column n) the options are the chains with nutilde >= nu
    entrywise, each with its Gaussian binomials
    [nutilde_{k+1} - nu_k, nutilde_k - nu_k]_t, k < N, as its cells, which
    are all nonzero exactly then, since nutilde is nondecreasing."""
    zero = (0,) * N

    def column(i, belows):
        chains = _chains(shape.part(i), N)
        expos, incs = [], []
        for d in map(_steps, chains):
            expos.append(sum(x * (x - 1) // 2 for x in d))
            incs.append(sum(map(mul, d, powers)))

        def state(sid):
            return 0, (chains[sid],)

        def options(nu):
            for k, (expo, inc, nut) in enumerate(zip(expos, incs, chains)):
                if all(map(ge, nut, nu)):
                    cells = tuple(map(_binom_cell, map(sub, nut[1:], nu),
                                      map(sub, nut, nu)))
                    yield (k, expo, inc, prod(map(itemgetter(0), cells)),
                           sum(map(itemgetter(1), cells)), cells)

        def moves():
            for below, nus in belows.items():
                yield below, _NO_PREFIX, options(nus[0] if nus else zero)

        return moves(), state

    return column


def _column_sweep(shape, N, dual, tables):
    """A lattice sum keyed by composition, column by column as
    partition_function_coeffs describes.  A partial composition c is keyed
    by the int sum_k c_k B^k, B = |shape| + 1 > every c_k, so that adding a
    column's increments is one addition.

    tables(powers), powers the B^k, gives column(i, belows) for i =
    len(shape), ..., 1; belows maps each state id of column i + 1 to its
    tuple of chains (before column n, the one state 0 with none).  column
    returns (moves, state): moves yields (below, prefix, options), and
    each move, the prefix extended by one option, is the sum of the two
    tuples (state-id share, exponent share, increment share, l1 bound,
    t-degree bound, cells), l1 the product and cells the concatenation;
    its exponent of t (dual: of q) adds its state's a, where state(id) is
    (a, the state's chains).  A cell is a record from _phi_eval or _cell.

    The structure pass folds each move into the carried norm and degree of
    its state (in the last column, of the one state 0) and keeps one record
    (below, cur, increment, exponent, prefix cells, option cells), a
    state's a and increment taken at its first move.  The numeric pass
    packs each cell once (_pack_cell), keyed by id, since the records keep
    the cells alive, and multiplies each prefix's cells once.  Returns the
    packed sums by key, W and the decoder.
    """
    B = sum(shape) + 1
    powers = [B ** k for k in range(N)]
    column_moves = tables(powers)
    # structure pass: per state, the summed l1 norm of its partial sums and
    # a bound on their t-degree
    columns = []
    tot, tdeg, belows = {0: 1}, {0: 0}, {0: ()}
    shift = 0
    for i in range(len(shape), 0, -1):
        moves, state = column_moves(i, belows)
        seen, records, sums, degs, belows = {}, [], {}, {}, {}
        for below, (psid, pexpo, pinc, pl1, pdeg, pcells), options in moves:
            l1b, degb = tot[below] * pl1, tdeg[below] + pdeg
            for sid, expo, inc, l1, deg, cells in options:
                if psid:  # never for Hall-Littlewood, whose prefix is empty
                    sid += psid
                known = seen.get(sid)
                if known is None:
                    a, chains = state(sid)
                    known = seen[sid] = (a, inc + pinc if pinc else inc,
                                         sid if i > 1 else 0)
                    if i > 1:
                        belows[sid] = chains
                a, inc, cur = known
                # t-degrees are unshifted until the least exponent is
                # known, and chi can be negative, so no bound starts from 0
                expo += pexpo + a
                l1 *= l1b
                deg += degb if dual else degb + expo
                sums[cur] = sums.get(cur, 0) + l1
                degs[cur] = max(degs.get(cur, deg), deg)
                records.append((below, cur, inc, expo, pcells, cells))
        low = min(map(itemgetter(3), records), default=0)
        shift += low
        tot = sums
        tdeg = degs if dual else {cur: d - low for cur, d in degs.items()}
        columns.append((records, low, i == 1))
    seen = moves = state = None  # the numeric pass reads only the records
    # numeric pass: each composition's l1 norm is a summand of tot[0]
    W = _width(tot.get(0, 0))
    T = max(tdeg.values(), default=0) + 1
    base = W * T if dual else W
    packed = {}

    def pack(cell):
        # a nonzero cell packs to a nonzero int
        return packed.get(id(cell)) or packed.setdefault(
            id(cell), _pack_cell(cell, W, T))

    values = {0: {0: 1}}
    for records, low, last in columns:
        sums, group, prefix = {}, {}, None
        # in the last column, where every move lands in state 0, a below
        # state's moves are summed per increment before they meet its
        # partial sums
        for below, moves in groupby(records, itemgetter(0)):
            partials = values[below]
            for _, cur, inc, expo, pcells, cells in moves:
                if pcells is not prefix:
                    prefix, w0 = pcells, prod(map(pack, pcells))
                w = w0
                for cell in cells:
                    w *= packed.get(id(cell)) or pack(cell)
                w <<= base * (expo - low)
                if last:
                    group[inc] = group.get(inc, 0) + w
                else:
                    _add_move(sums, cur, partials, inc, w)
            for inc, w in group.items():
                _add_move(sums, 0, partials, inc, w)
            group.clear()
        values = sums
    return values.get(0, {}), W, \
        lambda v: _unpack_qt(v, W, T, *((shift, 0) if dual else (0, shift)))


_COMPOSITION_CACHE = {}


@memoized(_COMPOSITION_CACHE)
def _composition_index(n, N):
    """The compositions of n into N parts, each the steps of a chain
    c_1 <= ... <= c_(N-1) <= n, keyed as _column_sweep keys them
    (sum_k c_k B^k, B = n + 1): returns ({key: index}, parts), parts[index]
    = (the partition of the sorted composition, n! / prod mu_i!) over the
    partitions of n with at most N parts.  An index is a small int, so an
    entry holds no object beyond its key."""
    parts = [(mu, factorial(n) // prod(map(factorial, mu)))
             for mu in partitions_of(n) if len(mu) <= N]
    if not N:  # only n = 0 has a composition into no parts
        return {0: 0} if not n else {}, parts
    number = {mu.padded(N): k for k, (mu, _) in enumerate(parts)}
    powers = [(n + 1) ** k for k in range(N)]
    return {sum(map(mul, comp, powers)):
            number[tuple(sorted(comp, reverse=True))]
            for chain in combinations_with_replacement(range(n + 1), N - 1)
            for comp in (_steps(chain + (n,)),)}, parts


def _collapse_compositions(values, W, lam, N, hl):
    """The sweep's packed values, keyed by composition key, checked and
    keyed by partition, at one index lookup (_composition_index), one value
    at q = t = 1 (packed._at_one) and one packed compare per composition.
    x, dual: each value at q = t = 1 is the multinomial n! / prod comp_i!,
    since H(x; 1, 1) = (x_1 + ... + x_N)^n, and none is missing (they sum
    to N^n); Hall-Littlewood: they sum to h_lambda(1^N), since
    H(x; 0, 1) = h_lambda.  Then compositions that permute each other
    carry equal values (two values packed at the same W and T are equal
    exactly when their polynomials are).  Else ConsistencyError."""
    n = lam.weight()
    index, parts = _composition_index(n, N)
    out, total, differ = {}, 0, None
    for key, v in values.items():
        k = index.get(key)
        if k is None:
            raise ConsistencyError("the sweep key %d is not a composition "
                                   "of %d into %d parts" % (key, n, N))
        one = _at_one(v, W)
        if not hl and one != parts[k][1]:
            raise ConsistencyError(
                "value %d at q = t = 1 of the composition %r is not the "
                "multinomial %d" % (one, _composition(key, n, N),
                                    parts[k][1]))
        total += one
        if out.setdefault(k, v) != v and differ is None:
            differ = key
    expect = prod(comb(p + N - 1, N - 1) for p in lam) if hl else N ** n
    if total != expect:
        raise ConsistencyError(
            "the values at t = 1 sum to %d, not h_lambda(1^%d) = %d"
            % (total, N, expect) if hl else
            "a composition of %d into %d parts is missing" % (n, N))
    if differ is not None:
        raise ConsistencyError("composition-resolved coefficients differ "
                               "at %r" % (_composition(differ, n, N),))
    return {parts[k][0]: v for k, v in out.items()}


def _composition(key, n, N):
    """The composition (c_1, ..., c_N) that a composition key encodes."""
    return tuple(key // (n + 1) ** k % (n + 1) for k in range(N))
