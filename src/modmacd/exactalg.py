"""Exact sparse multivariate Laurent polynomials and rational functions.

Coefficients are arbitrary-precision Python integers.  A polynomial stores a
sorted tuple of symbol names and a dict mapping exponent tuples (negatives
allowed) to nonzero integer coefficients.  Symbols that appear with exponent
zero everywhere are pruned, so equal values have identical representations.

Sums and products build that canonical form directly, pruning only symbols
that cancelled; a product of two operands with several terms each sums its
term products on packed integer exponent keys and decodes them once.
"""

import json
from math import gcd as int_gcd
from operator import add

from .errors import NonUnitIntoNegativeExponent, ZeroDenominator


class ExactPolynomial:
    """Sparse Laurent polynomial with bigint coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables=(), terms=None, _canonical=False):
        if _canonical:
            self.vars = variables
            self.terms = terms if terms is not None else {}
            return
        variables = tuple(variables)
        terms = dict(terms) if terms else {}
        # drop zero coefficients
        terms = {e: c for e, c in terms.items() if c}
        # sort symbols lexicographically, permuting exponents accordingly
        if variables and tuple(sorted(variables)) != variables:
            order = sorted(range(len(variables)), key=lambda i: variables[i])
            variables = tuple(variables[i] for i in order)
            terms = {tuple(e[i] for i in order): c for e, c in terms.items()}
        # prune symbols with exponent zero in every term
        self.vars, self.terms = _prune(variables, terms)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(c):
        c = int(c)
        return ExactPolynomial((), {(): c} if c else {}, _canonical=True)

    @staticmethod
    def variable(name):
        return ExactPolynomial((name,), {(1,): 1}, _canonical=True)

    @staticmethod
    def monomial(powers, coef=1):
        """powers: mapping symbol -> integer exponent."""
        if not coef:
            return ExactPolynomial.constant(0)
        names = tuple(sorted(n for n, e in powers.items() if e))
        exp = tuple(powers[n] for n in names)
        return ExactPolynomial(names, {exp: int(coef)}, _canonical=True)

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(): 1}

    def is_constant(self):
        return not self.vars

    def constant_value(self):
        """Integer value of a constant polynomial."""
        if self.vars:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), 0)

    def degree(self, name):
        """Maximum exponent of a symbol (0 for the zero polynomial)."""
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def min_degree(self, name):
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    def is_nonnegative(self):
        return all(c > 0 for c in self.terms.values())

    # -- arithmetic -------------------------------------------------------

    def _aligned(self, other):
        """Map both polynomials onto the merged sorted symbol tuple."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = tuple(sorted(set(self.vars) | set(other.vars)))

        def remap(p):
            if p.vars == merged:
                return p.terms
            idx = [merged.index(v) for v in p.vars]
            out = {}
            for e, c in p.terms.items():
                key = [0] * len(merged)
                for pos, ex in zip(idx, e):
                    key[pos] = ex
                out[tuple(key)] = c
            return out

        return merged, remap(self), remap(other)

    def __add__(self, other):
        if isinstance(other, int):
            other = ExactPolynomial.constant(other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        merged, a, b = self._aligned(other)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        cancelled = False
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
                cancelled = True
        if cancelled:
            return _pruned(merged, out)
        return ExactPolynomial(merged, out, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return ExactPolynomial(
            self.vars, {e: -c for e, c in self.terms.items()},
            _canonical=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = ExactPolynomial.constant(other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return ExactPolynomial.constant(0)
            return ExactPolynomial(
                self.vars, {e: c * other for e, c in self.terms.items()},
                _canonical=True)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        if not self.terms or not other.terms:
            return ExactPolynomial.constant(0)
        if len(self.terms) == 1:
            return _mul_monomial(self, other)
        if len(other.terms) == 1:
            return _mul_monomial(other, self)
        return _mul_packed(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ExactPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = ExactPolynomial.constant(other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant hashes like the int it equals
        if not self.vars:
            return hash(self.terms.get((), 0))
        return hash((self.vars, frozenset(self.terms.items())))

    # -- substitution and extraction --------------------------------------

    def substitute(self, bindings):
        """Apply the ring homomorphism sending symbols to polynomials."""
        bound = {}
        for name, val in bindings.items():
            if isinstance(val, int):
                val = ExactPolynomial.constant(val)
            bound[name] = val
        if not any(v in bound for v in self.vars):
            return self
        # each bound power is expanded once over the union of the kept and
        # the bound symbols, and every term's image is summed into one dict
        # over that union
        names = tuple(sorted({v for v in self.vars if v not in bound}.union(
            *(bound[v].vars for v in self.vars if v in bound))))
        index = {v: i for i, v in enumerate(names)}
        powers = {}
        acc = {}
        for e, c in self.terms.items():
            kept = [0] * len(names)
            images = []
            for name, ex in zip(self.vars, e):
                if name not in bound:
                    kept[index[name]] = ex
                elif ex:
                    if (name, ex) not in powers:
                        p = _monomial_power(bound[name], ex)
                        where = [index[v] for v in p.vars]
                        powers[name, ex] = image = []
                        for pe, pc in p.terms.items():
                            key = [0] * len(names)
                            for i, x in zip(where, pe):
                                key[i] = x
                            image.append((tuple(key), pc))
                    images.append(powers[name, ex])
            term = {tuple(kept): c}
            for image in images:
                out = {}
                for k1, c1 in term.items():
                    for k2, c2 in image:
                        k = tuple(map(add, k1, k2))
                        out[k] = out.get(k, 0) + c1 * c2
                term = out
            for k, x in term.items():
                acc[k] = acc.get(k, 0) + x
        return ExactPolynomial(names, acc)

    def coefficient(self, partial):
        """Coefficient of the partial monomial given as symbol -> exponent.

        Symbols named in `partial` but absent from the polynomial count as
        exponent zero.
        """
        want = []
        for name, ex in partial.items():
            if name in self.vars:
                want.append((self.vars.index(name), ex))
            elif ex != 0:
                return ExactPolynomial.constant(0)
        keep = [i for i, v in enumerate(self.vars) if v not in partial]
        names = tuple(self.vars[i] for i in keep)
        out = {}
        for e, c in self.terms.items():
            if all(e[i] == ex for i, ex in want):
                key = tuple(e[i] for i in keep)
                out[key] = out.get(key, 0) + c
        return ExactPolynomial(names, out)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        terms = sorted(self.terms.items())
        payload = {
            "vars": list(self.vars),
            "terms": [{"exp": list(e), "coef": str(c)} for e, c in terms],
        }
        return json.dumps(payload, separators=(",", ":"))

    @staticmethod
    def from_json(text):
        payload = json.loads(text)
        names = tuple(payload["vars"])
        terms = {tuple(t["exp"]): int(t["coef"]) for t in payload["terms"]}
        return ExactPolynomial(names, terms)

    def __repr__(self):
        return "ExactPolynomial(%r, %r)" % (self.vars, self.terms)

    def __str__(self):
        return render(self)


def _monomial_power(p, ex):
    """p**ex where ex may be negative (p must then be a unit monomial)."""
    if ex >= 0:
        return p ** ex
    if len(p.terms) != 1:
        raise NonUnitIntoNegativeExponent(
            "binding for a negative exponent must be a monomial")
    (e, c), = p.terms.items()
    if c not in (1, -1):
        raise NonUnitIntoNegativeExponent(
            "binding for a negative exponent must have coefficient +-1")
    inv = ExactPolynomial(p.vars, {tuple(-x for x in e): c}, _canonical=True)
    return inv ** (-ex)


def _prune(variables, terms):
    """The symbols and terms without the symbols whose exponent is zero in
    every term.  No two terms merge: a dropped exponent is 0 in all."""
    used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
    if len(used) != len(variables):
        variables = tuple(variables[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
    return variables, terms


def _pruned(variables, terms):
    """The polynomial of otherwise canonical terms (sorted symbols, nonzero
    coefficients), without the symbols whose exponent is zero everywhere."""
    return ExactPolynomial(*_prune(variables, terms), _canonical=True)


def _mul_monomial(m, p):
    """m * p for a one-term m: every exponent of p shifts by m's."""
    (em, cm), = m.terms.items()
    if not em:
        return p * cm
    merged, a, b = m._aligned(p)
    (em,) = a
    out = {tuple(x + y for x, y in zip(e, em)): c * cm for e, c in b.items()}
    # a symbol of m vanishes only where p carries the opposite exponent in
    # every term, so the first term decides whether a scan is needed
    first = next(iter(out))
    if any(x and not first[i] for i, x in enumerate(em)):
        return _pruned(merged, out)
    return ExactPolynomial(merged, out, _canonical=True)


def _mul_packed(f, g):
    """f * g accumulated on packed integer exponent keys.

    Symbol i of the product has exponents in [lo_i, lo_i + width_i).  An
    exponent tuple e packs to sum (e_i - lo_i) R_i in the mixed radix
    R = 1, width_i, width_i width_j, ... over the symbols kept, so the key
    of a product of two terms is the sum of their keys (each operand packs
    with its own lows, and the lows add).  The keys are decoded once at the
    end.  Extreme exponents never cancel (the ring is a domain), so a symbol
    is dropped, and packs with weight 0, exactly when its range is {0}; with
    several terms in each operand, at least one symbol is kept.
    """
    merged = f.vars if f.vars == g.vars \
        else tuple(sorted(set(f.vars) | set(g.vars)))
    n = len(merged)
    lo = [0] * n
    hi = [0] * n
    operands = []
    for p in (f, g):
        pos = [merged.index(v) for v in p.vars]
        lows = []
        for j, column in zip(pos, zip(*p.terms)):
            low = min(column)
            lows.append(low)
            lo[j] += low
            hi[j] += max(column)
        operands.append((p, pos, lows))
    keep = [i for i in range(n) if lo[i] or hi[i]]
    radix = [0] * n
    r = 1
    for i in keep:
        radix[i] = r
        r *= hi[i] - lo[i] + 1
    a, b = (_packed_terms(p, [radix[j] for j in pos], lows)
            for p, pos, lows in operands)
    if len(a) < len(b):
        a, b = b, a
    acc = {}
    get = acc.get
    for ka, ca in a:
        for kb, cb in b:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    out = _unpacked(acc, [(hi[i] - lo[i] + 1, lo[i]) for i in keep])
    return ExactPolynomial(tuple(merged[i] for i in keep), out,
                           _canonical=True)


def _packed_terms(p, weights, lows):
    """[(key, coefficient)] of p, key = sum (e_i - low_i) weight_i; built
    one symbol of every term at a time."""
    keys = [-sum(x * w for x, w in zip(lows, weights))] * len(p.terms)
    for column, w in zip(zip(*p.terms), weights):
        keys = [k + x * w for k, x in zip(keys, column)]
    return list(zip(keys, p.terms.values()))


def _unpacked(acc, digits):
    """The nonzero entries of acc with each key decoded into its exponent
    tuple; digits lists (width, low) per symbol, least significant first.
    Decodes one digit of every key at a time."""
    keys = [k for k, c in acc.items() if c]
    columns = []
    for w, low in digits:
        columns.append([k % w + low for k in keys])
        keys = [k // w for k in keys]
    return dict(zip(zip(*columns), [c for c in acc.values() if c]))


# convenience constructors used throughout the package
def P(c):
    return ExactPolynomial.constant(c)


def sym(name):
    return ExactPolynomial.variable(name)


ZERO = P(0)
ONE = P(1)
Q = sym("q")
T = sym("t")


def render(p, var_order=None):
    """Human-readable rendering with a preferred variable order."""
    if p.is_zero():
        return "0"
    names = list(p.vars)
    if var_order:
        pref = [v for v in var_order if v in names]
        names = pref + [v for v in names if v not in pref]
    idx = [p.vars.index(v) for v in names]
    items = sorted(p.terms.items(),
                   key=lambda ec: tuple(ec[0][i] for i in idx))
    parts = []
    for e, c in items:
        factors = []
        for v, i in zip(names, idx):
            ex = e[i]
            if ex == 1:
                factors.append(v)
            elif ex:
                factors.append("%s^%d" % (v, ex))
        body = "*".join(factors)
        if not body:
            chunk = str(c)
        elif c == 1:
            chunk = body
        elif c == -1:
            chunk = "-" + body
        else:
            chunk = "%d*%s" % (c, body)
        parts.append(chunk)
    out = parts[0]
    for chunk in parts[1:]:
        out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
    return out


# ---------------------------------------------------------------------------
# polynomial gcd (content / primitive-part split with univariate lifting)
# ---------------------------------------------------------------------------

def _shift_nonneg(p):
    """Multiply by a monomial so all exponents are >= 0."""
    if not p.terms or not p.vars:
        return p
    mins = [min(e[i] for e in p.terms) for i in range(len(p.vars))]
    if all(m >= 0 for m in mins):
        return p
    out = {tuple(x - m for x, m in zip(e, mins)): c
           for e, c in p.terms.items()}
    return ExactPolynomial(p.vars, out)


def _content_int(p):
    g = 0
    for c in p.terms.values():
        g = int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def _to_univariate(p, name):
    """Split into dict degree -> ExactPolynomial in the remaining symbols."""
    i = p.vars.index(name)
    rest = tuple(v for j, v in enumerate(p.vars) if j != i)
    out = {}
    for e, c in p.terms.items():
        d = e[i]
        key = tuple(x for j, x in enumerate(e) if j != i)
        out.setdefault(d, {})[key] = c
    return {d: ExactPolynomial(rest, t) for d, t in out.items()}


def _from_univariate(coeffs, name):
    result = ZERO
    for d, c in coeffs.items():
        result = result + c * ExactPolynomial.monomial({name: d})
    return result


def poly_divexact(f, g):
    """Exact Laurent division f / g; raises ValueError if not divisible."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return ZERO
    if g.is_constant():
        c = g.constant_value()
        out = {}
        for e, co in f.terms.items():
            q, r = divmod(co, c)
            if r:
                raise ValueError("not divisible")
            out[e] = q
        return ExactPolynomial(f.vars, out)
    name = g.vars[-1]
    fu = _to_univariate(f, name) if name in f.vars else {0: f}
    gu = _to_univariate(g, name)
    dg = max(gu)
    lead = gu[dg]
    # The quotient's lowest power of name is min(f) - min(g).
    low = min(fu) - min(gu)
    quot = {}
    while fu:
        df = max(fu)
        if df - dg < low:
            raise ValueError("not divisible")
        q = poly_divexact(fu[df], lead)
        quot[df - dg] = q
        for d, c in gu.items():
            nd = d + df - dg
            cur = fu.get(nd, ZERO) - q * c
            if cur.is_zero():
                fu.pop(nd, None)
            else:
                fu[nd] = cur
    return _from_univariate(quot, name)


def poly_gcd(f, g):
    """Greatest common divisor up to sign (includes integer content)."""
    f = _shift_nonneg(f)
    g = _shift_nonneg(g)
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.is_constant() or g.is_constant():
        return P(int_gcd(_content_int(f), _content_int(g)))
    name = sorted(set(f.vars) | set(g.vars))[-1]
    if name not in f.vars or name not in g.vars:
        # main symbol missing from one argument: gcd divides its coefficients
        with_it = f if name in f.vars else g
        other = g if name in f.vars else f
        acc = other
        for c in _to_univariate(with_it, name).values():
            acc = poly_gcd(acc, c)
            if acc.is_constant() and acc.terms.get((), 0) in (1, -1):
                break
        return acc
    fu = _to_univariate(f, name)
    gu = _to_univariate(g, name)

    def content(u):
        acc = ZERO
        for c in u.values():
            acc = poly_gcd(acc, c)
            if acc.is_constant() and acc.terms.get((), 0) in (1, -1):
                break
        return acc

    def divide(u, d):
        return {k: poly_divexact(c, d) for k, c in u.items()}

    cf, cg = content(fu), content(gu)
    fu, gu = divide(fu, cf), divide(gu, cg)
    cont = poly_gcd(cf, cg)

    def prem(u, v):
        """Pseudo-remainder of u by v in the main symbol."""
        u = dict(u)
        dv = max(v)
        lead = v[dv]
        while u and max(u) >= dv:
            du = max(u)
            lu = u[du]
            # u := lead*u - lu * x^(du-dv) * v
            new = {}
            for d, c in u.items():
                new[d] = c * lead
            for d, c in v.items():
                nd = d + du - dv
                new[nd] = new.get(nd, ZERO) - lu * c
            u = {d: c for d, c in new.items() if not c.is_zero()}
        return u

    while gu:
        r = prem(fu, gu)
        if r:
            cr = content(r)
            r = divide(r, cr)
        fu, gu = gu, r
    result = cont * _from_univariate(fu, name)
    return result


class RationalFunction:
    """Quotient of two ExactPolynomials; normalization is lazy."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = P(num)
        if den is None:
            den = ONE
        elif isinstance(den, int):
            den = P(den)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        if num.is_zero():
            den = ONE
        self.num = num
        self.den = den

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return other
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den,
            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return RationalFunction(self.num * other, self.den)
        other = _as_rf(other)
        if other is NotImplemented:
            return other
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return other
        if other.num.is_zero():
            raise ZeroDenominator("division by zero")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __pow__(self, n):
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return other
        return self.num * other.den == other.num * self.den

    def is_zero(self):
        return self.num.is_zero()

    def substitute(self, bindings):
        return RationalFunction(self.num.substitute(bindings),
                                self.den.substitute(bindings))

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


def _as_rf(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, ExactPolynomial):
        return RationalFunction(v)
    if isinstance(v, int):
        return RationalFunction(P(v))
    return NotImplemented


def ratfun_normalize(r):
    """Fully reduced representative (idempotent)."""
    num, den = r.num, r.den
    if num.is_zero():
        return RationalFunction(ZERO, ONE)
    # clear Laurent exponents jointly so the gcd runs over ordinary polys
    merged = tuple(sorted(set(num.vars) | set(den.vars)))
    shift = {}
    for v in merged:
        m = min(num.min_degree(v) if v in num.vars else 0,
                den.min_degree(v) if v in den.vars else 0)
        if m < 0:
            shift[v] = -m
    if shift:
        mono = ExactPolynomial.monomial(shift)
        num = num * mono
        den = den * mono
    g = poly_gcd(num, den)
    if not g.is_one():
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    # re-absorb any leftover monomial denominator into Laurent exponents
    if len(den.terms) == 1:
        (e, c), = den.terms.items()
        if any(e):
            inv = ExactPolynomial(
                den.vars, {tuple(-x for x in e): 1}, _canonical=True)
            num = num * inv
            den = P(c)
    # integer content and denominator sign
    cn, cd = _content_int(num), _content_int(den)
    g = int_gcd(cn, cd)
    if g > 1:
        num = ExactPolynomial(
            num.vars, {e: c // g for e, c in num.terms.items()},
            _canonical=True)
        den = ExactPolynomial(
            den.vars, {e: c // g for e, c in den.terms.items()},
            _canonical=True)
    if den.terms[max(den.terms)] < 0:
        num, den = -num, -den
    return RationalFunction(num, den)
