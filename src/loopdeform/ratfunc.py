"""Exact arithmetic in the field Q(q, eta, zeta, u, v, w).

Polynomials are stored sparsely as {key: coefficient} in descending key
order, so equal polynomials have identical storage.  A key packs an
exponent vector into one int: the total degree on top, then a field per
variable in VARIABLES order, each _BITS value bits under two guard bits.
Key order is then graded-lexicographic, and a product of monomials adds
their keys.  An exponent is at most _EMAX = 2^16 - 1 and never negative
(RatFunc.var puts a negative power in the denominator): a construction or
product past _EMAX raises OverflowError, as a sum of up to three keys in
range sets a guard bit exactly when a field passes _EMAX and carries into
no other field.  The constructor also takes exponent tuples as keys, and
monomials() reads them back.

A coefficient is stored as an int when it is integral and as a
Fraction (denominator > 1) only when it is not: the structure maps of the
loop deformations have integral coefficients almost everywhere, and int
arithmetic is far cheaper than Fraction arithmetic.  Every quotient of
coefficients goes through _div, so no coefficient is ever a float.
Rational functions are kept fully reduced (gcd cancelled) with the
denominator's leading coefficient normalized to 1, which makes equality
structural.

Results are canonical by construction.  The MultiPoly constructor sorts the
terms and makes each coefficient canonical; a result whose terms are
canonical and ordered by construction skips it through _poly: a negation, a
scaling by a nonzero value, a monomial times a polynomial (a translation
keeps the grlex order, and no two products share an exponent), a sum of two
monomials with one exponent, and the quotient divexact builds (its exponents
come out strictly descending).  A RatFunc product or sum of two monomials
over the shared denominator 1 (constants included) is built the same way,
on the one exponent and coefficient pair, without a MultiPoly operation in
between.  The negation of -1 is the shared RatFunc.one(), so the rule
coefficients equal to 1 are that object, which rewriting tests by
identity.  A product of a constant over the denominator 1 with any RatFunc
scales that operand's numerator and keeps its denominator and split: a
nonzero constant shares no factor with a reduced denominator, so there is
nothing to strip and no gcd to take.  Hashes and the memo keys read the
terms in storage order, so an order slip there breaks hashing, not
equality.

Every denominator the shipped presentations, Hopf maps and representations
produce is c*q^a*(q-1)^b*(q+1)^d.  So each RatFunc stores, next to its monic
denominator, the multiplicities (a, b, d) of q, q-1, q+1 in it, or None when
the denominator does not split that way (u+v, q-2, u-v).  When both operands
of a product or a sum carry them, the arithmetic works on the exponents:
each numerator is stripped of the known factors it shares with the other
denominator (the multiplicity of q-r in a polynomial is the least over the
q-polynomials beside each monomial in the other variables, found by
synthetic division, whose quotients are the stripped numerator), and the
new denominator is read from a memo of the products keyed by their
exponents.  No gcd is taken, no polynomial division is made and no two
denominators are multiplied.

A sum of products a1*b1 + ... + an*bn whose operands all split, not all
over 1, is reduced once (sum_of_products, which the slotwise normal forms
use): each product's numerator is lifted to the lcm q^A*(q-1)^B*(q+1)^D of
the products' unreduced denominators, the lifted numerators are added, and
one _strip cancels the known factors that sum shares with the lcm.  Each
lifted product is summed term by term into one dict of keys, so no
MultiPoly is made per product or per lift.  A fraction has one reduced form
with monic denominator, and the storage of its numerator and denominator is
canonical, so this is the RatFunc that reducing every product and partial
sum gives, with one strip in place of one per product and one per sum.

Any other operand goes through mp_gcd, which knows nothing of the factors
q, q-1, q+1: past the trivial and monomial cases it is the primitive-PRS
Euclid algorithm, each of whose remainders is freed of its content in the
other variables and of its rational content.

A caller that multiplies many coefficients can clear them first
(clear_denominators): one scalar d, the lcm of their denominators with its
integer content, and the polynomials d*c with integer coefficients.  Their
products then take neither a gcd nor a Fraction; the Yang-Baxter residual
and the twist suite's graded products divide by d once, at the end.

Nothing mutates a MultiPoly or a RatFunc after construction, so the
constants zero and one are shared instances (MultiPoly.zero/one,
RatFunc.zero/one, and rf(0), rf(1)), and every denominator 1 is
MultiPoly.one().
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, or_, sub

from .errors import PoleError

VARIABLES = ("q", "eta", "zeta", "u", "v", "w")
NVARS = len(VARIABLES)
VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

# a key: the total degree above one field per variable, q's the highest;
# each field is _BITS value bits under two guard bits
_BITS = 16
_EMAX = (1 << _BITS) - 1
_SHIFT = tuple((_BITS + 2) * (NVARS - 1 - i) for i in range(NVARS))
# the key of each variable to the first power
_UNIT = tuple((1 << (_BITS + 2) * NVARS) + (1 << sh) for sh in _SHIFT)
_GUARDS = sum(3 << (sh + _BITS) for sh in _SHIFT)
# every field but q's
_NOT_Q = (1 << _SHIFT[0]) - 1
_ZEXP = 0  # the key of a constant


def _coeff(c):
    """Canonical coefficient: an int when c is integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("coefficients must be Fraction or int, got %r" % (c,))


def _div(a, b):
    """Canonical quotient a/b of two coefficients (b nonzero)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a, b))


def _checked(key):
    """key, unless a field of it passed _EMAX."""
    if key & _GUARDS:
        raise OverflowError("an exponent passed the largest stored, %d" % _EMAX)
    return key


def _power(i, p):
    """The key of variable i to the power p."""
    if p < 0:
        raise ValueError("negative exponent %d in a polynomial" % p)
    # capped where it sets a guard bit and carries no further
    return _checked(min(p, _EMAX + 1) * _UNIT[i])


def _pack(exp):
    """The key of an exponent tuple."""
    if len(exp) != NVARS:
        raise ValueError("an exponent tuple has %d entries: %r" % (NVARS, exp))
    return sum(map(_power, range(NVARS), exp))


def _unpack(key):
    return tuple(key >> sh & _EMAX for sh in _SHIFT)


class MultiPoly:
    """Multivariate polynomial over Q in the fixed variable tuple VARIABLES."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            if type(next(iter(terms))) is not int:
                terms = {_pack(e): c for e, c in terms.items()}
            for e in sorted(terms, reverse=True):
                c = _coeff(terms[e])
                if c:
                    clean[e] = c
            _checked(reduce(or_, clean, 0))
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO_POLY

    @classmethod
    def const(cls, c):
        c = _coeff(c)
        return cls({_ZEXP: c}) if c else _ZERO_POLY

    @classmethod
    def one(cls):
        return _ONE_POLY

    @classmethod
    def var(cls, name, power=1):
        return _poly({_power(VAR_INDEX[name], power): 1})

    # -- predicates / views ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _ZEXP in self.terms)

    def const_value(self):
        if not self.is_const():
            raise ValueError("polynomial is not constant: %s" % self)
        return self.terms.get(_ZEXP, 0)

    def vars_used(self):
        used = reduce(or_, self.terms, 0)
        return {i for i, sh in enumerate(_SHIFT) if used >> sh & _EMAX}

    def degree(self, i):
        """Largest exponent of variable i (0 for the zero polynomial)."""
        sh = _SHIFT[i]
        return max((e >> sh & _EMAX for e in self.terms), default=0)

    def min_degree(self, i):
        sh = _SHIFT[i]
        return min((e >> sh & _EMAX for e in self.terms), default=0)

    def monomials(self):
        """(exponent tuple, coefficient) of each term, in storage order."""
        return ((_unpack(e), c) for e, c in self.terms.items())

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        t1, t2 = self.terms, other.terms
        if len(t1) == 1 and t1.keys() == t2.keys():
            # two monomials with one exponent: one term or none
            (e, c1), = t1.items()
            s = c1 + t2[e]
            return _poly({e: _coeff(s)}) if s else _ZERO_POLY
        out = dict(t1)
        for e, c in t2.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # the type test first: isinstance against Fraction is an ABC check
        if type(other) is not MultiPoly and not isinstance(other, MultiPoly):
            return (self.scale(other) if isinstance(other, (int, Fraction))
                    else NotImplemented)
        t1, t2 = self.terms, other.terms
        if len(t2) == 1:
            t1, t2 = t2, t1
        # a monomial times a polynomial: translation keeps the grlex order,
        # and no two products share an exponent
        if len(t1) == 1:
            (e1, c1), = t1.items()
            out = {e1 + e2: _coeff(c1 * c2) for e2, c2 in t2.items()}
            _checked(reduce(or_, out, 0))
            return _poly(out)
        out = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = e1 + e2
                s = out.get(e)
                # the constructor drops the sums that cancel
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return MultiPoly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return _ZERO_POLY
        return _poly({e: _coeff(k * c) for e, k in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a MultiPoly; use RatFunc")
        out = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- substitution -------------------------------------------------------

    def eval_var(self, i, value):
        """Substitute a rational value for variable i."""
        value = _coeff(value)
        sh, unit = _SHIFT[i], _UNIT[i]
        out = {}
        for e, c in self.terms.items():
            p = e >> sh & _EMAX
            e -= p * unit
            # the constructor drops the sums that cancel
            out[e] = out.get(e, 0) + c * value ** p
        return MultiPoly(out)

    def map_vars(self, mapping):
        """Simultaneously send variable i to variable mapping[i] (exponents add)."""
        out = {}
        for exp, c in self.monomials():
            e = [0] * NVARS
            for i, p in enumerate(exp):
                e[mapping.get(i, i)] += p
            e = _pack(e)
            out[e] = out.get(e, 0) + c
        return MultiPoly(out)

    def to_univariate(self, i):
        """View as a polynomial in variable i: {degree: MultiPoly in the rest}."""
        sh, unit = _SHIFT[i], _UNIT[i]
        out = {}
        for e, c in self.terms.items():
            d = e >> sh & _EMAX
            out.setdefault(d, {})[e - d * unit] = c
        # each row is translated by one key, which keeps its order
        return {d: _poly(t) for d, t in out.items()}

    @staticmethod
    def from_univariate(i, coeffs):
        out = {}
        for d, p in coeffs.items():
            lift = _power(i, d)
            for e, c in p.terms.items():
                e += lift
                out[e] = out.get(e, 0) + c
        return MultiPoly(out)

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.terms.items():
            neg = c < 0
            ac = -c if neg else c
            factors = []
            if ac != 1 or not e:
                factors.append(_coeff_str(ac))
            for name, p in zip(VARIABLES, _unpack(e)):
                if p == 1:
                    factors.append(name)
                elif p:
                    factors.append("%s^%d" % (name, p))
            term = "*".join(factors)
            if not pieces:
                pieces.append(("-" if neg else "") + term)
            else:
                pieces.append(("- " if neg else "+ ") + term)
        return " ".join(pieces)

    def __repr__(self):
        return "MultiPoly(%s)" % self


def _poly(terms) -> MultiPoly:
    """The MultiPoly on terms that are canonical already: nonzero int or
    non-integral Fraction coefficients, keyed in grlex-descending order.
    Only results that are canonical by construction come through here."""
    out = MultiPoly.__new__(MultiPoly)
    out.terms = terms
    return out


# nothing mutates a MultiPoly after construction, so the constants are shared
_ZERO_POLY = MultiPoly()
_ONE_POLY = MultiPoly({_ZEXP: 1})
_ONE_TERMS = _ONE_POLY.terms


def _coeff_str(c):
    return str(c.numerator) if c.denominator == 1 else "(%d/%d)" % (c.numerator, c.denominator)


# -- gcd machinery ----------------------------------------------------------


def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    lc = next(iter(p.terms.values()))
    return p if lc == 1 else p.scale(_div(1, lc))


def divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f/g; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    q = {}
    r = dict(f.terms)
    gterms = g.terms.items()
    gexp, gc = next(iter(gterms))
    while r:
        rexp = max(r)
        # a field of rexp past _EMAX, where no exact remainder reaches, or
        # below gexp's, which borrows from its guard bits
        diff = (rexp | _GUARDS) - gexp
        if rexp & _GUARDS or diff & _GUARDS != _GUARDS:
            raise ValueError("non-exact polynomial division")
        diff -= _GUARDS
        c = _div(r[rexp], gc)
        q[diff] = c
        # r -= c * x^diff * g, which cancels the leading term of r
        for e, k in gterms:
            e += diff
            s = r.get(e, 0) - c * k
            if s:
                r[e] = s
            else:
                del r[e]
    # the leading term of r descends strictly, and so does diff
    return _poly(q)


def _prem(f: MultiPoly, g: MultiPoly, i) -> MultiPoly:
    """Pseudo-remainder of f by g with respect to variable i."""
    fu = f.to_univariate(i)
    gu = g.to_univariate(i)
    n = max(gu)
    lg = gu[n]
    r = dict(fu)
    while r and max(r) >= n:
        m = max(r)
        lr = r[m]
        # r := lg*r - lr * g * x^(m-n)
        new = {}
        for d, p in r.items():
            new[d] = lg * p
        for d, p in gu.items():
            dd = d + m - n
            new[dd] = new.get(dd, MultiPoly()) - lr * p
        r = {d: p for d, p in new.items() if not p.is_zero()}
    return MultiPoly.from_univariate(i, r) if r else MultiPoly()


def _primitive(p: MultiPoly) -> MultiPoly:
    """p over its rational content: coprime integer coefficients."""
    num, den = 0, 1
    for c in p.terms.values():
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    return p.scale(_div(den, num))


def _content_in(f: MultiPoly, i) -> MultiPoly:
    coeffs = list(f.to_univariate(i).values())
    g = coeffs[0]
    for p in coeffs[1:]:
        g = mp_gcd(g, p)
        if g.is_const() and not g.is_zero():
            break
    return _monic(g)


# -- gcd through the known factors q, q-1, q+1 --------------------------------

# the roots of the known factors q - r, in the order their multiplicities
# are listed
_ROOTS = (0, 1, -1)

# the multiplicities of a denominator 1
_NO_FACTORS = (0, 0, 0)

# multiplicities over _ROOTS -> the monic q-only polynomial they make
_Q_PRODUCT = {_NO_FACTORS: _ONE_POLY}

# q - 1 and q + 1
_Q_FACTORS = tuple(MultiPoly({_UNIT[0]: 1, _ZEXP: -r}) for r in _ROOTS[1:])


def _q_split(p: MultiPoly):
    """Multiplicities (a, b, d) with p = c*q^a*(q-1)^b*(q+1)^d, or None when
    p involves another variable or another factor."""
    terms = p.terms
    for e in terms:
        if e & _NOT_Q:
            return None
    return _root_multiplicities({e >> _SHIFT[0] & _EMAX: c
                                 for e, c in terms.items()})


def _root_multiplicities(coeffs):
    """Multiplicities of the roots _ROOTS in the univariate polynomial
    {degree: coefficient}; None unless it splits completely over them."""
    a = min(coeffs)
    # descending coefficients of p / q^a
    desc = [coeffs.get(k, 0) for k in range(max(coeffs), a - 1, -1)]
    desc, b = _divide_root(desc, 1, None)
    desc, d = _divide_root(desc, -1, None)
    return (a, b, d) if len(desc) == 1 else None


def _divide_root(desc, r, cap):
    """(quotient, m) for m the multiplicity of the root r (1 or -1) in the
    polynomial with descending coefficients desc, at most cap (None for no
    cap), and the quotient by (q - r)^m, descending."""
    m = 0
    while len(desc) > 1 and m != cap:
        # synthetic division by q - r; its last value is the remainder
        quo = [desc[0]]
        for c in desc[1:]:
            quo.append(c + quo[-1] if r == 1 else c - quo[-1])
        if quo.pop():
            break
        desc = quo
        m += 1
    return desc, m


def _q_product(mult) -> MultiPoly:
    """The monic q^a*(q-1)^b*(q+1)^d, (a, b, d) = mult.

    A miss steps d, then b, down to the nearest memoized (0, b, d) and
    multiplies back up by one factor q+1 or q-1 a step, memoizing each; q^a
    then shifts the keys.  Loops, not recursion: no exponent costs stack."""
    out = _Q_PRODUCT.get(mult)
    if out is None:
        a, b, d = mult
        missing = []
        while (0, b, d) not in _Q_PRODUCT:
            missing.append((b, d))
            b, d = (b, d - 1) if d else (b - 1, 0)
        out = _Q_PRODUCT[0, b, d]
        for b, d in reversed(missing):
            out = _Q_PRODUCT[0, b, d] = out * _Q_FACTORS[1 if d else 0]
        if a:
            out = _Q_PRODUCT[mult] = out * MultiPoly.var("q", a)
    return out


def _strip(mult, p: MultiPoly):
    """(p / g, multiplicities of g) for g the monic gcd of p with the
    product over mult.

    q - r divides p exactly when it divides the q-polynomial beside each
    monomial in the other variables (a row), so the multiplicity of each
    factor in p is the least over the rows.  A row is keyed by the key of
    its monomial without q, and a term of it by q's exponent.  The quotient
    is read off the synthetic divisions that find the multiplicities; only a
    row divided before a later row lowered them is divided again."""
    terms = p.terms
    a, b, d = mult
    sh, unit = _SHIFT[0], _UNIT[0]
    if a:
        a = min(a, min(e >> sh & _EMAX for e in terms))
    # a monomial has neither 1 nor -1 as a root
    if (b or d) and len(terms) > 1:
        rows = {}
        for e, c in terms.items():
            k = e >> sh & _EMAX
            rows.setdefault(e - k * unit, {})[k] = c
        done = []
        for rest, row in rows.items():
            # descending coefficients of row / q^a
            desc = [row.get(k, 0) for k in range(max(row), a - 1, -1)]
            quo, b = _divide_root(desc, 1, b)
            quo, d = _divide_root(quo, -1, d)
            if not (b or d):
                break
            done.append((rest, desc, quo, b, d))
        if b or d:
            out = {}
            for rest, desc, quo, rb, rd in done:
                if rb != b or rd != d:
                    quo = _divide_root(_divide_root(desc, 1, b)[0], -1, d)[0]
                top = len(quo) - 1
                for j, c in enumerate(quo):
                    if c:
                        out[rest + (top - j) * unit] = c
            return MultiPoly(out), (a, b, d)
    if not a:
        return p, _NO_FACTORS
    # dividing by a power of q translates the keys: the order holds
    return _poly({e - a * unit: c for e, c in terms.items()}), (a, 0, 0)


def mp_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Gcd over Q[VARIABLES], normalized to leading coefficient 1."""
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_const() or g.is_const():
        return MultiPoly.one()
    if f.terms == g.terms:
        return _monic(f)
    if len(f.terms) == 1 or len(g.terms) == 1:
        # a monomial is involved: the gcd is the elementwise-min monomial
        # over every exponent occurring in either polynomial
        keys = [*f.terms, *g.terms]
        return _poly({sum(min(e >> sh & _EMAX for e in keys) * u
                          for sh, u in zip(_SHIFT, _UNIT)): 1})
    fv, gv = f.vars_used(), g.vars_used()
    # prefer a variable that only one of them uses: the gcd then lives in
    # that one's coefficients, and no pseudo-remainder sequence is needed
    i = min(fv ^ gv) if fv != gv else min(fv)
    if f.degree(i) == 0 or g.degree(i) == 0:
        fc = _content_in(f, i) if f.degree(i) else f
        gc = _content_in(g, i) if g.degree(i) else g
        return mp_gcd(fc, gc)
    fc = _content_in(f, i)
    gc = _content_in(g, i)
    c = mp_gcd(fc, gc)
    fp = divexact(f, fc)
    gp = divexact(g, gc)
    if fp.degree(i) < gp.degree(i):
        fp, gp = gp, fp
    while True:
        r = _prem(fp, gp, i)
        if r.is_zero():
            h = gp
            break
        fp = gp
        # without the rational content the coefficients grow exponentially
        # along the sequence
        gp = _primitive(divexact(r, _content_in(r, i)))
        if gp.degree(i) == 0:
            h = MultiPoly.one()
            break
    return _monic(c * _monic(h))


# -- rational functions ------------------------------------------------------


class RatFunc:
    """Reduced fraction of MultiPolys; structural equality is field equality.

    num and den share no factor, and den has leading coefficient 1.  split
    is the triple (a, b, d) with den = q^a*(q-1)^b*(q+1)^d, or None when den
    is not such a product; every constructor sets it, and a denominator 1
    has split (0, 0, 0).

    A product or sum of two operands that both carry a split cancels on the
    multiplicities: a product strips each numerator of the other operand's
    known factors, a sum strips the summed numerator of the factors the two
    denominators share.  The constructor, and with it every quotient, strips
    the numerator the same way when the given denominator splits.  A
    product by a constant over the denominator 1 cancels nothing.  Every
    other product, sum and construction cancels through mp_gcd."""

    __slots__ = ("num", "den", "split")

    def __init__(self, num: MultiPoly, den: MultiPoly = None):
        if den is None:
            den = _ONE_POLY
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = _ZERO_POLY
            self.den = _ONE_POLY
            self.split = _NO_FACTORS
            return
        if den.is_const():
            c = den.const_value()
            self.num = num if c == 1 else num.scale(_div(1, c))
            self.den = _ONE_POLY
            self.split = _NO_FACTORS
            return
        lc = next(iter(den.terms.values()))
        split = _q_split(den)
        if split is not None:
            # den is lc times the product over split
            num, caps = _strip(split, num)
            split = tuple(map(sub, split, caps))
            self.num = num if lc == 1 else num.scale(_div(1, lc))
            self.den = _q_product(split)
            self.split = split
            return
        g = mp_gcd(num, den)
        if not (g.is_const() and g.const_value() == 1):
            num = divexact(num, g)
            den = divexact(den, g)
        if lc != 1:
            inv = _div(1, lc)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        # a denominator 1 is the shared constant (products test it by identity)
        if den.terms == _ONE_TERMS:
            den = _ONE_POLY
        self.den = den
        # the reduced denominator may split where the given one did not
        self.split = _q_split(den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c):
        c = _coeff(c)
        return _make(_poly({_ZEXP: c}), _ONE_POLY, _NO_FACTORS) if c else _ZERO

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def var(cls, name, power=1):
        if power >= 0:
            return cls(MultiPoly.var(name, power))
        return cls(MultiPoly.one(), MultiPoly.var(name, -power))

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        return _div(self.num.const_value(), self.den.const_value())

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its int or Fraction value, so it hashes like it
        if self.den.terms == _ONE_TERMS and self.num.is_const():
            return hash(self.num.const_value())
        return hash((self.num, self.den))

    def __neg__(self):
        num = -self.num
        if num.terms == _ONE_TERMS and self.den is _ONE_POLY:
            return _ONE
        return _make(num, self.den, self.split)

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self.num, other.num
        if self.den is _ONE_POLY and other.den is _ONE_POLY:
            t1, t2 = n1.terms, n2.terms
            if len(t1) == 1 and len(t2) == 1:
                (e, c1), = t1.items()
                c2 = t2.get(e)
                if c2 is not None:
                    # two monomials with one exponent: one term or none
                    s = c1 + c2
                    if not s:
                        return _ZERO
                    if type(s) is not int:
                        s = _coeff(s)
                    return _make(_poly({e: s}), _ONE_POLY, _NO_FACTORS)
        if n1.is_zero():
            return other
        if n2.is_zero():
            return self
        s1, s2 = self.split, other.split
        if s1 is not None and s2 is not None:
            shared = s1
            if s1 != s2:
                # over the lcm, each numerator times its cofactor
                shared = tuple(map(min, s1, s2))
                c1 = tuple(map(sub, s1, shared))
                c2 = tuple(map(sub, s2, shared))
                if any(c2):
                    n1 = n1 * _q_product(c2)
                if any(c1):
                    n2 = n2 * _q_product(c1)
                s1 = tuple(map(max, s1, s2))
            t = n1 + n2
            if t.is_zero():
                return _ZERO
            if any(shared):
                # only the shared factors can cancel against the numerator
                t, caps = _strip(shared, t)
                s1 = tuple(map(sub, s1, caps))
            return _make(t, _q_product(s1), s1)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return RatFunc(n1 + n2, d1)
        g = mp_gcd(d1, d2)
        if g.is_const():
            # coprime reduced denominators: the sum is already reduced
            return _make_reduced(n1 * d2 + n2 * d1, d1 * d2)
        d2g = divexact(d2, g)
        t = n1 * d2g + n2 * divexact(d1, g)
        # only the shared factor can still cancel against the numerator
        h = mp_gcd(t, g)
        if not h.is_const():
            return RatFunc(divexact(t, h), divexact(d1, h) * d2g)
        return _make_reduced(t, d1 * d2g)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        t1, t2 = n1.terms, n2.terms
        # a product by one is the other factor: the structure maps and the
        # slotwise normal forms multiply by one often
        if t1 == _ONE_TERMS and d1.terms == _ONE_TERMS:
            return other
        if t2 == _ONE_TERMS and d2.terms == _ONE_TERMS:
            return self
        if not (t1 and t2):
            return _ZERO
        # both denominators the shared 1: nothing can cancel
        if d1 is _ONE_POLY and d2 is _ONE_POLY:
            if len(t1) == 1 and len(t2) == 1:
                # a monomial times a monomial: one term
                (e1, c1), = t1.items()
                (e2, c2), = t2.items()
                c = c1 * c2
                if type(c) is not int:
                    c = _coeff(c)
                return _make(_poly({_checked(e1 + e2): c}), _ONE_POLY,
                             _NO_FACTORS)
            return _make(n1 * n2, _ONE_POLY, _NO_FACTORS)
        # a nonzero constant shares no factor with a reduced denominator
        if d1 is _ONE_POLY and len(t1) == 1 and _ZEXP in t1:
            return _make(n2.scale(t1[_ZEXP]), d2, other.split)
        if d2 is _ONE_POLY and len(t2) == 1 and _ZEXP in t2:
            return _make(n1.scale(t2[_ZEXP]), d1, self.split)
        # cross-cancel: with both inputs reduced, the product of the
        # cross-reduced pieces is reduced
        s1, s2 = self.split, other.split
        if s1 is not None and s2 is not None:
            if any(s2):
                n1, caps = _strip(s2, n1)
                s2 = tuple(map(sub, s2, caps))
            if any(s1):
                n2, caps = _strip(s1, n2)
                s1 = tuple(map(sub, s1, caps))
            split = tuple(map(add, s1, s2))
            return _make(n1 * n2, _q_product(split), split)
        g1 = mp_gcd(n1, d2)
        if not g1.is_const():
            n1 = divexact(n1, g1)
            d2 = divexact(d2, g1)
        g2 = mp_gcd(n2, d1)
        if not g2.is_const():
            n2 = divexact(n2, g2)
            d1 = divexact(d1, g2)
        return _make_reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return RatFunc.one() / self ** (-n)
        # square and multiply, with no square after the top bit
        out = RatFunc.one()
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # -- substitution and limits ----------------------------------------------

    def eval_var(self, name, value):
        """Substitute a rational value; PoleError if the reduced denominator dies."""
        if self.is_zero():
            return RatFunc.zero()
        i = VAR_INDEX[name]
        value = _coeff(value)
        den = self.den.eval_var(i, value)
        if den.is_zero():
            raise PoleError("pole of %s at %s=%s" % (self, name, value))
        return RatFunc(self.num.eval_var(i, value), den)

    def map_vars(self, name_mapping):
        """Simultaneous variable renaming, e.g. {'u': 'v', 'v': 'w'}."""
        mapping = {VAR_INDEX[a]: VAR_INDEX[b] for a, b in name_mapping.items()}
        den = self.den.map_vars(mapping)
        if den.is_zero():
            raise ZeroDivisionError("renaming collapsed the denominator")
        return RatFunc(self.num.map_vars(mapping), den)

    def var_degree_range(self, name):
        """(min, max) net exponent of a variable across monomials.

        The denominator must be homogeneous in the variable (a single power
        times a part free of it); its exponent counts negatively.  Used for
        grading checks on deformation-parameter coefficients."""
        i = VAR_INDEX[name]
        if self.is_zero():
            return (0, 0)
        dmin, dmax = self.den.min_degree(i), self.den.degree(i)
        if dmin != dmax:
            raise ValueError("denominator is not homogeneous in %s" % name)
        return (self.num.min_degree(i) - dmin, self.num.degree(i) - dmin)

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return _paren_poly(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFunc(%s)" % self


# nothing mutates a RatFunc after construction, so the constants are shared
_ZERO = RatFunc(_ZERO_POLY)
_ONE = RatFunc(_ONE_POLY)


def _make(num: MultiPoly, den: MultiPoly, split) -> RatFunc:
    """The RatFunc num/den, already reduced with den monic; split is den's
    multiplicities over q, q-1, q+1 (None when it does not split)."""
    out = RatFunc.__new__(RatFunc)
    out.num = num
    out.den = den
    out.split = split
    return out


def _make_reduced(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """The RatFunc num/den, already reduced with den monic."""
    if num.is_zero():
        return _ZERO
    if den.terms == _ONE_TERMS:
        den = _ONE_POLY
    return _make(num, den, _q_split(den))


def sum_of_products(pairs):
    """The sum of the products a * b over the (a, b) pairs of RatFuncs.

    When every operand's denominator splits over q, q-1, q+1 and not all of
    them are 1, the sum is reduced once (_reduced_once).  Otherwise (a
    single pair, an operand that does not split, or every denominator 1) it
    is the eager fold of products and sums, which starts afresh after a
    partial sum cancels."""
    if len(pairs) == 1:
        (a, b), = pairs
        t = a * b
        return t if t.num.terms else _ZERO
    reduce_once = False
    for a, b in pairs:
        if a.split is None or b.split is None:
            reduce_once = False
            break
        if a.den is not _ONE_POLY or b.den is not _ONE_POLY:
            reduce_once = True
    if reduce_once:
        return _reduced_once(pairs)
    total = None
    for a, b in pairs:
        t = a * b
        total = t if total is None else total + t
        if not total.num.terms:
            total = None
    return _ZERO if total is None else total


def _reduced_once(pairs):
    """sum_of_products for operands that all split (see the module
    docstring).  A key of the sum adds a key of each numerator and of the
    lift, three keys in range, so the constructor's guard check is
    exact."""
    lifted = []
    for a, b in pairs:
        sa, sb = a.split, b.split
        lifted.append((a.num, b.num,
                       (sa[0] + sb[0], sa[1] + sb[1], sa[2] + sb[2])))
    # there are two pairs at least
    top = tuple(map(max, *[s for _, _, s in lifted]))
    out = {}
    for n1, n2, s in lifted:
        # each product c1*c2*c3 is added into out as it is made: c3 is a
        # term of the lift to the lcm, left out when s is the lcm already,
        # and n2, mostly a monomial, is the factor lifted
        t2 = n2.terms.items()
        if s != top:
            lift = _q_product(tuple(map(sub, top, s))).terms.items()
            t2 = [(e2 + e3, c2 * c3) for e2, c2 in t2 for e3, c3 in lift]
        for e1, c1 in n1.terms.items():
            for e2, c2 in t2:
                e = e1 + e2
                c = c1 * c2 + out.get(e, 0)
                if c:
                    out[e] = c
                else:
                    del out[e]
    if not out:
        return _ZERO
    t, caps = _strip(top, MultiPoly(out))
    split = tuple(map(sub, top, caps))
    return _make(t, _q_product(split), split)


def clear_denominators(coeffs):
    """(d, cleared) for a dict of RatFunc coefficients: d = m*D, where D is
    the lcm of their denominators and m the least positive integer that
    makes D and every D*c have integer coefficients, and cleared maps each
    key to d*c, a polynomial with integer coefficients.  d is a polynomial
    too, over the denominator 1.

    The lcm takes one mp_gcd per distinct denominator other than 1 after
    the first, so none when every denominator is the shared 1.  When d is
    1, cleared is coeffs itself."""
    den = _ONE_POLY
    for d in dict.fromkeys(c.den for c in coeffs.values()
                           if c.den is not _ONE_POLY):
        den = d if den is _ONE_POLY else den * divexact(d, mp_gcd(den, d))
    nums = {k: c.num if c.den is den or c.den == den
            else c.num * divexact(den, c.den) for k, c in coeffs.items()}
    m = 1
    for n in (den, *nums.values()):
        for x in n.terms.values():
            if type(x) is not int:
                m = lcm(m, x.denominator)
    if m == 1 and den is _ONE_POLY:
        return _ONE, coeffs
    return (_make(den.scale(m), _ONE_POLY, _NO_FACTORS),
            {k: _make(n.scale(m), _ONE_POLY, _NO_FACTORS)
             for k, n in nums.items()})


def _paren_poly(p: MultiPoly):
    s = str(p)
    return "(%s)" % s if (" " in s) else s


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        if x == 0:
            return _ZERO
        if x == 1:
            return _ONE
        return RatFunc.const(x)
    if isinstance(x, MultiPoly):
        return RatFunc(x)
    return NotImplemented


def rf(text_or_value) -> RatFunc:
    """Convenience constructor: rf('q'), rf(3), rf('(1-q^2)/(q-q^-1)')."""
    if isinstance(text_or_value, str):
        return parse_ratfunc(text_or_value)
    return _coerce(text_or_value)


def q_power(n: int) -> RatFunc:
    return RatFunc.var("q", n)


# -- series -------------------------------------------------------------------


def laurent_coeffs(f: RatFunc, name: str, point, upto: int):
    """Laurent expansion of f at name=point up to order `upto`.

    Returns (ord0, coeffs) with f = sum_{m>=ord0} coeffs[m-ord0]*(name-point)^m
    + O((name-point)^(upto+1)); coefficients are RatFuncs in the remaining
    variables.  ord0 > upto is reported as (upto+1, []).
    """
    if f.is_zero():
        return (upto + 1, [])
    i = VAR_INDEX[name]
    point = _coeff(point)
    num, den = f.num, f.den
    if point:
        # substitute name -> name + point, exactly
        num = _shift_to(num, i, point)
        den = _shift_to(den, i, point)
    nu = num.to_univariate(i)
    du = den.to_univariate(i)
    vn, vd = min(nu), min(du)
    ord0 = vn - vd
    if ord0 > upto:
        return (upto + 1, [])
    d0 = RatFunc(du[vd])
    coeffs = []
    # series division: c_m = (N_{m} - sum_{j>=1} D_j c_{m-j}) / D_0
    for m in range(0, upto - ord0 + 1):
        acc = RatFunc(nu.get(vn + m, MultiPoly()))
        for j in range(1, m + 1):
            dj = du.get(vd + j)
            if dj is not None and m - j < len(coeffs):
                acc = acc - RatFunc(dj) * coeffs[m - j]
        coeffs.append(acc / d0)
    return (ord0, coeffs)


def _shift_to(p: MultiPoly, i: int, point) -> MultiPoly:
    """Substitute x_i -> x_i + point (exact binomial expansion)."""
    sh, unit = _SHIFT[i], _UNIT[i]
    out = MultiPoly()
    for e, c in p.terms.items():
        n = e >> sh & _EMAX
        base = e - n * unit
        row = {}
        b = 1  # binom(n, m), updated incrementally
        for m in range(n + 1):
            cc = c * b * point ** (n - m)
            if cc:
                e = base + m * unit
                row[e] = row.get(e, 0) + cc
            b = b * (n - m) // (m + 1)
        out = out + MultiPoly(row)
    return out


# -- text format --------------------------------------------------------------


# one token per match: an integer, a name, an operator, or any other
# non-space character (refused); the spaces before each are skipped
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|([-+*/^()])|(\S))")


class _Tok:
    def __init__(self, text):
        self.text = text
        self.toks = []
        for num, name, op, bad in _TOKEN.findall(text):
            if bad:
                raise ValueError("bad character %r in %r" % (bad, text))
            self.toks.append(("int", num) if num else
                             ("name", name) if name else (op, op))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos == len(self.toks):
            raise ValueError("unexpected end of input in %r" % self.text)
        t = self.toks[self.pos]
        self.pos += 1
        return t


def parse_ratfunc(text: str) -> RatFunc:
    """Parse infix +-*/^ with integer (possibly negative) exponents.  Any
    text it refuses, also one nested too deeply or with an exponent past
    _EMAX, is a ValueError naming the text."""
    tk = _Tok(text)
    try:
        out = _parse_expr(tk)
    except RecursionError:
        raise ValueError("nested too deeply in %r" % text) from None
    except OverflowError as exc:
        raise ValueError("%s in %r" % (exc, text)) from None
    if tk.peek() is not None:
        raise ValueError("trailing input in %r" % text)
    return out


def _parse_expr(tk):
    acc = _parse_term(tk)
    while tk.peek() in ("+", "-"):
        op = tk.next()[0]
        rhs = _parse_term(tk)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _parse_term(tk):
    acc = _parse_unary(tk)
    while tk.peek() in ("*", "/"):
        op = tk.next()[0]
        rhs = _parse_unary(tk)
        acc = acc * rhs if op == "*" else acc / rhs
    return acc


def _parse_unary(tk):
    if tk.peek() == "-":
        tk.next()
        return -_parse_unary(tk)
    return _parse_power(tk)


def _parse_power(tk):
    base = _parse_atom(tk)
    if tk.peek() == "^":
        tk.next()
        sign = 1
        if tk.peek() == "-":
            tk.next()
            sign = -1
        kind, val = tk.next()
        if kind != "int":
            raise ValueError("exponent must be an integer")
        return base ** (sign * int(val))
    return base


def _parse_atom(tk):
    kind, val = tk.next()
    if kind == "int":
        return RatFunc.const(int(val))
    if kind == "name":
        if val not in VAR_INDEX:
            raise ValueError("unknown variable %r" % val)
        return RatFunc.var(val)
    if kind == "(":
        inner = _parse_expr(tk)
        if tk.next()[0] != ")":
            raise ValueError("missing closing parenthesis")
        return inner
    raise ValueError("unexpected token %r" % val)
