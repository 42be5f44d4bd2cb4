"""Tests for the exact coefficient field Q(q, eta, zeta, u, v, w).

Expected values were computed independently (by hand for the small closed
forms, and against sympy as a second implementation for gcd/cancellation).
"""

import itertools
import sys
import traceback
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopdeform import ratfunc
from loopdeform.errors import PoleError
from loopdeform.freealg import add_term
from loopdeform.hopf import build_hopf
from loopdeform.presentations import ALGEBRA_BUILDERS, get_presentation
from loopdeform.ratfunc import (
    MultiPoly,
    RatFunc,
    VARIABLES,
    clear_denominators,
    divexact,
    laurent_coeffs,
    mp_gcd,
    parse_ratfunc,
    q_power,
    rf,
)
from loopdeform.repn import default_reps

Q = rf("q")
ETA = rf("eta")


# ---------------------------------------------------------------------------
# frozen closed forms
# ---------------------------------------------------------------------------


def test_deformation_coefficient_reduces():
    # eta*(1-q^2)/(q-q^-1) reduces to -eta*q exactly
    val = ETA * (1 - Q**2) / (Q - Q**-1)
    assert val == -ETA * Q
    assert str(val) == "-q*eta"


def test_limit_of_deformation_coefficient():
    val = ETA * (1 - Q**2) / (Q - Q**-1)
    assert val.eval_var("q", 1) == -ETA


def test_limit_cancels_removable_singularity():
    assert rf("(q^2-1)/(q-1)").eval_var("q", 1) == rf(2)


def test_limit_raises_on_true_pole():
    with pytest.raises(PoleError):
        rf("1/(q-1)").eval_var("q", 1)


def test_limit_of_zero_through_vanishing_denominator():
    # 0/(q-1) is the zero function; its limit exists and is 0
    f = RatFunc(MultiPoly.zero(), MultiPoly.var("q") - MultiPoly.one())
    assert f.eval_var("q", 1).is_zero()


def _taylor(f, name, k):
    """The coefficient of name^k in the expansion of f at name = 0."""
    ord0, coeffs = laurent_coeffs(f, name, 0, k)
    return coeffs[k - ord0] if k >= ord0 else rf(0)


def test_geometric_series_coefficients():
    f = rf("1/(1-q)")
    for k in range(6):
        assert _taylor(f, "q", k) == rf(1)


def test_series_coefficient_with_shift():
    assert _taylor(rf("q^2/(1-q)"), "q", 1) == rf(0)
    assert _taylor(rf("q^2/(1-q)"), "q", 3) == rf(1)


def test_laurent_expansion_at_one():
    # q/(q-1)^2 = s^-2 + s^-1 at q = 1+s, exactly (finite expansion)
    f = rf("(q^2+q)/((q-1)^2*(q+1))")
    ord0, coeffs = laurent_coeffs(f, "q", 1, 2)
    assert ord0 == -2
    assert coeffs == [rf(1), rf(1), rf(0), rf(0), rf(0)]


def test_laurent_of_regular_function():
    ord0, coeffs = laurent_coeffs(rf("q^2"), "q", 1, 2)
    # (1+s)^2 = 1 + 2s + s^2
    assert ord0 == 0
    assert coeffs == [rf(1), rf(2), rf(1)]


def test_laurent_coefficients_keep_other_variables():
    f = ETA / (Q - 1)
    ord0, coeffs = laurent_coeffs(f, "q", 1, 0)
    assert ord0 == -1
    assert coeffs == [ETA, rf(0)]


def test_gcd_across_variables():
    p = (Q**2 - 1) * (rf("u") + rf("v"))
    r = (Q - 1) * (rf("u") + rf("v")) ** 2
    g = mp_gcd(p.num, r.num)
    expect = ((Q - 1) * (rf("u") + rf("v"))).num
    assert g == expect


def test_multivariate_cancellation():
    assert rf("(u^2-v^2)/(u-v)") == rf("u+v")
    assert rf("(q*eta+eta)/(q^2-1)") == ETA / (Q - 1)


def test_denominator_is_monic():
    f = rf("1/(2*q-2)")
    assert str(f.den) == "q - 1"
    assert f.num.const_value() == Fraction(1, 2)


def test_negative_exponent_parsing_and_printing():
    f = rf("q^-1")
    assert f == RatFunc.one() / Q
    assert q_power(-2) == Q**-2
    # printer emits only non-negative exponents
    assert "^-" not in str(Q**-3)


@pytest.mark.parametrize("text", ["q^", "q+", "(q", ""])
def test_truncated_text_is_a_value_error_naming_it(text):
    with pytest.raises(ValueError) as info:
        parse_ratfunc(text)
    assert str(info.value) == "unexpected end of input in %r" % text


@pytest.mark.parametrize("text, message", [
    ("q$", "bad character '$' in 'q$'"),
    ("q q", "trailing input in 'q q'"),
    ("nope", "unknown variable 'nope'"),
    ("q^x", "exponent must be an integer"),
    ("q^(2)", "exponent must be an integer"),
    ("(q q", "missing closing parenthesis"),
    (")", "unexpected token ')'"),
], ids=["bad-character", "trailing", "unknown-variable", "name-exponent",
        "group-exponent", "unclosed", "unexpected-token"])
def test_malformed_text_is_a_value_error_naming_its_fault(text, message):
    with pytest.raises(ValueError) as info:
        parse_ratfunc(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("(" * 200 + "1" + ")" * 200, "nested too deeply"),
    ("-" * 1200 + "q", "nested too deeply"),
    ("q^70000", "an exponent passed the largest stored, 65535"),
], ids=["parentheses", "signs", "exponent"])
def test_text_past_the_parser_limits_is_a_value_error_naming_it(text, message):
    # rf on a string is parse_ratfunc; neither lets a RecursionError or an
    # OverflowError escape
    for parse in (parse_ratfunc, rf):
        with pytest.raises(ValueError) as info:
            parse(text)
        assert str(info.value) == "%s in %r" % (message, text)


def test_constants_hash_like_their_values():
    # equal objects must hash equal, so a constant and its value are one key
    assert rf(3) == 3 and hash(rf(3)) == hash(3)
    half = Fraction(1, 2)
    assert rf("1/2") == half and hash(rf("1/2")) == hash(half)
    assert len({rf(3), 3}) == 1
    assert len({rf(0), 0, rf(-2), Fraction(-2), rf("4/2"), 2}) == 3


def test_eval_var_partial():
    f = ETA * Q / (Q + 1)
    assert f.eval_var("q", 1) == ETA / 2
    assert f.eval_var("eta", 0).is_zero()


def test_map_vars_renaming():
    f = rf("1/(u-v)")
    g = f.map_vars({"v": "w"})
    assert g == rf("1/(u-w)")
    # simultaneous swap, not sequential
    h = rf("u*v^2").map_vars({"u": "v", "v": "u"})
    assert h == rf("v*u^2")


# ---------------------------------------------------------------------------
# sympy as an independent oracle for reduction
# ---------------------------------------------------------------------------

_SYMS = sympy.symbols(" ".join(VARIABLES))


def _to_sympy(p: MultiPoly):
    acc = sympy.Integer(0)
    for exp, c in p.monomials():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(_SYMS, exp):
            term *= s**e
        acc += term
    return acc


def _rf_to_sympy(f: RatFunc):
    return _to_sympy(f.num) / _to_sympy(f.den)


ORACLE_CASES = [
    "(q^4-1)/(q^2-1)",
    "(q^3 - 3*q^2 + 3*q - 1)/(q^2 - 2*q + 1)",
    "(u^3 - v^3)/(u^2 + u*v + v^2)",
    "(eta^2*q^2 - eta^2)/(eta*q - eta)",
    "(q^2*u - q^2*v - u + v)/((q-1)*(u-v))",
    "1/(q - q^-1) + 1/(q^2 - 1)",
    "(zeta*u + zeta*v)^2/(u + v)",
]


@pytest.mark.parametrize("text", ORACLE_CASES)
def test_reduction_matches_sympy(text):
    ours = parse_ratfunc(text)
    theirs = sympy.cancel(sympy.sympify(text.replace("^", "**"), dict(zip(VARIABLES, _SYMS))))
    diff = sympy.simplify(_rf_to_sympy(ours) - theirs)
    assert diff == 0
    # and our stored form is fully reduced
    assert mp_gcd(ours.num, ours.den) == MultiPoly.one()


def test_gcd_matches_sympy_on_products():
    import random

    rng = random.Random(20260815)
    basis = [_poly(rng) for _ in range(6)]
    for _ in range(10):
        f = basis[rng.randrange(6)] * basis[rng.randrange(6)]
        g = basis[rng.randrange(6)] * basis[rng.randrange(6)]
        ours = mp_gcd(f.num, g.num)
        theirs = sympy.gcd(_rf_to_sympy(f), _rf_to_sympy(g))
        # compare up to a rational constant: both divide each other
        ratio = sympy.cancel(_to_sympy(ours) / theirs)
        assert ratio.is_rational or ratio.is_Rational, (ours, theirs)


def _poly(rng):
    names = ["q", "eta", "u", "v"]
    acc = rf(rng.randint(1, 3))
    for _ in range(rng.randint(1, 2)):
        acc = acc * (rf(rng.choice(names)) + rf(rng.randint(-2, 2)))
    return acc


# ---------------------------------------------------------------------------
# field axioms as properties
# ---------------------------------------------------------------------------

_small_poly = st.builds(
    lambda coeffs: sum(
        (rf(c) * rf(n) ** e for (c, n, e) in coeffs),
        rf(0),
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.sampled_from(["q", "eta", "u"]),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=0,
        max_size=3,
    ),
)

_small_ratfunc = st.builds(
    lambda a, b: a / b if not b.is_zero() else a,
    _small_poly,
    _small_poly,
)


@settings(max_examples=60, deadline=None)
@given(_small_ratfunc, _small_ratfunc, _small_ratfunc)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == rf(0)
    if not a.is_zero():
        assert a / a == rf(1)
        assert a * (rf(1) / a) == rf(1)


@settings(max_examples=60, deadline=None)
@given(_small_ratfunc)
def test_parser_round_trip(f):
    assert parse_ratfunc(str(f)) == f


@settings(max_examples=40, deadline=None)
@given(_small_poly, st.integers(min_value=0, max_value=3))
def test_series_of_polynomial_is_its_coefficient(p, k):
    # when the denominator is constant, the Taylor coefficient at q=0 is the
    # literal coefficient of q^k
    if not p.den.is_const():
        return
    expect = RatFunc(
        MultiPoly({(0,) + e[1:]: c for e, c in p.num.monomials() if e[0] == k}),
        p.den,
    )
    assert _taylor(p, "q", k) == expect


# ---------------------------------------------------------------------------
# canonical coefficients: an int when integral, else a Fraction
# ---------------------------------------------------------------------------


def _assert_canonical(x):
    """Every stored coefficient of x (a MultiPoly or RatFunc) is an int or a
    Fraction with denominator > 1; none is a float or an integral Fraction."""
    for p in (x.num, x.den) if isinstance(x, RatFunc) else (x,):
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator > 1), (x, c)


_coefficient = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.builds(Fraction, st.integers(min_value=-4, max_value=4),
              st.integers(min_value=1, max_value=3)))

# q, eta, u exponents with coefficients given as ints or Fractions, integral
# Fractions among them
_mixed_poly = st.builds(
    lambda terms: MultiPoly({(a, b, 0, c, 0, 0): k for k, (a, b, c) in terms}),
    st.lists(st.tuples(_coefficient,
                       st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)),
             max_size=4))


@settings(max_examples=60, deadline=None)
@given(_mixed_poly, _mixed_poly, _coefficient,
       st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(4, 2)]))
def test_coefficients_are_canonical(f, g, c, value):
    polys = [f, g, f + g, f - g, f * g, f.scale(c), f.eval_var(0, value),
             f.map_vars({0: 3, 3: 0})]
    if not g.is_zero():
        polys.append(divexact(f * g, g))
    fields = [RatFunc(f), RatFunc(f, g)] if not g.is_zero() else [RatFunc(f)]
    a = fields[-1]
    b = RatFunc(g) + rf(c)
    fields += [a + b, a - b, a * b, parse_ratfunc(str(a))]
    if not b.is_zero():
        fields.append(a / b)
    try:
        fields.append(a.eval_var("q", value))
    except PoleError:
        pass
    fields.extend(laurent_coeffs(RatFunc(f) + rf(c), "q", value, 2)[1])
    for x in polys + fields:
        _assert_canonical(x)
    for x in fields:
        if x.is_const():
            assert type(x.const_value()) in (int, Fraction)


def test_integral_quotients_stay_ints():
    two_q_two = rf("2*q + 2").num
    quotient = divexact(two_q_two, MultiPoly.const(2))
    assert quotient == rf("q + 1").num
    assert all(type(c) is int for c in quotient.terms.values())
    half = divexact(rf("q + 1").num, MultiPoly.const(2))
    assert sorted(half.terms.values()) == [Fraction(1, 2)] * 2
    _assert_canonical(half)
    assert type((rf(4) / rf(2)).const_value()) is int
    assert (rf(3) / rf(2)).const_value() == Fraction(3, 2)
    assert type(RatFunc(MultiPoly.const(6), MultiPoly.const(3))
                .const_value()) is int


def test_integral_fraction_and_int_build_the_same_poly():
    exp = (1, 0, 0, 2, 0, 0)
    from_fraction = MultiPoly({exp: Fraction(3)})
    from_int = MultiPoly({exp: 3})
    assert from_fraction == from_int
    assert hash(from_fraction) == hash(from_int)
    assert type(dict(from_fraction.monomials())[exp]) is int
    assert str(from_fraction) == str(from_int) == "3*q*u^2"
    assert rf(Fraction(6, 3)) == rf(2)


@pytest.mark.parametrize("text", ["0", "1", "-1", "3/2", "q", "1/q",
                                  "(q^2 + eta)/(q - 1)", "-(2/3)*u*v"])
def test_product_by_one_is_the_other_factor(text):
    x = rf(text)
    # one as the shared constant, as a fresh polynomial, and as a quotient
    for one in (rf(1), RatFunc(MultiPoly.const(1)), Q / Q, 1):
        assert x * one == x
        assert one * x == x
        assert str(x * one) == str(one * x) == str(x)


# ---------------------------------------------------------------------------
# gcd of polynomials with the known factors q, q-1, q+1
# ---------------------------------------------------------------------------

# cofactors h of f = c*q^a*(q-1)^b*(q+1)^d*h; all but 1 keep f from splitting
_COFACTORS = ["1", "q - 2", "q^2 + 1", "u + v"]


_g_term = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 4),
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.sampled_from([Fraction(n), Fraction(-1, n)])),
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    st.sampled_from(_COFACTORS),
    st.lists(_g_term, min_size=1, max_size=4),
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
)
def test_known_factor_gcd_matches_generic_path(c, mult, cofactor, g_terms,
                                               g_mult):
    a, b, d = mult
    known = Q**a * (Q - 1)**b * (Q + 1)**d
    f = (rf(c) * known * rf(cofactor)).num
    # g: a random polynomial in q, eta, u, v times some of the same factors
    g0 = MultiPoly({(e[0], e[1], 0, e[2], e[3], 0): k for k, e in g_terms})
    if g0.is_zero():
        g0 = MultiPoly.one()
    ga, gb, gd = g_mult
    g = g0 * (Q**ga * (Q - 1)**gb * (Q + 1)**gd).num
    if cofactor == "1" and not f.is_const() and len(f.terms) > 1:
        assert ratfunc._q_split(f) == mult
    elif cofactor != "1":
        assert ratfunc._q_split(f) is None
    ours = mp_gcd(f, g)
    assert mp_gcd(g, f) == ours
    theirs = sympy.gcd(_to_sympy(f), _to_sympy(g))
    ratio = sympy.cancel(_to_sympy(ours) / theirs)
    assert ratio.is_Rational, (ours, theirs)


def test_q_product_grows_one_factor_at_a_time(monkeypatch):
    """From an empty memo, largest first, every (a, b, d) <= (4, 4, 4) is
    the product of powers, storage order included, and each memo entry
    costs one MultiPoly product: a factor q-1 or q+1 on a memoized
    neighbour, or the shift by q^a."""
    q = MultiPoly.var("q")
    qm, qp = q + MultiPoly.const(-1), q + MultiPoly.const(1)
    refs = {m: q ** m[0] * qm ** m[1] * qp ** m[2]
            for m in itertools.product(range(5), repeat=3)}
    memo = {(0, 0, 0): MultiPoly.one()}
    monkeypatch.setattr(ratfunc, "_Q_PRODUCT", memo)
    counts = {"mul": 0}
    mul = MultiPoly.__mul__

    def counting_mul(x, y):
        counts["mul"] += 1
        return mul(x, y)

    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    for m in sorted(refs, reverse=True):
        assert list(ratfunc._q_product(m).terms.items()) == list(
            refs[m].terms.items()), m
    monkeypatch.undo()
    assert len(memo) == 125 and counts["mul"] == 124


def test_q_product_of_a_large_power_takes_no_deep_recursion(monkeypatch):
    # a recursion one level per factor would need 5,000 levels; q^a is a
    # shift of the keys, and the rest is built in a loop
    monkeypatch.setattr(ratfunc, "_Q_PRODUCT", {(0, 0, 0): MultiPoly.one()})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 50)
    try:
        out = ratfunc._q_product((5_000, 1, 1))
    finally:
        sys.setrecursionlimit(limit)
    assert out == MultiPoly({(5_002,) + (0,) * 5: 1, (5_000,) + (0,) * 5: -1})


@pytest.mark.parametrize("text", ["q - 2", "q^2 + 1", "u + v", "q*(u + v)",
                                  "(q - 1)*(q - 2)"])
def test_unknown_factors_fall_back_to_euclid(text):
    f = rf(text).num
    g = rf("(%s)*(q + 1)*(eta - q)" % text).num
    assert ratfunc._q_split(f) is None
    ours = mp_gcd(f, g)
    assert ours == ratfunc._monic(f)


def test_euclid_takes_a_one_sided_variable_first():
    # f is univariate in q, g also involves eta, u, v: the gcd is found among
    # g's coefficients (a pseudo-remainder sequence in q ran for minutes)
    f = (3 * Q * (Q - 1)**2 * (Q + 1)**3 * rf("q^2 + 1")).num
    g = rf("(q^2*eta^2*u*v + q*u*v^2 - 2*eta*v + 3*q)*(q + 1)").num
    assert mp_gcd(f, g) == rf("q + 1").num


# ---------------------------------------------------------------------------
# arithmetic over the known factors q, q-1, q+1 against the gcd path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("expr", [lambda: 1.5 - rf(1), lambda: "a" - rf(1),
                                  lambda: None / rf(2)])
def test_reflected_operators_reject_foreign_operands(expr):
    with pytest.raises(TypeError):
        expr()


def _ref(num, den):
    """A RatFunc holding num/den as given (already reduced, den monic)."""
    out = RatFunc.__new__(RatFunc)
    out.num, out.den, out.split = num, den, ratfunc._q_split(den)
    return out


def _ref_new(num, den):
    """The gcd-based RatFunc constructor: cancel mp_gcd, make den monic."""
    if num.is_zero():
        return _ref(MultiPoly.zero(), MultiPoly.one())
    if den.is_const():
        c = den.const_value()
        return _ref(num if c == 1 else num.scale(Fraction(1) / c),
                    MultiPoly.one())
    g = mp_gcd(num, den)
    if not (g.is_const() and g.const_value() == 1):
        num = divexact(num, g)
        den = divexact(den, g)
    _, lc = next(iter(den.monomials()))
    if lc != 1:
        num = num.scale(Fraction(1) / lc)
        den = den.scale(Fraction(1) / lc)
    return _ref(num, den)


def _ref_mul(x, y):
    """The gcd-based product: cross-cancel each numerator against the other
    denominator with mp_gcd."""
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    if n1.is_zero() or n2.is_zero():
        return _ref(MultiPoly.zero(), MultiPoly.one())
    if d1.is_const() and d2.is_const():
        return _ref(n1 * n2, MultiPoly.one())
    g1 = mp_gcd(n1, d2)
    if not g1.is_const():
        n1, d2 = divexact(n1, g1), divexact(d2, g1)
    g2 = mp_gcd(n2, d1)
    if not g2.is_const():
        n2, d1 = divexact(n2, g2), divexact(d1, g2)
    return _ref(n1 * n2, d1 * d2)


def _ref_add(x, y):
    """The gcd-based sum: over d1*d2/gcd(d1, d2), then cancel the shared
    factor."""
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    d1, d2 = x.den, y.den
    if d1 == d2:
        return _ref_new(x.num + y.num, d1)
    g = mp_gcd(d1, d2)
    if g.is_const():
        t = x.num * d2 + y.num * d1
        return _ref(t, d1 * d2) if t else _ref_new(t, d1)
    d2g = divexact(d2, g)
    t = x.num * d2g + y.num * divexact(d1, g)
    h = mp_gcd(t, g)
    if not h.is_const():
        return _ref_new(divexact(t, h), divexact(d1, h) * d2g)
    return _ref(t, d1 * d2g) if t else _ref_new(t, d1)


def _ref_neg(x):
    return _ref(-x.num, x.den)


def _ref_div(x, y):
    return _ref_new(x.num * y.den, x.den * y.num)


def _assert_split_is_stored(x):
    assert x.split == ratfunc._q_split(x.den), (x, x.split)


def _assert_same(ours, theirs):
    """Equal terms in storage order, coefficient types and str()."""
    for p, r in ((ours.num, theirs.num), (ours.den, theirs.den)):
        assert list(p.terms.items()) == list(r.terms.items())
        assert [type(c) for c in p.terms.values()] == \
            [type(c) for c in r.terms.values()]
    assert str(ours) == str(theirs)
    _assert_split_is_stored(ours)


_QV = MultiPoly.var("q")


def _known_product(mult):
    a, b, d = mult
    return (_QV ** a * (_QV - MultiPoly.one()) ** b
            * (_QV + MultiPoly.one()) ** d)


# one factor that does not split over q, q-1, q+1 ("" for none)
_OTHER_FACTORS = {"": MultiPoly.one(), "u + v": rf("u + v").num,
                  "q - 2": rf("q - 2").num}

_multiplicities = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)

# num/den with den = c*q^a*(q-1)^b*(q+1)^d, sometimes times u + v or q - 2,
# and num a polynomial in q, eta, u, v, sometimes times known factors that
# the other operand's denominator carries
_operand = st.builds(
    lambda c, den_mult, other, terms, num_mult: (
        MultiPoly({(e[0], e[1], 0, e[2], e[3], 0): k for k, e in terms})
        * _known_product(num_mult),
        (_known_product(den_mult) * _OTHER_FACTORS[other]).scale(c)),
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]),
    _multiplicities,
    st.sampled_from(["", "", "", "u + v", "q - 2"]),
    st.lists(st.tuples(st.integers(min_value=-3, max_value=3),
                       st.tuples(st.integers(min_value=0, max_value=2),
                                 *[st.integers(min_value=0, max_value=1)] * 3)),
             min_size=1, max_size=2),
    st.tuples(*[st.integers(min_value=0, max_value=1)] * 3),
)


def _constructed(operand):
    """RatFunc(num, den), checked against the gcd-based constructor."""
    num, den = operand
    x = RatFunc(num, den)
    _assert_same(x, _ref_new(num, den))
    return x


def _no_gcd(*args):
    raise AssertionError("mp_gcd called on operands that both split")


@settings(max_examples=150, deadline=None)
@given(_operand, _operand, _operand,
       st.sampled_from(["pair", "pair", "negated", "absorbed"]))
def test_exponent_path_matches_gcd_path(a, b, c, shape):
    x, y = _constructed(a), _constructed(b)
    if shape == "negated":
        # sums that cancel to zero
        y = -x
    elif shape == "absorbed":
        # x + y is the third operand: its numerator absorbs the factors of
        # x's denominator that the third one lacks
        y = _constructed(c) - x
        _assert_same(x + y, _constructed(c))
    both_split = x.split is not None and y.split is not None
    # the references cancel through mp_gcd, so they are made before the
    # guard goes up: it watches only the exponent path's own calls
    refs = [_ref_mul(x, y), _ref_mul(y, x), _ref_add(x, y), _ref_add(y, x),
            _ref_add(x, _ref_neg(y)), _ref_add(y, _ref_neg(x))]
    with pytest.MonkeyPatch.context() as mp:
        if both_split:
            mp.setattr(ratfunc, "mp_gcd", _no_gcd)
        got = [x * y, y * x, x + y, y + x, x - y, y - x]
    pairs = list(zip(got, refs))
    if not y.is_zero():
        pairs.append((x / y, _ref_div(x, y)))
    for ours, theirs in pairs:
        _assert_same(ours, theirs)
    if shape == "negated":
        assert (x + y).is_zero() and str(x + y) == "0"


def _fail(name):
    def fail(*args):
        raise AssertionError("%s called in a product by a constant" % name)
    return fail


# denominators that split (q^a*(q-1)^b*(q+1)^d), that do not (u - v, q - 2)
# and the shared 1, under numerators with and without those factors
@pytest.mark.parametrize("text", [
    "1/q", "(q + 1)/(q^2*(q - 1)^3)", "(eta*u + 2)/((q - 1)*(q + 1)^2)",
    "q^3/(q + 1)", "2/(q*(q - 1))", "(q^2 + eta)/(u - v)", "u/(q - 2)",
    "(q - 1)/((q - 2)*(u - v))", "3/(u - v)", "eta + u", "q"])
@pytest.mark.parametrize("c", [2, -1, -3, Fraction(1, 2), Fraction(-2, 3)])
def test_constant_products_skip_cancellation(text, c):
    # a nonzero constant shares no factor with a reduced denominator
    x, k = rf(text), RatFunc.const(c)
    want = _ref_mul(k, x)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_strip", "mp_gcd", "divexact"):
            mp.setattr(ratfunc, name, _fail(name))
        got = [k * x, x * k, c * x, x * c]
    for ours in got:
        _assert_same(ours, want)
        assert ours.split == want.split
        if want.den.terms == MultiPoly.one().terms:
            assert ours.den is MultiPoly.one()


def test_construction_sites_store_the_split():
    # every RatFunc in the shipped relations, Hopf maps and default reps
    # carries its denominator's split, and every one of those denominators
    # splits (the results of the differential test above are checked there)
    coeffs = []
    for name in ALGEBRA_BUILDERS:
        p = get_presentation(name)
        H = build_hopf(p)
        coeffs += [c for rel in p.relations for c in rel.repl.terms.values()]
        coeffs += [c for t in H.delta.values() for c in t.terms.values()]
        coeffs += [c for x in H.antipode.values() for c in x.terms.values()]
        coeffs += list(H.epsilon.values())
        coeffs += [c for rep in default_reps(p)
                   for m in rep.images.values() for c in m.entries.values()]
    for c in coeffs:
        _assert_split_is_stored(c)
        assert c.split is not None, c
    assert any(any(c.split) for c in coeffs)


def test_a_denominator_one_is_the_shared_constant():
    # the product fast path tests the shared constant by identity
    u, v = rf("u"), rf("v")
    s = (u + v).num
    for x in ((rf(1) / (u - v)) * (u - v), RatFunc(s, s),
              u / (u + v) + v / (u + v)):
        assert x.den is ratfunc._ONE_POLY, x
        assert x.split == (0, 0, 0)


# ---------------------------------------------------------------------------
# results canonical by construction against the sorting references
# ---------------------------------------------------------------------------


def _sorting_mul(f, g):
    """The product through the sorting constructor."""
    out = {}
    for e1, c1 in f.monomials():
        for e2, c2 in g.monomials():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiPoly(out)


def _sorting_add(f, g):
    out = dict(f.monomials())
    for e, c in g.monomials():
        out[e] = out.get(e, 0) + c
    return MultiPoly(out)


def _sorting_neg(f):
    return MultiPoly({e: -c for e, c in f.monomials()})


def _sorting_scale(f, c):
    return MultiPoly({e: k * c for e, k in f.monomials()})


def _divexact_strip(mult, p):
    """The strip through divexact: each multiplicity by trial division,
    capped at mult, then one division by their product."""
    caps = [0, 0, 0]
    for k, cap in enumerate(mult):
        while caps[k] < cap:
            trial = list(caps)
            trial[k] += 1
            try:
                divexact(p, _known_product(trial))
            except ValueError:
                break
            caps = trial
    quotient = divexact(p, _known_product(caps))
    return MultiPoly(dict(quotient.monomials())), tuple(caps)


def _assert_same_poly(ours, theirs):
    """Equal terms in storage order, coefficient types and hash."""
    assert list(ours.monomials()) == list(theirs.monomials())
    assert [type(c) for c in ours.terms.values()] == \
        [type(c) for c in theirs.terms.values()]
    assert hash(ours) == hash(theirs)


# pairs among them multiply or add to integers: 2 * 1/2, 3/2 * 2/3
_trusted_coefficient = st.sampled_from(
    [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
     Fraction(2, 3)])

_exponent = st.builds(lambda a, b, c: (a, b, 0, c, 0, 0),
                      *[st.integers(min_value=0, max_value=2)] * 3)

_monomial = st.builds(lambda c, e: MultiPoly({e: c}),
                      _trusted_coefficient, _exponent)

_trusted_operand = st.one_of(
    _monomial,
    st.builds(lambda terms: MultiPoly(dict(terms)),
              st.lists(st.tuples(_exponent, _trusted_coefficient),
                       max_size=4)))


@settings(max_examples=200, deadline=None)
@given(_trusted_operand, _trusted_operand, _trusted_coefficient,
       st.sampled_from([0, 1, -1, Fraction(4, 2), Fraction(2, 3)]))
def test_trusted_arithmetic_matches_sorting_references(f, g, c, s):
    pairs = [(f * g, _sorting_mul(f, g)), (g * f, _sorting_mul(g, f)),
             (f + g, _sorting_add(f, g)), (-f, _sorting_neg(f)),
             (f.scale(s), _sorting_scale(f, s))]
    if f:
        # monomials with f's leading exponent: sums of one term, or none
        h = MultiPoly({next(iter(f.monomials()))[0]: c})
        pairs += [(h + h, _sorting_add(h, h)), (h + f, _sorting_add(h, f)),
                  (h + -h, _sorting_add(h, _sorting_neg(h)))]
    if g:
        pairs.append((divexact(f * g, g), f))
    for ours, theirs in pairs:
        _assert_same_poly(ours, theirs)


@settings(max_examples=200, deadline=None)
@example(multiplicities=(0, 2, 0), p=rf("(q - 1)^2*u + q - 1").num)
@example(multiplicities=(1, 1, 1), p=rf("(q^2 - 1)*eta + q^3 - q").num)
@example(multiplicities=(2, 2, 0), p=rf("q*(q - 1)^2*u - q^2*(q - 1)").num)
@given(_multiplicities,
       st.builds(lambda f, mult: f * _known_product(mult),
                 _trusted_operand.filter(bool), _multiplicities))
def test_strip_matches_the_divexact_strip(multiplicities, p):
    ours, caps = ratfunc._strip(multiplicities, p)
    theirs, ref_caps = _divexact_strip(multiplicities, p)
    assert caps == ref_caps
    _assert_same_poly(ours, theirs)


# ---------------------------------------------------------------------------
# monomials over the shared denominator 1 against the sorting references
# ---------------------------------------------------------------------------

_den_one_monomial = st.builds(
    lambda c, e: MultiPoly({e: c}), _trusted_coefficient,
    st.one_of(st.just(ratfunc._ZEXP), _exponent))


def _assert_den_one(ours, theirs):
    """ours, a RatFunc, is theirs over the shared 1, and a constant among
    them hashes like its value."""
    _assert_same_poly(ours.num, theirs)
    assert ours.den is ratfunc._ONE_POLY
    assert ours.split == (0, 0, 0)
    if not theirs:
        assert ours is RatFunc.zero()
    if theirs.is_const():
        assert hash(ours) == hash(theirs.const_value())


# Fraction pairs whose product or sum is integral, stored as an int
@example(f=MultiPoly.const(Fraction(3, 2)), g=MultiPoly.const(Fraction(2, 3)),
         c=Fraction(-1, 2))
@example(f=MultiPoly.const(Fraction(1, 2)), g=MultiPoly.const(2),
         c=Fraction(1, 2))
@example(f=MultiPoly({(1, 0, 0, 2, 0, 0): Fraction(1, 2)}),
         g=MultiPoly({(0, 1, 0, 0, 0, 0): 2}), c=Fraction(3, 2))
@settings(max_examples=200, deadline=None)
@given(_den_one_monomial, _den_one_monomial, _trusted_coefficient)
def test_den_one_monomial_arithmetic_matches_sorting_references(f, g, c):
    x, y = RatFunc(f), RatFunc(g)
    # a monomial with f's exponent: the sum with f is one term or none
    h = MultiPoly({next(iter(f.monomials()))[0]: c})
    z = RatFunc(h)
    for ours, theirs in [(x * y, _sorting_mul(f, g)),
                         (y * x, _sorting_mul(g, f)),
                         (x * z, _sorting_mul(f, h)),
                         (x + y, _sorting_add(f, g)),
                         (x + z, _sorting_add(f, h)),
                         (x + -x, _sorting_add(f, _sorting_neg(f))),
                         (x * c, _sorting_scale(f, c)),
                         (rf(c), MultiPoly({ratfunc._ZEXP: c}))]:
        _assert_den_one(ours, theirs)
    one = rf(1)
    if x != one:
        # a product by one is the other factor itself
        assert x * one is x and one * x is x and x * 1 is x
    assert x + RatFunc.zero() is x and RatFunc.zero() * x is RatFunc.zero()


# ---------------------------------------------------------------------------
# sums of products reduced once against the eager fold
# ---------------------------------------------------------------------------


def _eager_sum_of_products(pairs):
    """The sum as adding the products one by one into a term dict gives
    it."""
    acc = {}
    for a, b in pairs:
        add_term(acc, 0, a * b)
    return acc.get(0, RatFunc.zero())


def _no_divexact(*args):
    raise AssertionError("divexact called on operands that all split")


# c*p/(q^a*(q-1)^b*(q+1)^d) with p a polynomial in q and eta
_split_operand = st.builds(
    lambda c, mult, terms: RatFunc(
        MultiPoly({(e[0], e[1], 0, 0, 0, 0): k for k, e in terms}),
        _known_product(mult).scale(c)),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
    _multiplicities,
    st.lists(st.tuples(st.integers(min_value=-3, max_value=3),
                       st.tuples(st.integers(min_value=0, max_value=2),
                                 st.integers(min_value=0, max_value=1))),
             min_size=1, max_size=2))

# such an operand, or a monomial over the shared 1
_known_operand = st.one_of(_split_operand, _split_operand,
                           _den_one_monomial.map(RatFunc))


@example(pairs=[(rf("q/(q - 1)"), rf(1)), (rf("-1/(q - 1)"), rf(1))],
         unsplit=None, shape="plain", target=rf(1))
@example(pairs=[(rf("1/(q*(q + 1))"), rf("q")), (rf("1/(q + 1)"), rf(2))],
         unsplit=None, shape="plain", target=rf(1))
@example(pairs=[(rf("1/(q - 1)"), rf("1/(q + 1)")),
                (rf("-1/(q + 1)"), rf("1/(q - 1)")), (rf("eta"), rf(1))],
         unsplit=None, shape="plain", target=rf(1))
@example(pairs=[(rf("2*q"), rf("eta")), (rf("-q"), rf("2*eta")),
                (rf("q"), rf(3))], unsplit=None, shape="plain", target=rf(1))
# a 3-term numerator over q, lifted by (q - 1)*(q + 1) to the lcm
@example(pairs=[(rf("(q^2 + eta*q + 3)/q"), rf("eta - 1")),
                (rf("1/((q - 1)*(q + 1))"), rf("eta"))],
         unsplit=None, shape="plain", target=rf(1))
# a prefix that cancels, then a lifted pair
@example(pairs=[(rf("1/q"), rf("eta")), (rf("-1/q"), rf("eta")),
                (rf("(q + eta + 1)/(q - 1)"), rf("1/(q + 1)")),
                (rf("eta/q"), rf(1))],
         unsplit=None, shape="plain", target=rf(1))
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_known_operand, _known_operand), min_size=1,
                max_size=4),
       # a pair with an operand whose denominator does not split, beside
       # at most one other pair: its sums cancel through mp_gcd
       st.none() | st.tuples(
           st.integers(min_value=0, max_value=1),
           st.builds(lambda x, f: x / f, _den_one_monomial.map(RatFunc),
                     st.sampled_from([rf("u + v"), rf("q - 2")])),
           _den_one_monomial.map(RatFunc)),
       st.sampled_from(["plain", "plain", "negated", "restarted",
                        "absorbed"]),
       _known_operand)
def test_sum_of_products_matches_the_eager_fold(pairs, unsplit, shape,
                                                target):
    if unsplit is not None:
        at, x, y = unsplit
        pairs = pairs[:at] + [(x, y)] + pairs[at:1]
    if shape == "negated":
        # a sum that cancels to zero
        pairs = pairs + [(-a, b) for a, b in reversed(pairs)]
    elif shape == "restarted":
        # a partial sum that cancels, then more products
        pairs = [(a, -b) for a, b in pairs] + pairs + pairs[:2]
    elif shape == "absorbed":
        # the last product makes the sum the target, whose denominator
        # lacks factors the other products' denominators carry
        pairs = pairs + [(target - _eager_sum_of_products(pairs), rf(1))]
    want = _eager_sum_of_products(pairs)
    operands = [x for pair in pairs for x in pair]
    all_split = all(x.split is not None for x in operands)
    with pytest.MonkeyPatch.context() as mp:
        if all_split:
            mp.setattr(ratfunc, "mp_gcd", _no_gcd)
            mp.setattr(ratfunc, "divexact", _no_divexact)
        got = ratfunc.sum_of_products(pairs)
    _assert_same(got, want)
    assert got.split == want.split
    assert (got is RatFunc.zero()) == (want is RatFunc.zero())
    assert (got.den is MultiPoly.one()) == (want.den.terms
                                            == MultiPoly.one().terms)
    if shape == "negated":
        assert got is RatFunc.zero()


# ---------------------------------------------------------------------------
# packed exponent keys: grlex order, the largest exponent and its guard bits
# ---------------------------------------------------------------------------

_EMAX = ratfunc._EMAX

# in-range exponent tuples, the smallest and the largest entries among them
_any_exponent = st.tuples(*[st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([_EMAX - 1, _EMAX]),
    st.integers(min_value=0, max_value=_EMAX))] * len(VARIABLES))


@settings(max_examples=100, deadline=None)
@given(st.lists(_any_exponent, unique=True, max_size=8))
def test_keys_are_in_grlex_order_and_unpack_to_their_exponents(exps):
    p = MultiPoly({e: 1 for e in exps})
    assert [e for e, _ in p.monomials()] == sorted(
        exps, key=lambda e: (sum(e), e), reverse=True)
    for e in exps:
        assert ratfunc._unpack(ratfunc._pack(e)) == e


def test_the_largest_exponent_round_trips():
    exp = (_EMAX, 0, 1, 0, 0, _EMAX)
    p = MultiPoly({exp: 3})
    assert list(p.monomials()) == [(exp, 3)]
    assert str(p) == "3*q^65535*zeta*w^65535"
    assert rf(str(p)).num == p
    assert p.degree(0) == p.degree(5) == _EMAX
    assert p.vars_used() == {0, 2, 5}
    top = MultiPoly.var("eta", _EMAX)
    assert str(top * MultiPoly.var("q")) == "q*eta^65535"
    assert divexact(top * MultiPoly.var("q"), top) == MultiPoly.var("q")


_TOP_Q = RatFunc.var("q", _EMAX)


@pytest.mark.parametrize("build", [
    lambda: MultiPoly.var("q", _EMAX + 1),
    lambda: MultiPoly({(0, 0, _EMAX + 1, 0, 0, 0): 1}),
    lambda: MultiPoly({(0, 0, 0, 1 << 40, 0, 0): 1}),
    # a monomial times a polynomial, and the general product
    lambda: MultiPoly.var("eta", _EMAX) * MultiPoly.var("eta"),
    lambda: (MultiPoly.var("q", _EMAX) + MultiPoly.var("u"))
    * (MultiPoly.var("q") + MultiPoly.var("v")),
    # two monomials over the shared denominator 1
    lambda: RatFunc.var("w", _EMAX) * RatFunc.var("w"),
    lambda: RatFunc.var("u", 40000) * RatFunc.var("u", 30000),
    # the lift of a product to the lcm of the denominators (behind one guard
    # bit, q^65535 times q^65535*q^3 would carry out of q's field), and the
    # product of two numerators
    lambda: ratfunc.sum_of_products(
        [(_TOP_Q, _TOP_Q), (rf("q^-3"), rf(1))]),
    lambda: ratfunc.sum_of_products(
        [(_TOP_Q / rf("q - 1"), rf("q")), (rf("1/(q + 1)"), rf(1))]),
], ids=["var", "tuple", "tuple-huge", "monomial-mul", "mul", "ratfunc-monomial",
        "ratfunc-monomial-halves", "reduced-once-lift", "reduced-once-product"])
def test_exponents_past_the_largest_raise(build):
    # and never alias a neighbouring field
    with pytest.raises(OverflowError):
        build()


@pytest.mark.parametrize("build", [
    lambda: MultiPoly.var("q", -1),
    lambda: MultiPoly({(0, -1, 0, 0, 0, 0): 1}),
    lambda: MultiPoly({(1, 0): 1}),
])
def test_negative_exponents_and_short_tuples_are_refused(build):
    with pytest.raises(ValueError):
        build()


def test_negative_powers_live_in_the_denominator():
    assert RatFunc.var("q", -1) == rf("q^-1")
    assert str(RatFunc.var("q", -1)) == "(1)/(q)"


@pytest.mark.parametrize("f, g", [
    (MultiPoly.var("q"), MultiPoly.var("eta")),
    (MultiPoly.var("eta", _EMAX), MultiPoly.var("q")),
    (rf("q^3*w").num, rf("q*v").num),
    # a remainder past the largest exponent, where no exact quotient
    # reaches, and which the divisor's leading term divides
    (MultiPoly.var("eta", 4) * MultiPoly.var("q", _EMAX), rf("eta^2 + q").num),
], ids=["q/eta", "eta^max/q", "q^3*w/(q*v)", "remainder-past-max"])
def test_divexact_borrow_check_refuses_non_exact_division(f, g):
    # a field below the divisor's borrows from no neighbouring field
    with pytest.raises(ValueError):
        divexact(f, g)


# ---------------------------------------------------------------------------
# powers: square and multiply, against the repeated product
# ---------------------------------------------------------------------------


def _repeated_power(a, n):
    out = RatFunc.one()
    for _ in range(abs(n)):
        out = out * a
    return out if n >= 0 else RatFunc.one() / out


def _stored(x):
    """Everything a product leaves behind: terms in storage order with
    their coefficient types, the split, the shared denominator 1, str()."""
    return ([(e, c, type(c)) for e, c in x.num.terms.items()],
            list(x.den.terms.items()), x.split,
            x.den is ratfunc._ONE_POLY, str(x))


@pytest.mark.parametrize("text", [
    # the denominator splits
    "(q^2 + eta)/(q*(q + 1)^2)", "(eta - q)/(q^2 - 1)",
    # it does not
    "(u + v)/(u - v)", "(q^2 + u)/(q^2 + v + 1)",
    # it is 1
    "2/3*q + eta*u - 1/2", "zeta", "-3",
])
@pytest.mark.parametrize("n", list(range(9)) + [-1, -2, -3, -5])
def test_power_matches_the_repeated_product(text, n):
    a = rf(text)
    assert _stored(a ** n) == _stored(_repeated_power(a, n))


def test_power_squares(monkeypatch):
    # the repeated product made 20,000 products; rf("q^20000") parses
    # through the same power
    counts = {"mul": 0}
    mul = RatFunc.__mul__

    def counting_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(RatFunc, "__mul__", counting_mul)
    x = Q ** 20000
    monkeypatch.undo()
    assert x == RatFunc.var("q", 20000)
    assert counts["mul"] <= 2 * (20000 - 1).bit_length()


# ---------------------------------------------------------------------------
# one common denominator, integer content included
# ---------------------------------------------------------------------------


def _integer_polynomial(x: RatFunc):
    return (x.den == MultiPoly.one()
            and all(type(c) is int for c in x.num.terms.values()))


_scaled_ratfunc = st.builds(lambda f, c: f * rf(c), _small_ratfunc,
                            _coefficient)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=5), _scaled_ratfunc,
                       max_size=4))
def test_cleared_coefficients_are_integer_polynomials(coeffs):
    d, cleared = clear_denominators(coeffs)
    assert _integer_polynomial(d) and next(iter(d.num.terms.values())) > 0
    assert list(cleared) == list(coeffs)
    for k, c in coeffs.items():
        assert _integer_polynomial(cleared[k])
        assert d * c == cleared[k]
        assert cleared[k] / d == c
    # no smaller integer multiple clears them
    content = 0
    for x in (d, *cleared.values()):
        for c in x.num.terms.values():
            content = gcd(content, c)
    assert content == 1


@pytest.mark.parametrize("texts", [
    ["1/2", "q/3", "zeta^2/6"],
    ["eta/(u - v)", "eta/(2*u - 2*v) + 1"],
    ["1/(2*q + 1)", "(q + 1)/(q^2 - 1)", "zeta/6"],
    ["(u + v)/(u^2 - v^2)", "3/(4*u + 4*v)", "eta"],
    ["1/(1 + eta)", "zeta/(2 + 2*eta)^2"],
])
def test_cleared_denominator_matches_sympy(texts):
    coeffs = {t: rf(t) for t in texts}
    d, cleared = clear_denominators(coeffs)
    exprs = [sympy.cancel(_rf_to_sympy(c)) for c in coeffs.values()]
    # the least common multiple over the integers of the reduced
    # denominators, up to sign
    want = sympy.lcm_list([sympy.fraction(e)[1] for e in exprs])
    ours = _to_sympy(d.num)
    assert sympy.expand(ours - want) == 0 or sympy.expand(ours + want) == 0
    for e, k in zip(exprs, coeffs):
        assert sympy.cancel(_to_sympy(cleared[k].num) - ours * e) == 0


def test_integer_polynomial_coefficients_clear_to_themselves():
    coeffs = {0: rf("2*q - eta"), 1: rf(3)}
    d, cleared = clear_denominators(coeffs)
    assert d == 1 and cleared is coeffs
