"""Order-truncated deformation series for the rank-1 eta-deformation.

A series of order N is stored as N + 1 graded coefficients, the k-th a
tensor element whose rational-function coefficients all carry the second
deformation parameter (``zeta``) to the exact power k; the series as an
algebra element is simply the sum of its stored terms.  This module builds
the two-slot twisting element and its one-slot partner, inverts series
exactly, conjugates the coproduct and antipode by them, and verifies the
structural identities (cocycle, coassociativity, homomorphism on relations,
antipode axiom, counit normalization) order by order.  A zero verdict is a
rewriting proof; a normal form that stays nonzero is unknown, because the
rule system is not confluent.  Matrix evaluations are independent witnesses:
a nonzero matrix disproves, a zero one proves nothing.
"""

from fractions import Fraction
from math import factorial

from .errors import ArityMismatchError, NotUnitLeadingError
from .freealg import NCPoly, TensorPoly, add_term, tensor
from .hopf import HopfData, apply_in_slot, build_hopf, counit_in_slot
from .presentations import (
    Presentation,
    build_yangian_sl2,
    check_row,
    rewrite_row,
)
from .ratfunc import rf
from .repn import evaluate_tensor, solve_eval_correction

#: Truncation order used when callers do not ask for one.  High enough that
#: every check sees a nontrivial tail beyond the first-order part, low enough
#: that full symbolic verification stays fast.
DEFAULT_ORDER = 3


def _zeta_graded_exactly(t: TensorPoly, k: int) -> bool:
    """True when every coefficient of t carries zeta to the exact power k."""
    for c in t.terms.values():
        if c.var_degree_range("zeta") != (k, k):
            return False
    return True


class TwistSeries:
    """A unit-leading series truncated at a fixed order.

    ``terms[k]`` is the order-k coefficient, a TensorPoly of common arity
    (two slots for a twisting element, one slot for the antipode partner).
    Construction enforces the two defining invariants:

    * the order-0 term is the unit tensor (``NotUnitLeadingError`` otherwise),
    * the order-k term is divisible by exactly ``zeta^k`` (zero terms pass).

    Conjugated coproduct/antipode expansions are *not* unit leading, so they
    are handled as plain lists of graded coefficients, not as this type.
    """

    __slots__ = ("presentation", "terms", "order", "arity")

    def __init__(self, presentation: Presentation, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a series needs at least its order-0 term")
        arity = terms[0].arity
        for t in terms[1:]:
            if t.arity != arity:
                raise ArityMismatchError(
                    "series terms mix arity %d and %d" % (arity, t.arity))
        if terms[0] != TensorPoly.unit(presentation.alphabet, arity):
            raise NotUnitLeadingError(
                "order-0 term must be the unit tensor, got %s" % (terms[0],))
        for k, t in enumerate(terms):
            if not _zeta_graded_exactly(t, k):
                raise ValueError(
                    "order-%d term is not exactly zeta^%d-graded: %s"
                    % (k, k, t))
        self.presentation = presentation
        self.terms = terms
        self.order = len(terms) - 1
        self.arity = arity

    def value(self) -> TensorPoly:
        """The series as a single tensor element (sum of the graded terms)."""
        acc = self.terms[0]
        for t in self.terms[1:]:
            acc = acc + t
        return acc

    def swap_slots(self) -> "TwistSeries":
        """Flip the two tensor slots of every term (two-slot series only;
        ``embed`` raises ``ArityMismatchError`` otherwise)."""
        return TwistSeries(self.presentation,
                           [t.embed((1, 0), 2) for t in self.terms])

    def __mul__(self, other: "TwistSeries") -> "TwistSeries":
        if not isinstance(other, TwistSeries):
            return NotImplemented
        if other.presentation is not self.presentation:
            raise ValueError("series over different presentations")
        N = min(self.order, other.order)
        prod = _graded_mul(self.presentation, self.terms, other.terms, N)
        return TwistSeries(self.presentation, prod)

    def __eq__(self, other):
        return (isinstance(other, TwistSeries)
                and self.arity == other.arity
                and self.terms == other.terms)

    def __str__(self):
        lines = ["order %d: %s" % (k, t) for k, t in enumerate(self.terms)]
        return "\n".join(lines)

    def __repr__(self):
        return "TwistSeries(order=%d, arity=%d)" % (self.order, self.arity)


# ---------------------------------------------------------------------------
# graded arithmetic on coefficient lists
# ---------------------------------------------------------------------------


def _graded_mul(p: Presentation, A, B, N):
    """Product of two graded coefficient lists, truncated at order N.

    Each output order is reduced slotwise through the presentation, so the
    result is a list of normal-form tensor elements."""
    arity = A[0].arity
    out = [TensorPoly.zero(p.alphabet, arity) for _ in range(N + 1)]
    for i, a in enumerate(A):
        if i > N or a.is_zero():
            continue
        for j, b in enumerate(B):
            if i + j > N:
                break
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    return [p.normal_form_tensor(t) for t in out]


def _conjugate(p: Presentation, left: TwistSeries, right: TwistSeries,
               mid, N: int):
    """left * mid * right on graded lists; mid is a coefficient list."""
    return _graded_mul(p, _graded_mul(p, left.terms, mid, N), right.terms, N)


def _order_zero_list(t, N: int):
    """A graded list whose only entry is t at order 0."""
    return [t] + [TensorPoly.zero(t.alphabet, t.arity)] * N


def _as_ncpoly(t: TensorPoly) -> NCPoly:
    """Unwrap a one-slot tensor element."""
    if t.arity != 1:
        raise ArityMismatchError("expected a one-slot element, got arity %d"
                                 % t.arity)
    return NCPoly(t.alphabet, {w[0]: c for w, c in t.terms.items()})


# ---------------------------------------------------------------------------
# the twisting element and its partner
# ---------------------------------------------------------------------------


def _cartan_ladder(p: Presentation, k: int) -> NCPoly:
    """h(h+2)(h+4)...(h+2(k-1)) for the rank-1 Cartan generator; unit at k=0."""
    h = p.gen("ha1")
    out = p.unit()
    for i in range(k):
        out = out * (h + p.unit().scale(rf(2 * i)))
    return p.normal_form(out)


def twist_F(N: int = DEFAULT_ORDER, p: Presentation = None) -> TwistSeries:
    """Two-slot twisting element of order N.

    The order-k coefficient is (zeta^k / k!) * ladder_k (x) f^k, where
    ladder_k is the falling Cartan product h(h+2)...(h+2(k-1)) and f the
    lowering generator."""
    if p is None:
        p = build_yangian_sl2()
    f = p.gen("e-a1")
    zeta = rf("zeta")
    terms = []
    for k in range(N + 1):
        c = zeta ** k * rf(Fraction(1, factorial(k)))
        terms.append(tensor(_cartan_ladder(p, k), f ** k).scale(c))
    return TwistSeries(p, terms)


def twist_u(N: int = DEFAULT_ORDER, p: Presentation = None) -> TwistSeries:
    """One-slot partner series that conjugates the antipode.

    The order-k coefficient is ((-zeta)^k / k!) * ladder_k * f^k with the
    Cartan ladder multiplied on the left; the factors do not commute, so the
    order matters.  Terms are stored in normal form."""
    if p is None:
        p = build_yangian_sl2()
    f = p.gen("e-a1")
    zeta = rf("zeta")
    terms = []
    for k in range(N + 1):
        c = (-zeta) ** k * rf(Fraction(1, factorial(k)))
        word = p.normal_form(_cartan_ladder(p, k) * f ** k)
        terms.append(word.tensor().scale(c))
    return TwistSeries(p, terms)


def series_inverse(X: TwistSeries) -> TwistSeries:
    """Multiplicative inverse modulo zeta^{order+1}.

    With X = 1 + sum_{k>=1} X_k the inverse terms satisfy the triangular
    recursion Y_0 = 1, Y_k = -sum_{j=1..k} X_j Y_{k-j}.  Unit-leadingness is
    part of the TwistSeries type, so any attempt to invert a series whose
    order-0 term is not the unit has already raised NotUnitLeadingError."""
    p = X.presentation
    inv = [TensorPoly.unit(p.alphabet, X.arity)]
    for k in range(1, X.order + 1):
        acc = TensorPoly.zero(p.alphabet, X.arity)
        for j in range(1, k + 1):
            if X.terms[j].is_zero() or inv[k - j].is_zero():
                continue
            acc = acc + X.terms[j] * inv[k - j]
        inv.append(p.normal_form_tensor(acc.scale(rf(-1))))
    return TwistSeries(p, inv)


# ---------------------------------------------------------------------------
# twisted structure maps
# ---------------------------------------------------------------------------


def _twisted_delta(H, F, Fi, x, N):
    """Graded coefficients of F Delta(x) Fi, truncated at N."""
    p = H.presentation
    return _conjugate(p, F, Fi, _order_zero_list(H.coproduct(x), N), N)


def _twisted_S(H, u, ui, x, N):
    """Graded coefficients of u S(x) ui as algebra elements, truncated at N."""
    p = H.presentation
    mid = _order_zero_list(H.antipode_of(x).tensor(), N)
    return [_as_ncpoly(t) for t in _conjugate(p, u, ui, mid, N)]


def twisted_coproduct(x: NCPoly, H: HopfData, N: int = DEFAULT_ORDER):
    """Coproduct of x conjugated by the twisting element, truncated at N.

    Returns the list of graded coefficients of F Delta(x) F^{-1}; entry k is
    a two-slot tensor element carrying exactly zeta^k, entry 0 is the
    untwisted coproduct in normal form."""
    F = twist_F(N, H.presentation)
    return _twisted_delta(H, F, series_inverse(F), x, N)


def twisted_antipode(x: NCPoly, H: HopfData, N: int = DEFAULT_ORDER):
    """Antipode of x conjugated by the one-slot partner, truncated at N.

    Returns the list of graded coefficients of u S(x) u^{-1} as plain
    algebra elements; entry 0 is the untwisted antipode in normal form."""
    u = twist_u(N, H.presentation)
    return _twisted_S(H, u, series_inverse(u), x, N)


# ---------------------------------------------------------------------------
# structural checks (report rows: (label, verdict, payload))
# ---------------------------------------------------------------------------


def check_cocycle(N: int = DEFAULT_ORDER, reps=None, p: Presentation = None,
                  twist: TwistSeries = None):
    """Order-by-order cocycle identity of the twisting element.

    Compares (F (x) 1) * ((Delta (x) id)F) with (1 (x) F) * ((id (x) Delta)F)
    modulo zeta^{N+1}.  One row per order carries the symbolic verdict from
    slotwise normal forms; a final row evaluates the total residual on a
    triple of two-dimensional evaluation representations as an independent
    witness.  Passing ``twist`` (a two-slot series) overrides the series
    under test, which lets callers probe deliberately broken variants."""
    if p is None:
        p = twist.presentation if twist is not None else build_yangian_sl2()
    H = build_hopf(p)
    F = twist if twist is not None else twist_F(N, p)
    padded_right = [t.embed((0, 1), 3) for t in F.terms]
    padded_left = [t.embed((1, 2), 3) for t in F.terms]
    delta_first = [p.normal_form_tensor(apply_in_slot(t, 0, H))
                   for t in F.terms]
    delta_second = [p.normal_form_tensor(apply_in_slot(t, 1, H))
                    for t in F.terms]
    lhs = _graded_mul(p, padded_right, delta_first, N)
    rhs = _graded_mul(p, padded_left, delta_second, N)
    rows = []
    total = TensorPoly.zero(p.alphabet, 3)
    for k in range(N + 1):
        d = p.normal_form_tensor(lhs[k] - rhs[k])
        total = total + d
        rows.append(rewrite_row("order-%d" % k, str(d) if d else None))
    if reps is None:
        r = solve_eval_correction(Fraction(1, 2), p)
        reps = (r, r, r)
    m = evaluate_tensor(total, list(reps))
    rows.append(check_row("eval-2dim-cube", None if m.is_zero() else str(m)))
    return rows


def first_order_antisymmetry(p: Presentation = None) -> TensorPoly:
    """Order-zeta coefficient of F minus its slot flip.

    The order-0 parts cancel exactly (both are the unit tensor), so the
    leading deviation from symmetry is this first-order coefficient; it
    equals zeta times the wedge of the Cartan and lowering generators."""
    if p is None:
        p = build_yangian_sl2()
    F = twist_F(1, p)
    diff = [a - b for a, b in zip(F.terms, F.swap_slots().terms)]
    return p.normal_form_tensor(diff[1])


def check_twist_counit(N: int = DEFAULT_ORDER, p: Presentation = None):
    """Counit normalization (eps (x) id)F == 1 == (id (x) eps)F.

    The order-0 term contributes the unit; every higher term must be killed
    by the counit in either slot."""
    if p is None:
        p = build_yangian_sl2()
    H = build_hopf(p)
    F = twist_F(N, p)
    rows = []
    for slot, label in ((0, "eps-left"), (1, "eps-right")):
        pieces = [counit_in_slot(t, slot, H) for t in F.terms]
        resid = [p.normal_form(pieces[0] - p.unit())]
        resid.extend(p.normal_form(x) for x in pieces[1:])
        bad = [k for k, r in enumerate(resid) if not r.is_zero()]
        rows.append(rewrite_row(label, "orders %s" % bad if bad else None))
    return rows


def _per_word(twisted, H, left, right, N):
    """word -> twisted(H, left, right, word, N) on single words, memoized."""
    memo = {}
    A = H.presentation.alphabet

    def of_word(word):
        if word not in memo:
            memo[word] = twisted(H, left, right, NCPoly(A, {word: rf(1)}), N)
        return memo[word]

    return of_word


def _twisted_delta_in_slot(p, delta_of, series, slot, N):
    """Apply the twisted coproduct (delta_of, on single words) inside one
    slot of a graded two-slot list, producing a graded three-slot list."""
    acc = [dict() for _ in range(N + 1)]
    for j, t in enumerate(series):
        if j > N or t.is_zero():
            continue
        for words, c in t.terms.items():
            sub = delta_of(words[slot])
            for i in range(N + 1 - j):
                for pair, c2 in sub[i].terms.items():
                    add_term(acc[i + j], words[:slot] + pair + words[slot + 1:],
                             c * c2)
    return [p.normal_form_tensor(TensorPoly(p.alphabet, 3, d)) for d in acc]


def check_twisted_coassoc(H: HopfData, N: int = DEFAULT_ORDER):
    """Coassociativity of the twisted coproduct modulo zeta^{N+1}.

    For each generator x the two iterated expansions of the twisted
    coproduct are compared order by order; the verdict is zero only if every
    order reduces to zero symbolically."""
    p = H.presentation
    F = twist_F(N, p)
    Fi = series_inverse(F)
    delta_of = _per_word(_twisted_delta, H, F, Fi, N)
    rows = []
    for name in H.delta:
        d = _twisted_delta(H, F, Fi, p.gen(name), N)
        left = _twisted_delta_in_slot(p, delta_of, d, 0, N)
        right = _twisted_delta_in_slot(p, delta_of, d, 1, N)
        bad = []
        for k in range(N + 1):
            r = p.normal_form_tensor(left[k] - right[k])
            if not r.is_zero():
                bad.append((k, str(r)))
        rows.append(rewrite_row(name, bad or None))
    return rows


def check_twisted_homomorphism(H: HopfData, N: int = DEFAULT_ORDER):
    """The twisted coproduct kills every defining relation mod zeta^{N+1}.

    The conjugation is applied to the raw (unreduced) coproduct of each
    relation's zero form, so the rewriting system has to do the cancellation
    order by order rather than inherit it from the untwisted check."""
    p = H.presentation
    F = twist_F(N, p)
    Fi = series_inverse(F)
    rows = []
    for rel in p.relations:
        out = _twisted_delta(H, F, Fi, rel.zero_form(p.alphabet), N)
        bad = [(k, str(t)) for k, t in enumerate(out) if not t.is_zero()]
        rows.append(rewrite_row(rel.label, bad or None))
    return rows


def check_twisted_antipode(H: HopfData, N: int = DEFAULT_ORDER):
    """Antipode axiom for the twisted pair modulo zeta^{N+1}.

    For each generator x and each side, multiplying the twisted-antipode
    image of one slot of the twisted coproduct against the other slot must
    reproduce the counit: m(S'(x)id)Delta'(x) == eps(x) 1 == m(id(x)S')
    Delta'(x).  One row per generator and side."""
    p = H.presentation
    A = p.alphabet
    F = twist_F(N, p)
    Fi = series_inverse(F)
    u = twist_u(N, p)
    antipode_of = _per_word(_twisted_S, H, u, series_inverse(u), N)
    rows = []
    for name in H.delta:
        x = p.gen(name)
        d = _twisted_delta(H, F, Fi, x, N)
        for side, label in ((0, "antipode-left"), (1, "antipode-right")):
            acc = [NCPoly.zero(A) for _ in range(N + 1)]
            for j, t in enumerate(d):
                if t.is_zero():
                    continue
                for (w0, w1), c in t.terms.items():
                    tw = w0 if side == 0 else w1
                    other = NCPoly(A, {(w1 if side == 0 else w0): rf(1)})
                    sx = antipode_of(tw)
                    for i in range(N + 1 - j):
                        if sx[i].is_zero():
                            continue
                        prod = sx[i] * other if side == 0 else other * sx[i]
                        acc[i + j] = acc[i + j] + prod.scale(c)
            acc[0] = acc[0] - p.unit().scale(H.counit(x))
            bad = []
            for k in range(N + 1):
                r = p.normal_form(acc[k])
                if not r.is_zero():
                    bad.append((k, str(r)))
            rows.append(rewrite_row("%s:%s" % (name, label), bad or None))
    return rows
