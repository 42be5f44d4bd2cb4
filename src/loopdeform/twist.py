"""Order-truncated deformation series for the rank-1 eta-deformation.

A series of order N is stored as N + 1 graded coefficients, the k-th a
tensor element whose rational-function coefficients all carry the second
deformation parameter (``zeta``) to the exact power k; the series as an
algebra element is simply the sum of its stored terms.  A series has no
product of its own: series are multiplied as cleared graded lists
(_graded_mul, below), truncated at the order the caller needs.  This module
builds the two-slot twisting element F and derives its one-slot partner
u = m(id (x) S)F, inverts series exactly, conjugates the coproduct and
antipode by them, and verifies the structural identities (cocycle,
coassociativity, homomorphism on relations, antipode axiom, counit
normalization) order by order.  The twisted checks apply the twisted maps
inside a tensor slot through hopf's slot maps, one order of the word map at
a time.

Graded products run on cleared coefficients.  Each term is held as the
pair (1/d, P) for the pair (d, P) of ratfunc.clear_denominators: P = d *
term has coefficients that are polynomials with integer coefficients, so
the 1/k! of F, and the rationals it spawns in F^{-1}, u and u^{-1}, never
enter the slotwise normal forms.  Each order of a product is brought to
the lcm of its scalars' denominators, reduced once, and divided once, when
the caller needs the terms themselves; a conjugation stays cleared between
its two products.  A series is cleared once, on its first product.

The twisted structure of a HopfData at an order is built once and shared
by the twisted maps and checks: F and F^{-1} when it is made, u and u^{-1}
on first antipode use, and the twisted coproduct and antipode of
each single word when first met.  Only the empty word and the one-letter
words (a generator is the word of one letter) are conjugated; a longer word
w'a gets the graded product of the memoized images of w' and a, or of a and
w' for the antipode.  Both twisted maps are multiplicative (the antipode
anti-multiplicative) modulo zeta^{N+1}, because F^{-1} F and u^{-1} u are 1
modulo zeta^{N+1} and the ideal, so the product represents the same
element as the conjugation of the word's raw image, with shorter words on
the way.
It dies with its HopfData, whose maps are read-only, and is built anew once
the presentation's ``relations`` is another tuple or its ``degree_bound``
has changed.  The cocycle and counit checks and twist_u, which take a
presentation, find its HopfData through build_hopf, so they share the
structure of the HopfData a caller holds; the series they check is always
the one twist_F builds for that presentation.  Every element's twisted image
is the sum of its words' memoized images, each scaled by the word's
coefficient.

A zero verdict is a rewriting proof; a normal form that stays
nonzero is unknown, because the rule system is not confluent.  Matrix
evaluations are independent witnesses: a nonzero matrix disproves, a zero
one proves nothing.
"""

import weakref
from fractions import Fraction
from math import factorial

from .errors import (
    ArityMismatchError,
    NotUnitLeadingError,
    UnsupportedAlgebraError,
)
from .freealg import NCPoly, TensorPoly, _check_same_alphabet, tensor
from .hopf import (
    HopfData,
    _mult_with_map,
    apply_in_slot,
    build_hopf,
    counit_in_slot,
)
from .presentations import (
    Presentation,
    check_row,
    rewrite_row,
)
from .ratfunc import RatFunc, clear_denominators, rf
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

    __slots__ = ("presentation", "terms", "order", "arity", "_cleared_terms")

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
        self._cleared_terms = None

    @property
    def cleared(self):
        """The terms as a cleared graded list (_cleared), made on first use."""
        if self._cleared_terms is None:
            self._cleared_terms = _cleared(self.terms)
        return self._cleared_terms

    def swap_slots(self) -> "TwistSeries":
        """Flip the two tensor slots of every term (two-slot series only;
        ``embed`` raises ``ArityMismatchError`` otherwise)."""
        return TwistSeries(self.presentation,
                           [t.embed((1, 0), 2) for t in self.terms])

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


def _cleared(terms):
    """A graded list as a cleared graded list: entry k is the pair (1/d, P)
    for the pair (d, P) of clear_denominators, so P = d * terms[k] is a
    tensor element whose coefficients are polynomials with integer
    coefficients, and terms[k] is P scaled by the entry's scalar 1/d."""
    out = []
    for t in terms:
        d, c = clear_denominators(t.terms)
        out.append((RatFunc(d.den, d.num), t if c is t.terms else t._new(c)))
    return out


def _divided(graded):
    """The graded list of a cleared graded list: each P times its scalar."""
    return [P if r == 1 else P.scale(r) for r, P in graded]


def _graded_mul(p: Presentation, A, B, N):
    """Product of two cleared graded lists, truncated at order N, as a
    cleared graded list.

    Order k is the sum of (r_i P_i)(s_j Q_j) over i + j = k.  With L the
    lcm of the denominators of the scalars r_i*s_j, that is (1/L) times the
    sum of c_ij*P_i*Q_j, whose cofactors c_ij = L*r_i*s_j are polynomials
    with integer coefficients (k! over i!j! for a 1/k! series).  The
    integer-coefficient sum is reduced slotwise, once per order, zero orders
    included, and keeps 1/L as its scalar.  A normal form commutes with a
    nonzero scalar, so it is L times the normal form of the sum of the
    products r_i P_i * s_j Q_j."""
    arity = A[0][1].arity
    out = []
    for k in range(N + 1):
        products = []
        for i, (r, P) in enumerate(A[:k + 1]):
            if k - i < len(B):
                s, Q = B[k - i]
                if P and Q:
                    products.append((r * s, P, Q))
        L, cofactors = clear_denominators(
            {n: rs for n, (rs, _, _) in enumerate(products)})
        acc = TensorPoly.zero(p.alphabet, arity)
        for n, (_, P, Q) in enumerate(products):
            c = cofactors[n]
            acc = acc + (P if c == 1 else P.scale(c)) * Q
        out.append((RatFunc(L.den, L.num), p.normal_form_tensor(acc)))
    return out


def _conjugate(p: Presentation, left: "TwistSeries", right: "TwistSeries",
               t: TensorPoly, N: int):
    """Graded coefficients of left * t * right, truncated at N, for a tensor
    element t of order 0; the product stays cleared until its one
    division."""
    zero = RatFunc.one(), TensorPoly.zero(t.alphabet, t.arity)
    mid = _cleared([t]) + [zero] * N
    return _divided(_graded_mul(
        p, _graded_mul(p, left.cleared, mid, N), right.cleared, N))


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


def twist_F(N: int, p: Presentation) -> TwistSeries:
    """Two-slot twisting element of order N.

    The order-k coefficient is (zeta^k / k!) * ladder_k (x) f^k, where
    ladder_k is the falling Cartan product h(h+2)...(h+2(k-1)) and f the
    lowering generator.  A presentation without the letters ha1 and e-a1
    raises UnsupportedAlgebraError."""
    missing = [n for n in ("ha1", "e-a1") if n not in p.alphabet.index]
    if missing:
        raise UnsupportedAlgebraError(
            "the twist is built on the rank-1 letters ha1 and e-a1; "
            "%s has no %s" % (p.name, " or ".join(missing)))
    f = p.gen("e-a1")
    zeta = rf("zeta")
    terms = []
    for k in range(N + 1):
        c = zeta ** k * rf(Fraction(1, factorial(k)))
        terms.append(tensor(_cartan_ladder(p, k), f ** k).scale(c))
    return TwistSeries(p, terms)


def _partner(F: TwistSeries, H: HopfData) -> TwistSeries:
    """u = m(id (x) S)F order by order, in normal form.

    For a twist F the coproduct F Delta F^{-1} has the antipode
    S_F = u S u^{-1} (Drinfeld), which is why u conjugates the antipode."""
    p = H.presentation
    return TwistSeries(p, [
        p.normal_form(_mult_with_map(t, 1, H.word_antipode)).tensor()
        for t in F.terms])


def twist_u(N: int, p: Presentation) -> TwistSeries:
    """One-slot partner series u = m(id (x) S)F of order N.

    Its order-k coefficient is ((-zeta)^k / k!) * ladder_k * f^k, the
    Cartan ladder on the left, since S(f) = -f."""
    H = build_hopf(p)
    return _twisted(H, N).partner(H)[0]


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
    return _conjugate(H.presentation, F, Fi, H.coproduct(x), N)


def _twisted_S(H, u, ui, x, N):
    """Graded coefficients of u S(x) ui as algebra elements, truncated at N."""
    return [t.as_ncpoly() for t in _conjugate(
        H.presentation, u, ui, H.antipode_of(x).tensor(), N)]


def _per_word(memo, twisted, times, H, left, right, N):
    """word -> twisted(H, left, right, word, N) on single words, kept in
    memo.

    Only the empty word and the one-letter words are conjugated.  A longer
    word w = w'a gets times(image of w', image of a), both images from the
    memo.  That is sound because the twisted maps are multiplicative (the
    antipode anti-multiplicative) modulo zeta^{N+1}: F^{-1} F and u^{-1} u
    are 1 modulo zeta^{N+1} and the ideal, so F Delta(w') F^{-1} F Delta(a)
    F^{-1} and u S(a) u^{-1} u S(w') u^{-1} represent the same elements as
    the conjugations of Delta(w) and S(w)."""
    A = H.presentation.alphabet

    def of_word(word):
        image = memo.get(word)
        if image is None:
            if len(word) < 2:
                image = twisted(H, left, right, NCPoly(A, {word: rf(1)}), N)
            else:
                image = times(of_word(word[:-1]), of_word(word[-1:]))
            memo[word] = image
        return image

    return of_word


def _times(p: Presentation, A, B, N):
    """Graded product of two graded lists of tensor elements, truncated at
    N, each order in normal form."""
    return _divided(_graded_mul(p, _cleared(A), _cleared(B), N))


class _Twisted:
    """The twisted structure of one HopfData at order N: F, F^{-1} once a
    twisted coproduct needs it, u and u^{-1} once an antipode needs them,
    each cleared on its first product, and the memos of the twisted
    coproduct and antipode on single words, where a word longer than one
    letter holds the product of its prefix's and its last letter's entries
    (see _per_word).

    It keeps the rule tuple and degree bound it was built under, and no
    reference to its HopfData, so that the HopfData can drop it."""

    def __init__(self, H: HopfData, N: int):
        p = H.presentation
        self.rules, self.bound, self.order = p.relations, p.degree_bound, N
        self.F = twist_F(N, p)
        self.Fi = self.u = self.ui = None
        self.deltas, self.antipodes = {}, {}

    def inverse(self):
        """F^{-1}, built on the first call."""
        if self.Fi is None:
            self.Fi = series_inverse(self.F)
        return self.Fi

    def delta_of(self, H: HopfData):
        """word -> graded coefficients of F Delta(word) F^{-1}."""
        p, N = H.presentation, self.order

        def times(prefix, letter):
            return _times(p, prefix, letter, N)

        return _per_word(self.deltas, _twisted_delta, times, H, self.F,
                         self.inverse(), N)

    def partner(self, H: HopfData):
        """(u, u^{-1}), built on the first call."""
        if self.u is None:
            u = _partner(self.F, H)
            self.ui = series_inverse(u)
            self.u = u
        return self.u, self.ui

    def antipode_of(self, H: HopfData):
        """word -> graded coefficients of u S(word) u^{-1}."""
        p, N = H.presentation, self.order
        u, ui = self.partner(H)

        def times(prefix, letter):
            return [t.as_ncpoly() for t in _times(
                p, [x.tensor() for x in letter], [x.tensor() for x in prefix],
                N)]

        return _per_word(self.antipodes, _twisted_S, times, H, u, ui, N)


#: HopfData -> {order: _Twisted}; the entry of a HopfData dies with it
_TWISTED = weakref.WeakKeyDictionary()


def _twisted(H: HopfData, N: int) -> _Twisted:
    """The twisted structure of H at order N, built anew when the rule
    tuple or degree bound of H's presentation is not the one it was built
    under."""
    p = H.presentation
    by_order = _TWISTED.setdefault(H, {})
    tw = by_order.get(N)
    if (tw is None or tw.rules is not p.relations
            or tw.bound != p.degree_bound):
        tw = by_order[N] = _Twisted(H, N)
    return tw


def _by_words(image_of, x: NCPoly, H: HopfData, zero, N: int):
    """Graded coefficients of sum c * image_of(w) over the terms c * w of x,
    which must be over H's alphabet; N + 1 zeros when x is 0."""
    _check_same_alphabet(x.alphabet, H.presentation.alphabet)
    out = [zero] * (N + 1)
    for word, c in x.terms.items():
        out = [acc + t.scale(c) for acc, t in zip(out, image_of(word))]
    return out


def twisted_coproduct(x: NCPoly, H: HopfData, N: int = DEFAULT_ORDER):
    """Coproduct of x conjugated by the twisting element, truncated at N.

    Returns the list of graded coefficients of F Delta(x) F^{-1}; entry k is
    a two-slot tensor element carrying exactly zeta^k, entry 0 is the
    untwisted coproduct in normal form.  AlphabetMismatchError if x is not
    over H's alphabet."""
    return _by_words(_twisted(H, N).delta_of(H), x, H,
                     TensorPoly.zero(x.alphabet, 2), N)


def twisted_antipode(x: NCPoly, H: HopfData, N: int = DEFAULT_ORDER):
    """Antipode of x conjugated by the one-slot partner, truncated at N.

    Returns the list of graded coefficients of u S(x) u^{-1} as plain
    algebra elements, u = m(id (x) S)F; entry 0 is the untwisted antipode in
    normal form.  AlphabetMismatchError if x is not over H's alphabet."""
    return _by_words(_twisted(H, N).antipode_of(H), x, H,
                     NCPoly.zero(x.alphabet), N)


# ---------------------------------------------------------------------------
# structural checks (report rows: (label, verdict, payload))
# ---------------------------------------------------------------------------


def check_cocycle(N: int = DEFAULT_ORDER, reps=None, *, p: Presentation):
    """Order-by-order cocycle identity of the twisting element of p.

    Compares (F (x) 1) * ((Delta (x) id)F) with (1 (x) F) * ((id (x) Delta)F)
    modulo zeta^{N+1}.  One row per order carries the symbolic verdict from
    slotwise normal forms; a final row evaluates the total residual on a
    triple of two-dimensional evaluation representations as an independent
    witness."""
    H = build_hopf(p)
    F = _twisted(H, N).F

    def padded(slots):
        return [(r, P.embed(slots, 3)) for r, P in F.cleared]

    def delta_in(slot):
        return [(r, p.normal_form_tensor(
                    apply_in_slot(P, slot, H.word_coproduct)))
                for r, P in F.cleared]

    lhs = _divided(_graded_mul(p, padded((0, 1)), delta_in(0), N))
    rhs = _divided(_graded_mul(p, padded((1, 2)), delta_in(1), N))
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


def first_order_antisymmetry(p: Presentation) -> TensorPoly:
    """Order-zeta coefficient of F minus its slot flip.

    The order-0 parts cancel exactly (both are the unit tensor), so the
    leading deviation from symmetry is this first-order coefficient; it
    equals zeta times the wedge of the Cartan and lowering generators."""
    F = twist_F(1, p)
    diff = [a - b for a, b in zip(F.terms, F.swap_slots().terms)]
    return p.normal_form_tensor(diff[1])


def check_twist_counit(N: int, p: Presentation):
    """Counit normalization (eps (x) id)F == 1 == (id (x) eps)F.

    The order-0 term contributes the unit; every higher term must be killed
    by the counit in either slot."""
    H = build_hopf(p)
    F = _twisted(H, N).F
    rows = []
    for slot, label in ((0, "eps-left"), (1, "eps-right")):
        pieces = [counit_in_slot(t, slot, H.word_counit) for t in F.terms]
        resid = [p.normal_form(pieces[0] - p.unit())]
        resid.extend(p.normal_form(x) for x in pieces[1:])
        bad = [k for k, r in enumerate(resid) if not r.is_zero()]
        rows.append(rewrite_row(label, "orders %s" % bad if bad else None))
    return rows


def _in_slot(slot_map, series, slot, graded_of):
    """A hopf slot map with a graded word map (graded_of) on a graded list:
    order k is the sum over j of slot_map(series[j], slot, order k - j)."""
    out = []
    for k in range(len(series)):
        acc = slot_map(series[0], slot, lambda w: graded_of(w)[k])
        for j in range(1, k + 1):
            acc = acc + slot_map(series[j], slot,
                                 lambda w: graded_of(w)[k - j])
        out.append(acc)
    return out


def _orders_row(label, resid):
    """One rewrite row listing (order, str) of each nonzero residual; the
    residuals are in normal form."""
    bad = [(k, str(r)) for k, r in enumerate(resid) if not r.is_zero()]
    return rewrite_row(label, bad or None)


def check_twisted_coassoc(H: HopfData, N: int = DEFAULT_ORDER):
    """Coassociativity of the twisted coproduct modulo zeta^{N+1}.

    For each generator x the two iterated expansions of the twisted
    coproduct are compared order by order; the verdict is zero only if every
    order reduces to zero symbolically."""
    p = H.presentation
    delta_of = _twisted(H, N).delta_of(H)
    rows = []
    for name in H.delta:
        (word,) = p.gen(name).terms
        d = delta_of(word)
        left, right = (_in_slot(apply_in_slot, d, s, delta_of) for s in (0, 1))
        rows.append(_orders_row(name, [p.normal_form_tensor(a - b)
                                       for a, b in zip(left, right)]))
    return rows


def check_twisted_homomorphism(H: HopfData, N: int = DEFAULT_ORDER):
    """The twisted coproduct kills every defining relation mod zeta^{N+1}.

    The conjugation is applied to the raw (unreduced) coproduct of each
    relation's zero form, so the rewriting system has to do the cancellation
    order by order rather than inherit it from the untwisted check."""
    p = H.presentation
    tw = _twisted(H, N)
    return [_orders_row(rel.label, _twisted_delta(
                H, tw.F, tw.inverse(), rel.zero_form(p.alphabet), N))
            for rel in p.relations]


def check_twisted_antipode(H: HopfData, N: int = DEFAULT_ORDER):
    """Antipode axiom for the twisted pair modulo zeta^{N+1}.

    For each generator x and each side, multiplying the twisted-antipode
    image of one slot of the twisted coproduct against the other slot must
    reproduce the counit: m(S'(x)id)Delta'(x) == eps(x) 1 == m(id(x)S')
    Delta'(x).  One row per generator and side."""
    p = H.presentation
    tw = _twisted(H, N)
    delta_of, antipode_of = tw.delta_of(H), tw.antipode_of(H)
    rows = []
    for name in H.delta:
        x = p.gen(name)
        (word,) = x.terms
        d = delta_of(word)
        for side, label in ((0, "antipode-left"), (1, "antipode-right")):
            acc = _in_slot(_mult_with_map, d, side, antipode_of)
            acc[0] = acc[0] - p.unit().scale(H.counit(x))
            rows.append(_orders_row("%s:%s" % (name, label),
                                    [p.normal_form(a) for a in acc]))
    return rows
