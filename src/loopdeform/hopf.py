"""Hopf structure maps for each presentation family.

build_hopf assigns them by letter kind: a letter with an inverse is
group-like, every other letter primitive, and each family overwrites only
what it deforms.

The q-deformed coproduct placement on raising/lowering generators is not
forced by the relations alone: four placements of the Cartan factor give
valid bialgebra structures on the finite part.  They are all constructible
here, and convention_search witnesses which placements are homomorphisms on
the finite part and on the loop deformation.

The loop generator is the affine Chevalley generator e_0 of U_q(g^) in
disguise: in the shifted loop generator xi~ = xi - a*s, with s the
presentation's shift element and a = eta/(q - q^-1) (0 without eta), the
Drinfeldian's relations are those of e_0 with k_0 = kappa, the group-like
word pairing the central letter against the inverse Cartan letters of the
highest root (those letters alone without the central pair).  So xi~ takes
the convention's Drinfeld-Jimbo coproduct and antipode with Cartan factor
kappa, like any raising letter, and

    delta(xi) = delta_DJ(xi~) + a*delta(s),    S(xi) = S_DJ(xi~) + a*S(s).

loop_hopf_limit degenerates them to the algebra presentations.Q1_LIMITS
names; presentations._limit_tensor_zero_form sends the central letter to 1.
"""

from __future__ import annotations

from types import MappingProxyType
from weakref import WeakValueDictionary

from .errors import UnknownGeneratorError, UnsupportedAlgebraError
from .freealg import (
    NCPoly,
    TensorPoly,
    add_term,
    apply_antihom,
    apply_hom,
    tensor,
)
from .presentations import (
    FAMILY_GROUPS,
    Q1_LIMITS,
    Presentation,
    _limit_tensor_zero_form,
    _limit_zero_form,
    build_drinfeldian,
    check_row,
    get_presentation,
    rewrite_row,
    shifted_loop_generator,
)
from .ratfunc import RatFunc, rf
from .repn import Rep, default_reps, evaluate_tensor

#: Cartan-factor placements on raising/lowering generators.  Each entry maps a
#: name to exponents (er, el, fr, fl) in
#:     delta(e_i) = e_i (x) k_i^er + k_i^el (x) e_i
#:     delta(f_i) = f_i (x) k_i^fr + k_i^fl (x) f_i
#: The four shipped conventions place the factor on opposite sides for the two
#: root directions (the only placements admitting a valid bialgebra) and range
#: over both exponent signs.  The antipode on generators is the one forced by
#: m(S (x) id) delta = eps: S(e) = -k^{-el} e k^{-er}, S(f) = -k^{-fl} f k^{-fr}.
CONVENTIONS = {
    "raise-left": (0, -1, 1, 0),
    "raise-right": (1, 0, 0, -1),
    "raise-left-inv": (0, 1, -1, 0),
    "raise-right-inv": (-1, 0, 0, 1),
}

#: same-side placements, enumerated by convention_search only; no exponent
#: choice makes these a bialgebra, and the search witnesses that on uq-sl2.
_SEARCH_ONLY = {
    "both-right": (1, 0, -1, 0),
    "both-left": (0, 1, 0, -1),
}

DEFAULT_CONVENTION = "raise-left"


class HopfData:
    """Coproduct, counit and antipode on every generator of a presentation.

    ``delta``, ``epsilon`` and ``antipode`` are read-only views of copies
    of the given maps, so the letter-id maps the structure maps read, and
    anything cached per HopfData, cannot fall out of step with them; a
    variant is a new HopfData built from ``dict(H.delta)`` and the like."""

    def __init__(self, presentation: Presentation, delta, epsilon, antipode):
        self.presentation = presentation
        self.delta = MappingProxyType(dict(delta))
        self.epsilon = MappingProxyType(dict(epsilon))
        self.antipode = MappingProxyType(dict(antipode))
        A = presentation.alphabet
        for s in A.symbols:
            if (s.name not in self.delta or s.name not in self.epsilon
                    or s.name not in self.antipode):
                raise UnknownGeneratorError(
                    "Hopf data misses generator %s" % s.name)
        self._delta_ids = {A.id_of(n): t for n, t in self.delta.items()}
        self._antipode_ids = {A.id_of(n): x for n, x in self.antipode.items()}
        self._epsilon_ids = {A.id_of(n): c for n, c in self.epsilon.items()}

    # -- structure maps ------------------------------------------------------

    def coproduct(self, x: NCPoly) -> TensorPoly:
        return apply_hom(x, self._delta_ids)

    def word_coproduct(self, word) -> TensorPoly:
        return self.coproduct(NCPoly(self.presentation.alphabet,
                                     {word: rf(1)}))

    def counit(self, x: NCPoly) -> RatFunc:
        acc = rf(0)
        for word, c in x.terms.items():
            acc = acc + c * self.word_counit(word)
        return acc

    def word_counit(self, word) -> RatFunc:
        """Product of the generator counits along a word of letter ids."""
        eps = rf(1)
        for i in word:
            eps = eps * self._epsilon_ids[i]
            if eps.is_zero():
                break
        return eps

    def antipode_of(self, x: NCPoly) -> NCPoly:
        return apply_antihom(x, self._antipode_ids)

    def word_antipode(self, word) -> NCPoly:
        return self.antipode_of(NCPoly(self.presentation.alphabet,
                                       {word: rf(1)}))


# ---------------------------------------------------------------------------
# slot maps: a structure map, given on single words, inside one tensor slot
# ---------------------------------------------------------------------------


def apply_in_slot(t: TensorPoly, slot: int, delta_of) -> TensorPoly:
    """Replace slot `slot` of every term by delta_of(word), a two-slot
    element; arity grows by 1."""
    out = TensorPoly(t.alphabet, t.arity + 1)
    for words, c in t.terms.items():
        for pair, c2 in delta_of(words[slot]).terms.items():
            add_term(out.terms, words[:slot] + pair + words[slot + 1:], c * c2)
    return out


def counit_in_slot(t: TensorPoly, slot: int, eps_of):
    """Scale each term by eps_of(word) of one slot and drop that slot; arity
    shrinks by 1 (NCPoly at arity 2)."""
    out = TensorPoly(t.alphabet, t.arity - 1)
    for words, c in t.terms.items():
        eps = eps_of(words[slot])
        if not eps.is_zero():
            add_term(out.terms, words[:slot] + words[slot + 1:], c * eps)
    return out.as_ncpoly() if out.arity == 1 else out


def _mult_with_map(t: TensorPoly, antipode_slot: int, antipode_of) -> NCPoly:
    """m((S(x)id) t) / m((id(x)S) t) for an arity-2 t: replace the word in
    one slot by antipode_of(word), then multiply the slots together."""
    join = t.alphabet.join
    out = NCPoly(t.alphabet)
    for (w0, w1), c in t.map_slot(antipode_slot, antipode_of).terms.items():
        add_term(out.terms, join(w0, w1), c)
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _dj_maps(x: NCPoly, k: NCPoly, k_inv: NCPoly, right, left):
    """(delta x, S x) = (x (x) k^right + k^left (x) x, -k^-left x k^-right):
    the Drinfeld-Jimbo placement of the Cartan factor k on the letter x."""
    def kpow(n):
        return (k if n > 0 else k_inv) ** abs(n)
    return (tensor(x, kpow(right)) + tensor(kpow(left), x),
            -(kpow(-left) * x * kpow(-right)))


def _finite_part_maps(p: Presentation, exponents, delta, antipode):
    """Write delta and antipode of the e/f letters of a q-deformed
    presentation, with the Cartan factors the convention's exponents place."""
    er, el, fr, fl = exponents
    for lab in p.cartan.labels:
        k, ki = p.gen("k+%s" % lab), p.gen("k-%s" % lab)
        for x, r, l in (("e+" + lab, er, el), ("e-" + lab, fr, fl)):
            delta[x], antipode[x] = _dj_maps(p.gen(x), k, ki, r, l)


def _kappa_words(p: Presentation):
    """kappa = central letter times the inverse highest-root Cartan word, and
    its inverse, both as normal-form NCPolys; the k_theta words alone when
    p has no central pair (kdelta -> 1)."""
    cd = p.cartan
    kappa = kappa_inv = p.unit()
    if "kd+" in p.alphabet.index:
        kappa, kappa_inv = p.gen("kd+"), p.gen("kd-")
    for i, lab in enumerate(cd.labels):
        n = cd.highest_root[i]
        kappa = kappa * p.gen("k-%s" % lab) ** n
        kappa_inv = kappa_inv * p.gen("k+%s" % lab) ** n
    return p.normal_form(kappa), p.normal_form(kappa_inv)


def _convention_exponents(convention):
    if convention in CONVENTIONS:
        return CONVENTIONS[convention]
    if convention in _SEARCH_ONLY:
        return _SEARCH_ONLY[convention]
    raise UnsupportedAlgebraError("unknown coproduct convention %r" % convention)


def build_hopf(p: Presentation, convention=DEFAULT_CONVENTION) -> HopfData:
    """Hopf data for any presentation of a known family.

    p holds the HopfData of each convention weakly: while the one built
    last is alive, a call returns it, until ``relations`` is another tuple.
    So the checks that take only p share the maps, and what hangs on them,
    with a caller that holds the HopfData of p.

    A letter with an inverse is group-like, as g * g^-1 = 1 requires, and
    every other letter primitive.  Then the uq and drinfeldian e/f letters
    take the convention's Cartan factors, the drinfeldian xi~ = xi - a*s
    those of a raising letter with Cartan factor kappa (kappa without the
    central pair when p lacks it, a = 0 without eta), and the yangian xi
    with eta the rank-1 formula.  Refused
    (UnsupportedAlgebraError): a drinfeldian presentation without its shift
    element, and a yangian xi with eta above rank 1."""
    rules, built = p._hopf
    if rules is not p.relations:
        built = WeakValueDictionary()
        p._hopf = p.relations, built
    H = built.get(convention)
    if H is None:
        H = built[convention] = _hopf_data(p, convention)
    return H


def _hopf_data(p: Presentation, convention) -> HopfData:
    family = p.family
    if family not in FAMILY_GROUPS:
        raise UnsupportedAlgebraError("no Hopf data for family %r" % family)
    delta, epsilon, antipode = {}, {}, {}
    one = p.unit()
    for sym in p.alphabet.symbols:
        x = p.gen(sym.name)
        if sym.inv_name is not None:
            delta[sym.name] = tensor(x, x)
            epsilon[sym.name] = rf(1)
            antipode[sym.name] = p.gen(sym.inv_name)
        else:
            delta[sym.name] = tensor(x, one) + tensor(one, x)
            epsilon[sym.name] = rf(0)
            antipode[sym.name] = -x
    if family in ("uq", "drinfeldian"):
        exponents = _convention_exponents(convention)
        _finite_part_maps(p, exponents, delta, antipode)
    if family == "drinfeldian":
        xt = shifted_loop_generator(p)
        # xi is still primitive here, and the shift s contains no xi
        H = HopfData(p, delta, epsilon, antipode)
        # xi = xi~ + a*s: xi~ is the raising letter e_0 with Cartan factor
        # kappa, and a*s takes the maps H gives s
        a_s = p.gen("xi") - xt
        kappa, kappa_inv = _kappa_words(p)
        d_xi, s_xi = _dj_maps(xt, kappa, kappa_inv, *exponents[:2])
        delta["xi"] = p.normal_form_tensor(d_xi + H.coproduct(a_s))
        antipode["xi"] = p.normal_form(s_xi + H.antipode_of(a_s))
    elif "xi" in p.alphabet.index and "eta" in p.params:
        # without eta, xi stays primitive, as in U(g[u])
        if p.cartan.rank != 1:
            raise UnsupportedAlgebraError(
                "no coproduct of xi above rank 1 (%s)" % p.name)
        eta = rf("eta")
        f, h, xi = p.gen("e-a1"), p.gen("ha1"), p.gen("xi")
        delta["xi"] = (tensor(xi, one) + tensor(one, xi)
                       + tensor(f, h).scale(eta))
        antipode["xi"] = -xi + (f * h).scale(eta)
    return HopfData(p, delta, epsilon, antipode)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def check_coassoc(hopf: HopfData):
    """Per generator: (delta (x) id) delta == (id (x) delta) delta exactly."""
    p = hopf.presentation
    out = []
    for s in p.alphabet.symbols:
        d = hopf.coproduct(p.gen(s.name))
        left = p.normal_form_tensor(apply_in_slot(d, 0, hopf.word_coproduct))
        right = p.normal_form_tensor(apply_in_slot(d, 1, hopf.word_coproduct))
        diff = left - right
        out.append(rewrite_row(s.name, str(diff) if diff else None))
    return out


def _two_sided_rows(hopf: HopfData, slot_map, word_map, target):
    """Per generator x: slot_map(delta x, slot, word_map) must reduce to
    target(x, name) for slot 0 and for slot 1."""
    p = hopf.presentation
    out = []
    for s in p.alphabet.symbols:
        x = p.gen(s.name)
        d = hopf.coproduct(x)
        want = target(x, s.name)
        left = p.normal_form(slot_map(d, 0, word_map)) - want
        right = p.normal_form(slot_map(d, 1, word_map)) - want
        out.append(rewrite_row(
            s.name, "%s | %s" % (left, right) if left or right else None))
    return out


def check_counit(hopf: HopfData):
    """Per generator: (eps (x) id) delta == id == (id (x) eps) delta."""
    return _two_sided_rows(hopf, counit_in_slot, hopf.word_counit,
                           lambda x, name: x)


def check_antipode(hopf: HopfData):
    """Per generator: m(S (x) id) delta == eps * 1 == m(id (x) S) delta."""
    unit = hopf.presentation.unit()
    return _two_sided_rows(hopf, _mult_with_map, hopf.word_antipode,
                           lambda x, name: unit.scale(hopf.epsilon[name]))


def _pullback_rep(hopf: HopfData, r):
    """The representation (r (x) r) o delta of the presentation: generator x
    acts by the evaluation of delta(x) on the tensor square of r.

    It is built unvalidated, because its relations vanishing is exactly what
    check_homomorphism decides."""
    images = {name: evaluate_tensor(d, [r, r])
              for name, d in hopf.delta.items()}
    return Rep(hopf.presentation, images, "delta*(%s)" % r.label,
               validate=False)


def check_homomorphism(hopf: HopfData, reps=()):
    """Per relation: delta(zero form) must vanish in the tensor square.

    A slotwise normal form of the raw delta(z) reaching 0 is a proof;
    otherwise any supplied representation r decides nonzero by its witness;
    otherwise the verdict stays unknown.  The witness is the pulled-back
    representation (r (x) r) o delta evaluated on z, which memoizes the
    prefix products of z's words across relations.  It is the matrix of
    delta(z) in the tensor square of r: word evaluation is multiplicative,
    kron(A, B) kron(C, D) = kron(AC, BD), and the inverse letters that
    contract in delta(z) have images that r's validation proved inverse.
    The raw delta(z) is still built, for the rewriting proof.
    A representation contradicting a symbolic zero would be an internal
    inconsistency and raises."""
    p = hopf.presentation
    pulled = [_pullback_rep(hopf, r) for r in reps]
    out = []
    for rel in p.relations:
        z = rel.zero_form(p.alphabet)
        red = p.normal_form_tensor(hopf.coproduct(z))
        witness = None
        for r in pulled:
            m = r.evaluate(z)
            if not m.is_zero():
                witness = m
                break
        if red.is_zero() and witness is not None:
            raise AssertionError(
                "relation %s: symbolic zero contradicted by %s"
                % (rel.label, witness))
        if witness is not None:
            out.append(check_row(rel.label, str(witness)))
        else:
            out.append(rewrite_row(rel.label, str(red) if red else None))
    return out


def _homomorphism_verdict(hopf: HopfData):
    """True when every homomorphism row is zero, False when a default
    representation witnesses one nonzero, else None."""
    verdicts = {v for _, v, _ in check_homomorphism(
        hopf, default_reps(hopf.presentation))}
    if "nonzero" in verdicts:
        return False
    return True if verdicts <= {"zero"} else None


def convention_search(p: Presentation):
    """Survey Cartan-factor placements on a q-deformed presentation.

    Enumerates the four opposite-side placements (both exponent signs) plus
    the two same-side placements.  Each row records whether the coproduct is
    an algebra homomorphism on the finite relations and, when it is, whether
    the two-parameter extension build_drinfeldian of the same Cartan preset
    stays one under that placement.  Each verdict is True, False
    (witnessed) or None."""
    if p.family != "uq":
        raise UnsupportedAlgebraError(
            "convention search expects a q-deformed finite presentation")
    loop = build_drinfeldian(p.cartan.name)
    results = []
    for name, (er, _, fr, _) in {**CONVENTIONS, **_SEARCH_ONLY}.items():
        finite_ok = _homomorphism_verdict(build_hopf(p, name))
        row = {
            "convention": name,
            "opposite_sides": (er == 0) != (fr == 0),
            "finite_homomorphism": finite_ok,
            "loop_homomorphism": None,
        }
        if finite_ok:
            row["loop_homomorphism"] = _homomorphism_verdict(
                build_hopf(loop, name))
        results.append(row)
    return results


# ---------------------------------------------------------------------------
# degeneration of the loop Hopf maps
# ---------------------------------------------------------------------------


def loop_hopf_limit(hopf: HopfData, target: Presentation = None):
    """q -> 1, central letter -> 1 limit of the loop generator's Hopf maps.

    Returns (delta_limit, antipode_limit) as elements over the target
    presentation's alphabet (default: the algebra that Q1_LIMITS names,
    UnsupportedAlgebraError if none).  The expansion k = q^h runs per tensor
    slot with joint pole cancellation.
    """
    p = hopf.presentation
    if p.family != "drinfeldian":
        raise UnsupportedAlgebraError("loop limit needs the two-parameter family")
    if target is None:
        if p.name not in Q1_LIMITS:
            raise UnsupportedAlgebraError("no q -> 1 target for %s" % p.name)
        target = get_presentation(Q1_LIMITS[p.name])
    return (_limit_tensor_zero_form(hopf.delta["xi"], p, target),
            _limit_zero_form(hopf.antipode["xi"], p, target))
