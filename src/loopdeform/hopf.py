"""Hopf structure maps for each presentation family.

The q-deformed coproduct placement on raising/lowering generators is not
forced by the relations alone: four placements of the Cartan factor give
valid bialgebra structures on the finite part.  They are all constructible
here, and convention_search decides mechanically which of them extend to the
loop deformation.  The shipped default is the one that does.

The loop generator's coproduct and antipode follow the deformation pattern

    delta(xi) = xi (x) 1 + kappa^{-1} (x) xi
                + a*(delta(s) - s (x) 1 - kappa^{-1} (x) s)
    S(xi)     = -kappa xi + a*(S(s) + kappa s)

where s is the presentation's shift element, a the shift coefficient, and
kappa the group-like word pairing the central letter against the Cartan
letters of the highest root.
"""

from __future__ import annotations

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
    Presentation,
    _limit_tensor_zero_form,
    _limit_zero_form,
    build_yangian_sl2,
    check_row,
    loop_shift_coefficient,
    rewrite_row,
)
from .ratfunc import RatFunc, rf
from .repn import evaluate_tensor

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
#: choice makes these a bialgebra, and the search demonstrates that.
_SEARCH_ONLY = {
    "both-right": (1, 0, -1, 0),
    "both-left": (0, 1, 0, -1),
}

DEFAULT_CONVENTION = "raise-left"


class HopfData:
    """Coproduct, counit and antipode on every generator of a presentation."""

    def __init__(self, presentation: Presentation, delta, epsilon, antipode):
        self.presentation = presentation
        self.delta = dict(delta)
        self.epsilon = dict(epsilon)
        self.antipode = dict(antipode)
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


# ---------------------------------------------------------------------------
# slot expansion (coproduct applied inside one slot of a tensor element)
# ---------------------------------------------------------------------------


def apply_in_slot(t: TensorPoly, slot: int, hopf: HopfData) -> TensorPoly:
    """Replace slot `slot` of every term by its coproduct; arity grows by 1."""
    A = t.alphabet
    out = {}
    for words, c in t.terms.items():
        img = hopf.coproduct(NCPoly(A, {words[slot]: rf(1)}))
        for pair, c2 in img.terms.items():
            add_term(out, words[:slot] + pair + words[slot + 1:], c * c2)
    return TensorPoly(A, t.arity + 1, out)


def counit_in_slot(t: TensorPoly, slot: int, hopf: HopfData):
    """Apply the counit to one slot; arity shrinks by 1 (NCPoly at arity 2)."""
    A = t.alphabet
    out = {}
    for words, c in t.terms.items():
        eps = hopf.word_counit(words[slot])
        if eps.is_zero():
            continue
        add_term(out, words[:slot] + words[slot + 1:], c * eps)
    if t.arity == 2:
        return NCPoly(A, {k[0]: v for k, v in out.items()})
    return TensorPoly(A, t.arity - 1, out)


def _mult_with_map(t: TensorPoly, antipode_slot: int, hopf: HopfData) -> NCPoly:
    """m((S(x)id) delta) / m((id(x)S) delta) helper: apply the antipode to one
    slot of an arity-2 element, then multiply the slots together."""
    A = t.alphabet
    acc = NCPoly.zero(A)
    for (w0, w1), c in t.terms.items():
        x0 = NCPoly(A, {w0: rf(1)})
        x1 = NCPoly(A, {w1: rf(1)})
        if antipode_slot == 0:
            x0 = hopf.antipode_of(x0)
        else:
            x1 = hopf.antipode_of(x1)
        acc = acc + (x0 * x1).scale(c)
    return acc


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _finite_part_maps(p: Presentation, exponents):
    """delta/epsilon/antipode on e/f/k letters of a q-deformed presentation."""
    er, el, fr, fl = exponents
    cd = p.cartan
    delta, epsilon, antipode = {}, {}, {}
    one = p.unit()
    for i, lab in enumerate(cd.labels):
        e, f = p.gen("e+%s" % lab), p.gen("e-%s" % lab)
        k, ki = p.gen("k+%s" % lab), p.gen("k-%s" % lab)

        def kpow(n):
            if n == 0:
                return one
            return (k if n > 0 else ki) ** abs(n)

        delta["e+%s" % lab] = tensor(e, kpow(er)) + tensor(kpow(el), e)
        delta["e-%s" % lab] = tensor(f, kpow(fr)) + tensor(kpow(fl), f)
        delta["k+%s" % lab] = tensor(k, k)
        delta["k-%s" % lab] = tensor(ki, ki)
        epsilon["e+%s" % lab] = rf(0)
        epsilon["e-%s" % lab] = rf(0)
        epsilon["k+%s" % lab] = rf(1)
        epsilon["k-%s" % lab] = rf(1)
        antipode["e+%s" % lab] = -(kpow(-el) * e * kpow(-er))
        antipode["e-%s" % lab] = -(kpow(-fl) * f * kpow(-fr))
        antipode["k+%s" % lab] = ki
        antipode["k-%s" % lab] = k
    return delta, epsilon, antipode


def _kappa_words(p: Presentation):
    """kappa = central letter times the inverse highest-root Cartan word, and
    its inverse, both as normal-form NCPolys."""
    cd = p.cartan
    kappa = p.gen("kd+")
    kappa_inv = p.gen("kd-")
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
    """Hopf data for any shipped presentation family."""
    family = p.family
    if family == "uq":
        delta, epsilon, antipode = _finite_part_maps(
            p, _convention_exponents(convention))
        return HopfData(p, delta, epsilon, antipode)
    if family == "drinfeldian":
        delta, epsilon, antipode = _finite_part_maps(
            p, _convention_exponents(convention))
        kd, kdi = p.gen("kd+"), p.gen("kd-")
        delta["kd+"] = tensor(kd, kd)
        delta["kd-"] = tensor(kdi, kdi)
        epsilon["kd+"] = rf(1)
        epsilon["kd-"] = rf(1)
        antipode["kd+"] = kdi
        antipode["kd-"] = kd
        kappa, kappa_inv = _kappa_words(p)
        xi = p.gen("xi")
        s = p.shift_element
        a = loop_shift_coefficient()
        one = p.unit()
        ids = {p.alphabet.id_of(n): t for n, t in delta.items()}
        ds = apply_hom(s, ids)
        d_xi = (tensor(xi, one) + tensor(kappa_inv, xi)
                + (ds - tensor(s, one) - tensor(kappa_inv, s)).scale(a))
        delta["xi"] = p.normal_form_tensor(d_xi)
        epsilon["xi"] = rf(0)
        anti_ids = {p.alphabet.id_of(n): x for n, x in antipode.items()}
        s_s = apply_antihom(s, anti_ids)
        antipode["xi"] = p.normal_form(
            -(kappa * xi) + (s_s + kappa * s).scale(a))
        return HopfData(p, delta, epsilon, antipode)
    if family in ("yangian", "classical"):
        delta, epsilon, antipode = {}, {}, {}
        one = p.unit()
        for sym in p.alphabet.symbols:
            x = p.gen(sym.name)
            delta[sym.name] = tensor(x, one) + tensor(one, x)
            epsilon[sym.name] = rf(0)
            antipode[sym.name] = -x
        if "xi" in p.alphabet.index:
            eta = rf("eta")
            f, h, xi = p.gen("e-a1"), p.gen("ha1"), p.gen("xi")
            delta["xi"] = (tensor(xi, one) + tensor(one, xi)
                           + tensor(f, h).scale(eta))
            antipode["xi"] = -xi + (f * h).scale(eta)
        return HopfData(p, delta, epsilon, antipode)
    raise UnsupportedAlgebraError("no Hopf data for family %r" % family)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def check_coassoc(hopf: HopfData):
    """Per generator: (delta (x) id) delta == (id (x) delta) delta exactly."""
    p = hopf.presentation
    out = []
    for s in p.alphabet.symbols:
        d = hopf.coproduct(p.gen(s.name))
        left = p.normal_form_tensor(apply_in_slot(d, 0, hopf))
        right = p.normal_form_tensor(apply_in_slot(d, 1, hopf))
        diff = left - right
        out.append(rewrite_row(s.name, str(diff) if diff else None))
    return out


def _two_sided_rows(hopf: HopfData, slot_map, target):
    """Per generator x: slot_map(delta x, slot, hopf) must reduce to
    target(x, name) for slot 0 and for slot 1."""
    p = hopf.presentation
    out = []
    for s in p.alphabet.symbols:
        x = p.gen(s.name)
        d = hopf.coproduct(x)
        want = target(x, s.name)
        left = p.normal_form(slot_map(d, 0, hopf)) - want
        right = p.normal_form(slot_map(d, 1, hopf)) - want
        out.append(rewrite_row(
            s.name, "%s | %s" % (left, right) if left or right else None))
    return out


def check_counit(hopf: HopfData):
    """Per generator: (eps (x) id) delta == id == (id (x) eps) delta."""
    return _two_sided_rows(hopf, counit_in_slot, lambda x, name: x)


def check_antipode(hopf: HopfData):
    """Per generator: m(S (x) id) delta == eps * 1 == m(id (x) S) delta."""
    unit = hopf.presentation.unit()
    return _two_sided_rows(hopf, _mult_with_map,
                           lambda x, name: unit.scale(hopf.epsilon[name]))


def check_homomorphism(hopf: HopfData, reps=()):
    """Per relation: delta(zero form) must vanish in the tensor square.

    A slotwise normal form reaching 0 is a proof; otherwise any supplied
    representation pair acting on the two slots decides nonzero; otherwise
    the verdict stays unknown.  A representation contradicting a symbolic
    zero would be an internal inconsistency and raises."""
    p = hopf.presentation
    out = []
    for rel in p.relations:
        z = rel.zero_form(p.alphabet)
        dz = hopf.coproduct(z)
        red = p.normal_form_tensor(dz)
        witness = None
        for r in reps:
            m = evaluate_tensor(dz, [r, r])
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


def convention_search(p: Presentation, loop_builder=None):
    """Survey Cartan-factor placements on a q-deformed presentation.

    Enumerates the four opposite-side placements (both exponent signs) plus
    the two same-side placements.  Each row records whether the coproduct is
    an algebra homomorphism on the finite relations, where the inverse factor
    sits (the printed loop formula pairs the inverse central-Cartan word with
    the left slot), and -- when a loop extension builder is supplied --
    whether the two-parameter extension stays a homomorphism."""
    if p.family != "uq":
        raise UnsupportedAlgebraError(
            "convention search expects a q-deformed finite presentation")
    results = []
    grid = dict(CONVENTIONS)
    grid.update(_SEARCH_ONLY)
    for name, (er, el, fr, fl) in grid.items():
        hopf = build_hopf(p, name)
        finite_ok = all(v == "zero" for _, v, _ in check_homomorphism(hopf))
        row = {
            "convention": name,
            "opposite_sides": (er == 0) != (fr == 0),
            "finite_homomorphism": finite_ok,
            "kinv_left_on_raising": el == -1,
            "kinv_left_on_lowering": fl == -1,
            "loop_homomorphism": None,
        }
        if loop_builder is not None and finite_ok:
            lp = loop_builder()
            lhopf = build_hopf(lp, name)
            row["loop_homomorphism"] = all(
                v == "zero" for _, v, _ in check_homomorphism(lhopf))
        results.append(row)
    return results


# ---------------------------------------------------------------------------
# degeneration of the loop Hopf maps
# ---------------------------------------------------------------------------


def _drop_central_slotwise(t: TensorPoly, p: Presentation) -> TensorPoly:
    """Send the central group-like letters to 1 in every slot."""
    A = p.alphabet
    drop = {A.id_of("kd+"), A.id_of("kd-")}

    def drop_word(w):
        return NCPoly(A, {tuple(i for i in w if i not in drop): rf(1)})

    for i in range(t.arity):
        t = t.map_slot(i, drop_word)
    return t


def loop_hopf_limit(hopf: HopfData, target: Presentation = None):
    """q -> 1, central letter -> 1 limit of the loop generator's Hopf maps.

    Returns (delta_limit, antipode_limit) as elements over the target
    presentation's alphabet (default: the directly-constructed degeneration).
    The expansion k = q^h runs per tensor slot with joint pole cancellation.
    """
    p = hopf.presentation
    if p.family != "drinfeldian":
        raise UnsupportedAlgebraError("loop limit needs the two-parameter family")
    if target is None:
        target = build_yangian_sl2()
    d_xi = _drop_central_slotwise(hopf.delta["xi"], p)
    d_xi = p.normal_form_tensor(d_xi)
    delta_limit = _limit_tensor_zero_form(d_xi, p, target)
    s_t = _drop_central_slotwise(hopf.antipode["xi"].tensor(), p)
    s_xi = p.normal_form(NCPoly(p.alphabet,
                                {w[0]: c for w, c in s_t.terms.items()}))
    anti_limit = _limit_zero_form(s_xi, p, target)
    return delta_limit, anti_limit
