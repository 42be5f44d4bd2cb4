"""Hopf structure maps: frozen generator images, axiom checks, homomorphism
verdicts, the placement survey, mutation detection, and the degeneration of
the loop generator's coproduct/antipode."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdeform.cli import VerificationReport, _check_items
from loopdeform.errors import (
    DegreeBoundExceeded,
    PoleError,
    UnsupportedAlgebraError,
)
from loopdeform import presentations
from loopdeform.freealg import NCPoly, TensorPoly, add_term, apply_hom, tensor
from loopdeform.hopf import (
    CONVENTIONS,
    HopfData,
    _kappa_words,
    _mult_with_map,
    _pullback_rep,
    apply_in_slot,
    build_hopf,
    check_antipode,
    check_coassoc,
    check_counit,
    check_homomorphism,
    convention_search,
    counit_in_slot,
    loop_hopf_limit,
)
from loopdeform.presentations import (
    ALGEBRA_BUILDERS,
    Presentation,
    affine,
    build_classical_sl2,
    build_drinfeldian,
    build_uq,
    build_yangian_sl2,
    cartan_data,
    get_presentation,
    loop_shift_coefficient,
    specialize,
    translate,
)
from loopdeform.ratfunc import rf
from loopdeform.repn import default_reps, evaluate_tensor
from loopdeform.serial import dump_bundle
from loopdeform.twist import check_twisted_homomorphism, twist_F


@pytest.fixture(scope="module")
def uq2():
    return get_presentation("uq-sl2")


@pytest.fixture(scope="module")
def uq2_hopf(uq2):
    return build_hopf(uq2)


@pytest.fixture(scope="module")
def d2():
    return build_drinfeldian("sl2")


@pytest.fixture(scope="module")
def d2_hopf(d2):
    return build_hopf(d2)


@pytest.fixture(scope="module")
def yang():
    return build_yangian_sl2()


@pytest.fixture(scope="module")
def yang_hopf(yang):
    return build_hopf(yang)


@pytest.fixture(scope="module")
def d2_reps(d2):
    return default_reps(d2)


@pytest.fixture(scope="module")
def yang_reps(yang):
    return default_reps(yang)


def all_zero(rows):
    return all(v == "zero" for _, v, _ in rows)


# ---------------------------------------------------------------------------
# generator images and map extension
# ---------------------------------------------------------------------------


def test_default_convention_frozen_images(uq2, uq2_hopf):
    e, f, k, ki = (uq2.gen(n) for n in ("e+a1", "e-a1", "k+a1", "k-a1"))
    one = uq2.unit()
    H = uq2_hopf
    assert H.delta["e+a1"] == tensor(e, one) + tensor(ki, e)
    assert H.delta["e-a1"] == tensor(f, k) + tensor(one, f)
    assert H.delta["k+a1"] == tensor(k, k)
    assert H.antipode["e+a1"] == -(k * e)
    assert H.antipode["e-a1"] == -(f * ki)
    assert H.antipode["k+a1"] == ki
    assert H.epsilon["e+a1"] == rf(0)
    assert H.epsilon["k+a1"] == rf(1)


def test_structure_maps_are_read_only(yang):
    # H.coproduct reads the letter-id map built from delta at construction,
    # so a write to delta would reach dump_bundle but not the coproduct
    H = build_hopf(yang)
    text = dump_bundle(yang, H)
    xi, one = yang.gen("xi"), yang.unit()
    for name, value in (("delta", tensor(xi, one)), ("antipode", xi),
                        ("epsilon", rf(1))):
        with pytest.raises(TypeError):
            getattr(H, name)["xi"] = value
    assert dump_bundle(yang, H) == text
    # a variant is a new HopfData built from copies of the maps
    delta = dict(H.delta)
    delta["xi"] = tensor(xi, one)
    H2 = HopfData(yang, delta, H.epsilon, H.antipode)
    assert H2.delta == delta != dict(H.delta)
    assert H2.coproduct(xi) == tensor(xi, one)
    assert dump_bundle(yang, H) == text
    H3 = HopfData(yang, H.delta, H.epsilon, H.antipode)
    assert H3.delta == dict(H.delta) and H3.delta is not H.delta
    assert dump_bundle(yang, H3) == text


def test_coproduct_is_multiplicative(uq2, uq2_hopf):
    e, f = uq2.gen("e+a1"), uq2.gen("e-a1")
    assert uq2_hopf.coproduct(uq2.unit()) == tensor(uq2.unit(), uq2.unit())
    lhs = uq2_hopf.coproduct(e * f)
    rhs = uq2_hopf.coproduct(e) * uq2_hopf.coproduct(f)
    assert (lhs - rhs).is_zero()


def test_antipode_reverses_words(uq2, uq2_hopf):
    e, f = uq2.gen("e+a1"), uq2.gen("e-a1")
    lhs = uq2_hopf.antipode_of(e * f)
    rhs = uq2_hopf.antipode_of(f) * uq2_hopf.antipode_of(e)
    assert (lhs - rhs).is_zero()


def test_counit_is_multiplicative(uq2, uq2_hopf):
    k, e = uq2.gen("k+a1"), uq2.gen("e+a1")
    assert uq2_hopf.counit(k * k) == rf(1)
    assert uq2_hopf.counit(e * k) == rf(0)
    assert uq2_hopf.counit(uq2.unit().scale(rf("q"))) == rf("q")


def test_slot_expansion_grows_arity(yang, yang_hopf):
    d = yang_hopf.coproduct(yang.gen("xi"))
    t = apply_in_slot(d, 0, yang_hopf.word_coproduct)
    assert t.arity == 3
    back = counit_in_slot(d, 0, yang_hopf.word_counit)
    assert (yang.normal_form(back) - yang.gen("xi")).is_zero()


def _assert_as_constructed(x):
    """The slot maps build their results from contracted keys and nonzero
    coefficients directly; the public constructor, which normalises every
    key again, must give the same terms in the same order."""
    if isinstance(x, NCPoly):
        want = NCPoly(x.alphabet, x.terms)
    else:
        want = TensorPoly(x.alphabet, x.arity, x.terms)
    assert x == want
    assert list(x.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("name", sorted(ALGEBRA_BUILDERS) + ["twist-F"])
def test_slot_maps_build_what_the_constructor_gives(name):
    if name == "twist-F":
        p = get_presentation("yangian-sl2")
        images = list(twist_F(3, p).terms)
    else:
        p = get_presentation(name)
        images = list(build_hopf(p).delta.values())
    H = build_hopf(p)
    for d in images:
        for slot in (0, 1):
            t = apply_in_slot(d, slot, H.word_coproduct)
            _assert_as_constructed(t)
            _assert_as_constructed(counit_in_slot(t, slot, H.word_counit))
            _assert_as_constructed(counit_in_slot(d, slot, H.word_counit))
            m = _mult_with_map(d, slot, H.word_antipode)
            _assert_as_constructed(m)
            _assert_as_constructed(m.tensor().as_ncpoly())


# ---------------------------------------------------------------------------
# axioms and homomorphism verdicts, finite part
# ---------------------------------------------------------------------------


def test_axioms_hold_for_all_four_conventions(uq2):
    for name in CONVENTIONS:
        H = build_hopf(uq2, name)
        assert all_zero(check_coassoc(H)), name
        assert all_zero(check_counit(H)), name
        assert all_zero(check_antipode(H)), name
        assert all_zero(check_homomorphism(H)), name


def test_rank_two_axioms_and_homomorphism():
    H = build_hopf(get_presentation("uq-sl3"))
    assert all_zero(check_coassoc(H))
    assert all_zero(check_counit(H))
    assert all_zero(check_antipode(H))
    rows = check_homomorphism(H)
    assert len(rows) == 30
    assert all_zero(rows)


def test_classical_all_primitive():
    p = build_classical_sl2()
    H = build_hopf(p)
    h, one = p.gen("ha1"), p.unit()
    assert H.delta["ha1"] == tensor(h, one) + tensor(one, h)
    assert H.antipode["ha1"] == -h
    assert all_zero(check_coassoc(H))
    assert all_zero(check_counit(H))
    assert all_zero(check_antipode(H))
    assert all_zero(check_homomorphism(H))


# ---------------------------------------------------------------------------
# the two-parameter loop deformation
# ---------------------------------------------------------------------------


def test_loop_coproduct_frozen_value(d2, d2_hopf):
    xi, f, k = d2.gen("xi"), d2.gen("e-a1"), d2.gen("k+a1")
    one = d2.unit()
    a = rf("q") * rf("eta") / (rf("q") ** 2 - rf(1))
    assert a == loop_shift_coefficient()
    kinv_word = d2.normal_form(d2.gen("kd-") * k)
    s = d2.normal_form(f * k)
    # the shifted generator's coproduct: group-like pairing on xi plus the
    # deformation correction; the shift's own coproduct expanded by hand
    ds_by_hand = tensor(s, k * k) + tensor(k, s)
    expected = (tensor(xi, one) + tensor(kinv_word, xi)
                + (ds_by_hand - tensor(s, one)
                   - tensor(kinv_word, s)).scale(a))
    assert (d2_hopf.delta["xi"] - d2.normal_form_tensor(expected)).is_zero()
    assert d2_hopf.epsilon["xi"] == rf(0)
    assert d2_hopf.epsilon["kd+"] == rf(1)


def test_loop_antipode_frozen_value(d2, d2_hopf):
    xi, f, k, ki = (d2.gen(n) for n in ("xi", "e-a1", "k+a1", "k-a1"))
    a = loop_shift_coefficient()
    kappa = d2.normal_form(d2.gen("kd+") * ki)
    s_of_shift = -(ki * f * ki)  # antipode of f*k expanded by hand
    expected = d2.normal_form(
        -(kappa * xi) + (s_of_shift + kappa * f * k).scale(a))
    assert (d2_hopf.antipode["xi"] - expected).is_zero()


@pytest.mark.parametrize("name", ["drinfeldian-sl2", "drinfeldian-sl3"])
@pytest.mark.parametrize("convention", list(CONVENTIONS))
def test_loop_deformation_is_hopf_under_every_convention(name, convention):
    p = get_presentation(name)
    H = build_hopf(p, convention)
    rows = (check_coassoc(H) + check_counit(H) + check_antipode(H)
            + check_homomorphism(H, reps=default_reps(p)))
    assert len(rows) == 3 * len(p.alphabet.symbols) + len(p.relations)
    assert all_zero(rows), [r for r in rows if r[1] != "zero"]


@pytest.mark.parametrize("g, rules, affine_rules", [
    ("sl2", 21, 30), ("sl3", 58, 72)])
def test_drinfeldian_embeds_in_the_affine_quantum_group(monkeypatch, g, rules,
                                                        affine_rules):
    # phi: xi -> e_0 + a*s, kd+- -> (k_0 k_theta)^+-1, every other letter to
    # its namesake, maps the relations to zero and commutes with delta, S
    # and eps under every convention
    cd = cartan_data(g)
    aff = affine(cd)
    monkeypatch.setitem(presentations._PRESETS, aff.name, aff)
    U, D = build_uq(aff.name), get_presentation("drinfeldian-%s" % g)
    assert (len(D.relations), len(U.relations)) == (rules, affine_rules)
    kd_images = {}
    for sign in "+-":
        k = U.gen("k%sa0" % sign)
        for lab, n in zip(cd.labels, cd.highest_root):
            k = k * U.gen("k%s%s" % (sign, lab)) ** n
        kd_images["kd" + sign] = k
    images = {}
    for sym in D.alphabet.symbols:
        if sym.name == "xi":
            x = U.gen("e+a0") + translate(D.shift_element, U.alphabet).scale(
                loop_shift_coefficient())
        else:
            x = kd_images.get(sym.name) or U.gen(sym.name)
        images[D.alphabet.id_of(sym.name)] = x

    def phi(x):
        return apply_hom(x, images)

    def phi2(t):
        out = TensorPoly.zero(U.alphabet, 2)
        for (w0, w1), c in t.terms.items():
            out = out + tensor(phi(NCPoly(D.alphabet, {w0: c})),
                               phi(NCPoly(D.alphabet, {w1: rf(1)})))
        return out

    for rel in D.relations:
        assert U.normal_form(phi(rel.zero_form(D.alphabet))).is_zero(), \
            rel.label
    for convention in CONVENTIONS:
        HD, HU = build_hopf(D, convention), build_hopf(U, convention)
        for sym in D.alphabet.symbols:
            x = D.gen(sym.name)
            tag = convention, sym.name
            assert U.normal_form_tensor(
                phi2(HD.coproduct(x)) - HU.coproduct(phi(x))).is_zero(), tag
            assert U.normal_form(
                phi(HD.antipode_of(x)) - HU.antipode_of(phi(x))).is_zero(), tag
            assert HD.counit(x) == HU.counit(phi(x)), tag


# ---------------------------------------------------------------------------
# eta-deformed family
# ---------------------------------------------------------------------------


def test_eta_deformation_frozen_images(yang, yang_hopf):
    xi, f, h = yang.gen("xi"), yang.gen("e-a1"), yang.gen("ha1")
    one = yang.unit()
    eta = rf("eta")
    H = yang_hopf
    assert H.delta["xi"] == (tensor(xi, one) + tensor(one, xi)
                             + tensor(f, h).scale(eta))
    assert H.antipode["xi"] == -xi + (f * h).scale(eta)
    assert H.delta["e-a1"] == tensor(f, one) + tensor(one, f)
    assert H.epsilon["xi"] == rf(0)


def test_eta_deformation_axioms_and_homomorphism(yang, yang_hopf, yang_reps):
    assert all_zero(check_coassoc(yang_hopf))
    assert all_zero(check_counit(yang_hopf))
    assert all_zero(check_antipode(yang_hopf))
    rows = check_homomorphism(yang_hopf, reps=yang_reps)
    assert all_zero(rows)


def test_coassociativity_triple_frozen(yang, yang_hopf):
    xi, f, h = yang.gen("xi"), yang.gen("e-a1"), yang.gen("ha1")
    one = yang.unit()
    eta = rf("eta")
    d = yang_hopf.coproduct(xi)
    left = apply_in_slot(d, 0, yang_hopf.word_coproduct)
    right = apply_in_slot(d, 1, yang_hopf.word_coproduct)
    expected = (tensor(xi, one, one) + tensor(one, xi, one)
                + tensor(one, one, xi)
                + (tensor(f, h, one) + tensor(f, one, h)
                   + tensor(one, f, h)).scale(eta))
    assert (left - expected).is_zero()
    assert (right - expected).is_zero()


# ---------------------------------------------------------------------------
# placement survey
# ---------------------------------------------------------------------------


def test_convention_survey(uq2):
    rows = convention_search(uq2)
    by_name = {r["convention"]: r for r in rows}
    assert len(rows) == 6
    # every opposite-side placement is a valid bialgebra on the finite part,
    # and xi~, placed like a raising letter, extends each to the loop
    for name in CONVENTIONS:
        assert by_name[name]["opposite_sides"]
        assert by_name[name]["finite_homomorphism"]
        assert by_name[name]["loop_homomorphism"] is True
    # same-side placements never are, and the default witness shows it
    for name in ("both-right", "both-left"):
        assert not by_name[name]["opposite_sides"]
        assert by_name[name]["finite_homomorphism"] is False
        assert by_name[name]["loop_homomorphism"] is None


def _fixed_loop_formula(p, convention):
    """The convention's finite part with the loop generator's maps fixed at
    the raise-left placement, whatever the convention:
    delta(xi) = xi (x) 1 + kappa^-1 (x) xi + a*(delta(s) - s (x) 1
    - kappa^-1 (x) s) and S(xi) = -kappa xi + a*(S(s) + kappa s)."""
    H = build_hopf(p, convention)
    xi, s, one = p.gen("xi"), p.shift_element, p.unit()
    kappa, kappa_inv = _kappa_words(p)
    a = loop_shift_coefficient()
    delta, antipode = dict(H.delta), dict(H.antipode)
    delta["xi"] = p.normal_form_tensor(
        tensor(xi, one) + tensor(kappa_inv, xi)
        + (H.coproduct(s) - tensor(s, one) - tensor(kappa_inv, s)).scale(a))
    antipode["xi"] = p.normal_form(
        -(kappa * xi) + (H.antipode_of(s) + kappa * s).scale(a))
    return HopfData(p, delta, H.epsilon, antipode)


@pytest.mark.parametrize("name", ["drinfeldian-sl2", "drinfeldian-sl3"])
def test_fixed_loop_formula_fails_off_the_default_convention(name):
    # the loop rows that a loop formula ignoring the convention leaves
    # behind; raise-right-inv's stay unknown on sl2 because both slots of
    # the (r (x) r) o delta witness share the spectral parameter
    p = get_presentation(name)
    reps = default_reps(p)
    labels = ["%s:%s%s" % (rule, sign, lab) for rule, sign in (
        ("loop-comm", "e-"), ("loop-serre-e", "e+"), ("loop-serre-xi", "e+"))
        for lab in p.cartan.labels]
    right_inv = "unknown" if name == "drinfeldian-sl2" else "nonzero"
    for convention, verdict in (("raise-right", "nonzero"),
                                ("raise-left-inv", "nonzero"),
                                ("raise-right-inv", right_inv)):
        H = _fixed_loop_formula(p, convention)
        rows = check_homomorphism(H, reps=reps)
        assert sorted((l, v) for l, v, _ in rows if v != "zero") == sorted(
            (l, verdict) for l in labels), convention
        for check in (check_coassoc, check_counit, check_antipode):
            assert all_zero(check(H)), (convention, check.__name__)
    # under the default convention the two loop formulas agree
    fixed, H = _fixed_loop_formula(p, "raise-left"), build_hopf(p)
    assert (fixed.delta, fixed.antipode) == (H.delta, H.antipode)


def test_unknown_convention_rejected(uq2):
    with pytest.raises(UnsupportedAlgebraError):
        build_hopf(uq2, "sideways")


# ---------------------------------------------------------------------------
# mutation detection
# ---------------------------------------------------------------------------


def _flipped_eta_pairing(yang, yang_hopf):
    """Acceptance criterion 6, mutation 1: flipped sign on the eta-pairing
    term of the loop generator's undeformed coproduct."""
    xi, f, h = yang.gen("xi"), yang.gen("e-a1"), yang.gen("ha1")
    one = yang.unit()
    delta = dict(yang_hopf.delta)
    delta["xi"] = (tensor(xi, one) + tensor(one, xi)
                   - tensor(f, h).scale(rf("eta")))
    return HopfData(yang, delta, yang_hopf.epsilon, yang_hopf.antipode)


def _flipped_loop_correction(d2, d2_hopf):
    """Acceptance criterion 6, mutation 2: flipped sign on the
    shift-coefficient correction of the loop generator's coproduct."""
    xi, f, k = d2.gen("xi"), d2.gen("e-a1"), d2.gen("k+a1")
    one = d2.unit()
    a = loop_shift_coefficient()
    kinv_word = d2.normal_form(d2.gen("kd-") * k)
    s = d2.normal_form(f * k)
    ds = tensor(s, k * k) + tensor(k, s)
    delta = dict(d2_hopf.delta)
    delta["xi"] = d2.normal_form_tensor(
        tensor(xi, one) + tensor(kinv_word, xi)
        - (ds - tensor(s, one) - tensor(kinv_word, s)).scale(a))
    return HopfData(d2, delta, d2_hopf.epsilon, d2_hopf.antipode)


def test_flipped_eta_pairing_detected(yang, yang_hopf, yang_reps):
    mutated = _flipped_eta_pairing(yang, yang_hopf)
    rows = {l: v for l, v, _ in check_homomorphism(mutated, reps=yang_reps)}
    assert rows["loop-comm:e-a1"] == "nonzero"


def test_flipped_loop_correction_detected(d2, d2_hopf, d2_reps):
    mutated = _flipped_loop_correction(d2, d2_hopf)
    rows = {l: v for l, v, _ in check_homomorphism(mutated, reps=d2_reps)}
    assert "nonzero" in rows.values()
    assert rows["loop-comm:e-a1"] == "nonzero"


# ---------------------------------------------------------------------------
# the homomorphism witness: (r (x) r) o delta on z equals r (x) r on delta(z)
# ---------------------------------------------------------------------------


def _assert_routes_agree(H, reps, x):
    """The witness of x in each rep's pullback; asserts that it equals the
    raw route, in entries and in str()."""
    witnesses = []
    for r in reps:
        pulled = _pullback_rep(H, r).evaluate(x)
        raw = evaluate_tensor(H.coproduct(x), [r, r])
        assert pulled == raw
        assert str(pulled) == str(raw)
        witnesses.append(pulled)
    return witnesses


@pytest.mark.parametrize("name", ["uq-sl2", "uq-sl3", "drinfeldian-sl2",
                                  "drinfeldian-sl3", "yangian-sl2",
                                  "twisted-yangian-sl2"])
def test_pulled_back_witness_matches_raw_coproduct(name):
    p = get_presentation(name)
    H = build_hopf(p)
    reps = default_reps(p)
    assert reps
    for rel in p.relations:
        _assert_routes_agree(H, reps, rel.zero_form(p.alphabet))


@pytest.mark.parametrize("mutate, name", [
    (_flipped_eta_pairing, "yangian-sl2"),
    (_flipped_loop_correction, "drinfeldian-sl2"),
])
def test_pulled_back_witness_matches_raw_coproduct_on_mutants(mutate, name):
    p = get_presentation(name)
    H = mutate(p, build_hopf(p))
    reps = default_reps(p)
    witnesses = [m for rel in p.relations
                 for m in _assert_routes_agree(H, reps,
                                               rel.zero_form(p.alphabet))]
    assert not all(m.is_zero() for m in witnesses)


@functools.lru_cache(maxsize=None)
def _hopf_and_reps(name):
    p = get_presentation(name)
    return build_hopf(p), default_reps(p)


_COEFFICIENTS = (rf(1), rf(-2), rf(Fraction(1, 3)), rf("q"),
                 rf(1) / rf("q"), rf("q") - rf(1))


def _random_element(p):
    # the inverse pairs k+/k- (and kd+/kd- on drinfeldian-sl2) are four
    # letters of each alphabet, so inverse letters often meet in delta of a
    # word and contract there
    word = st.lists(st.integers(0, len(p.alphabet) - 1), max_size=5)
    term = st.tuples(word.map(tuple), st.sampled_from(_COEFFICIENTS))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: sum((NCPoly(p.alphabet, {w: c}) for w, c in terms),
                          NCPoly.zero(p.alphabet)))


@pytest.mark.parametrize("name", ["drinfeldian-sl2", "uq-sl3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pulled_back_witness_matches_raw_coproduct_on_random_elements(
        name, data):
    H, reps = _hopf_and_reps(name)
    _assert_routes_agree(H, reps, data.draw(_random_element(H.presentation)))


def test_pulled_back_witness_contracts_inverse_letters(d2, d2_hopf, d2_reps):
    k, ki, kd, kdi, e, xi = (d2.gen(n) for n in (
        "k+a1", "k-a1", "kd+", "kd-", "e+a1", "xi"))
    for x in (k * e * ki, kd * xi * kdi, ki * xi * e * k, kdi * k * e * kd):
        _assert_routes_agree(d2_hopf, d2_reps, x)


def test_nonzero_antipode_normal_form_is_unknown(yang, yang_hopf):
    # yangian-sl2 is not confluent, so a normal form that stays nonzero is
    # no disproof: the row is unknown and the report inconclusive, not fail
    f = yang.gen("e-a1")
    delta = dict(yang_hopf.delta)
    delta["xi"] = delta["xi"] + tensor(f, f).scale(rf("eta"))
    mutated = HopfData(yang, delta, yang_hopf.epsilon, yang_hopf.antipode)
    rows = {l: (v, r) for l, v, r in check_antipode(mutated)}
    assert rows["xi"][0] == "unknown" and rows["xi"][1]
    assert {v for l, (v, _) in rows.items() if l != "xi"} == {"zero"}
    items = _check_items("antipode", lambda: check_antipode(mutated))
    report = VerificationReport("yangian-sl2", "hopf", items, {})
    assert ("antipode:xi", "unknown") in [(l, v) for l, v, _ in items]
    assert report.status == "inconclusive"


# ---------------------------------------------------------------------------
# slotwise normal forms: each output coefficient summed once, against adding
# every coefficient product into its key as it is made
# ---------------------------------------------------------------------------


def _eager_map_slot(t, i, word_fn):
    """map_slot with every product c * c2 added into its output key as it
    is made (add_term)."""
    out = {}
    for k, c in t.terms.items():
        for w, c2 in word_fn(k[i]).terms.items():
            add_term(out, k[:i] + (w,) + k[i + 1:], c * c2)
    return TensorPoly(t.alphabet, t.arity, out)


def _assert_slotwise_agree(p, t, bound=None):
    """normal_form_tensor against the eager sums: after every slot equal
    terms and coefficients, and equal str(); or the same
    DegreeBoundExceeded message."""
    def word_fn(w):
        return p.word_normal_form(w, bound)

    try:
        wants = [t]
        for i in range(t.arity):
            wants.append(_eager_map_slot(wants[-1], i, word_fn))
    except DegreeBoundExceeded as exc:
        with pytest.raises(DegreeBoundExceeded) as got:
            p.normal_form_tensor(t, bound)
        assert str(got.value) == str(exc)
        return
    got = t
    for i, want in enumerate(wants[1:]):
        got = got.map_slot(i, word_fn)
        assert got.terms == want.terms
        assert str(got) == str(want)
    assert p.normal_form_tensor(t, bound) == got
    assert str(got) == str(wants[-1])


@pytest.mark.parametrize("name, mutate", [
    ("uq-sl2", None), ("uq-sl3", None), ("drinfeldian-sl2", None),
    ("drinfeldian-sl3", None), ("yangian-sl2", None),
    ("twisted-yangian-sl2", None),
    ("yangian-sl2", _flipped_eta_pairing),
    ("drinfeldian-sl2", _flipped_loop_correction),
])
def test_slotwise_normal_form_matches_eager_sums(name, mutate):
    p = get_presentation(name)
    H = build_hopf(p)
    if mutate is not None:
        H = mutate(p, H)
    for rel in p.relations:
        dz = H.coproduct(rel.zero_form(p.alphabet))
        _assert_slotwise_agree(p, dz)
        # a bound below the longest word of delta(z) stops both at one word
        _assert_slotwise_agree(p, dz, bound=3)


def test_twist_graded_products_match_eager_sums(monkeypatch, yang, yang_hopf):
    # every tensor the order-3 twisted homomorphism check reduces: the
    # graded products of the twist series with delta(x)
    inputs = []
    reduce = Presentation.normal_form_tensor

    def recording(self, t, bound=None):
        inputs.append(t)
        return reduce(self, t, bound)

    monkeypatch.setattr(Presentation, "normal_form_tensor", recording)
    assert all_zero(check_twisted_homomorphism(yang_hopf, 3))
    monkeypatch.undo()
    assert len(inputs) > 50
    for t in inputs:
        _assert_slotwise_agree(yang, t)


# ---------------------------------------------------------------------------
# structure maps word by word: each word's image scaled at its first letter,
# against the unit times the letter images scaled after the product
# ---------------------------------------------------------------------------


def _eager_wordwise(x, images, unit, reverse):
    """The image of x built as unit * images[w1] * ... per word w, scaled by
    the word's coefficient afterwards, and summed with +."""
    acc = unit.scale(0)
    for word, c in x.terms.items():
        img = unit
        for i in (reversed(word) if reverse else word):
            img = img * images[i]
        acc = acc + img.scale(c)
    return acc


@pytest.mark.parametrize("name", ["uq-sl3", "drinfeldian-sl2",
                                  "drinfeldian-sl3"])
def test_structure_maps_match_the_unit_fold_in_order(name):
    # dumps sort their terms, so term order does not reach the serialized
    # bytes; it only picks the word that DegreeBoundExceeded names.  It is
    # compared all the same, not only the values
    p = get_presentation(name)
    H = build_hopf(p)
    A = p.alphabet
    delta = {A.id_of(n): t for n, t in H.delta.items()}
    antipode = {A.id_of(n): x for n, x in H.antipode.items()}
    zero_forms = [rel.zero_form(A) for rel in p.relations]
    # a word-free term beside the words of a relation
    zero_forms.append(zero_forms[0] + p.unit().scale(rf("2/(q - 1)")))
    for z in zero_forms:
        for got, want in [
                (H.coproduct(z),
                 _eager_wordwise(z, delta, TensorPoly.unit(A, 2), False)),
                (H.antipode_of(z),
                 _eager_wordwise(z, antipode, NCPoly.unit(A), True))]:
            assert list(got.terms.items()) == list(want.terms.items())


# ---------------------------------------------------------------------------
# degeneration of the loop Hopf maps
# ---------------------------------------------------------------------------


def test_loop_hopf_limit_matches_eta_deformation(d2_hopf, yang, yang_hopf):
    dlim, slim = loop_hopf_limit(d2_hopf, yang)
    assert (dlim - yang_hopf.delta["xi"]).is_zero()
    assert (slim - yang_hopf.antipode["xi"]).is_zero()


def test_loop_hopf_limit_rejects_other_families(yang_hopf):
    with pytest.raises(UnsupportedAlgebraError):
        loop_hopf_limit(yang_hopf)


def test_loop_hopf_limit_needs_a_shipped_target():
    with pytest.raises(UnsupportedAlgebraError):
        loop_hopf_limit(build_hopf(get_presentation("drinfeldian-sl3")))


def test_build_hopf_refuses_the_loop_generator_above_rank_one():
    sp = specialize(get_presentation("drinfeldian-sl3"),
                    {"q": 1, "kdelta": 1})
    assert sp.family == "yangian" and "xi" in sp.alphabet.index
    with pytest.raises(UnsupportedAlgebraError):
        build_hopf(sp)


@pytest.mark.parametrize("name, assignments", [
    ("yangian-sl2", {"eta": 0}),
    ("drinfeldian-sl2", {"kdelta": 1, "eta": 0, "q": 1}),
    ("drinfeldian-sl3", {"kdelta": 1, "eta": 0, "q": 1}),
], ids=["yangian-sl2", "drinfeldian-sl2", "drinfeldian-sl3"])
def test_eta_free_loop_generator_is_primitive(name, assignments):
    # without eta, xi is primitive, as in U(g[u]), at any rank
    sp = specialize(get_presentation(name), assignments)
    assert "eta" not in sp.params and "xi" in sp.alphabet.index
    H = build_hopf(sp)
    xi, one = sp.gen("xi"), sp.unit()
    assert H.delta["xi"] == tensor(xi, one) + tensor(one, xi)
    assert H.antipode["xi"] == -xi
    for check in (check_homomorphism, check_coassoc, check_counit,
                  check_antipode):
        assert all_zero(check(H)), check.__name__


def _every_limit():
    """(label, presentation) for each shipped algebra under each subset of
    {kdelta=1, eta=0, q=1} that specialize accepts."""
    values = {"kdelta": 1, "eta": 0, "q": 1}
    out = []
    for name in ALGEBRA_BUILDERS:
        for n in range(len(values) + 1):
            for keys in itertools.combinations(values, n):
                try:
                    p = specialize(get_presentation(name),
                                   {k: values[k] for k in keys})
                except (ValueError, PoleError):
                    continue
                out.append(("%s %s" % (name, ",".join(keys)), p))
    return out


def _hopf_of_every_limit():
    """(label, HopfData) for each of _every_limit that build_hopf accepts."""
    out = []
    for label, p in _every_limit():
        try:
            out.append((label, build_hopf(p)))
        except UnsupportedAlgebraError:
            continue
    return out


def test_inverse_pairs_are_group_like_in_every_limit():
    # the relation checks never contract g * g^-1, so a letter with an
    # inverse must be group-like by construction: primitive images of the
    # central pair the q -> 1 limit keeps read zero on every check row
    cases = _hopf_of_every_limit()
    labels = [label for label, _ in cases]
    # only the two rank-2 yangian limits with eta are refused
    refused = {label for label, _ in _every_limit()} - set(labels)
    assert refused == {"drinfeldian-sl3 q", "drinfeldian-sl3 kdelta,q"}
    assert "drinfeldian-sl2 q" in labels and "drinfeldian-sl3 eta,q" in labels
    pairs = 0
    for label, H in cases:
        p = H.presentation
        one = p.unit()
        for sym in p.alphabet.symbols:
            if sym.inv_name is None:
                continue
            pairs += 1
            g, g_inv = p.gen(sym.name), p.gen(sym.inv_name)
            assert (p.normal_form_tensor(H.coproduct(g) * H.coproduct(g_inv))
                    == tensor(one, one)), (label, sym.name)
            assert H.counit(g) * H.counit(g_inv) == 1, (label, sym.name)
            assert (p.normal_form(_mult_with_map(H.coproduct(g), 0,
                                                 H.word_antipode))
                    == one), (label, sym.name)
    assert pairs > 0


@pytest.mark.parametrize("name, assignments, rows", [
    ("drinfeldian-sl2", {"eta": 0}, 42),
    ("drinfeldian-sl2", {"kdelta": 1}, 25),
    ("drinfeldian-sl2", {"kdelta": 1, "eta": 0}, 25),
    ("drinfeldian-sl3", {"eta": 0}, 91),
    ("drinfeldian-sl3", {"kdelta": 1}, 65),
    ("drinfeldian-sl3", {"kdelta": 1, "eta": 0}, 65),
], ids=["sl2-eta", "sl2-kdelta", "sl2-kdelta-eta",
        "sl3-eta", "sl3-kdelta", "sl3-kdelta-eta"])
def test_loop_coproduct_serves_every_drinfeldian_limit(name, assignments,
                                                       rows):
    # the limit keeps its shift element, so xi~ = xi - a*s takes the
    # Drinfeld-Jimbo maps of e_0: kappa without the central pair after
    # kdelta -> 1, a = 0 after eta -> 0
    sp = specialize(get_presentation(name), assignments)
    assert sp.family == "drinfeldian" and sp.shift_element is not None
    H = build_hopf(sp)
    out = []
    for check in (check_coassoc, check_counit, check_antipode,
                  check_homomorphism):
        got = check(H)
        assert all_zero(got), (check.__name__, [r for r in got
                                                if r[1] != "zero"])
        out += got
    assert len(out) == rows
