"""Hopf structure maps: frozen generator images, axiom checks, homomorphism
verdicts, the placement survey, mutation detection, and the degeneration of
the loop generator's coproduct/antipode."""

import pytest

from loopdeform.cli import VerificationReport, _check_items
from loopdeform.errors import UnsupportedAlgebraError
from loopdeform.freealg import NCPoly, tensor
from loopdeform.hopf import (
    CONVENTIONS,
    HopfData,
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
    build_classical_sl2,
    build_drinfeldian,
    build_yangian_sl2,
    get_presentation,
    loop_shift_coefficient,
)
from loopdeform.ratfunc import rf
from loopdeform.repn import default_reps


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
    t = apply_in_slot(d, 0, yang_hopf)
    assert t.arity == 3
    back = counit_in_slot(d, 0, yang_hopf)
    assert (yang.normal_form(back) - yang.gen("xi")).is_zero()


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


def test_loop_axioms(d2_hopf):
    assert all_zero(check_coassoc(d2_hopf))
    assert all_zero(check_counit(d2_hopf))
    assert all_zero(check_antipode(d2_hopf))


def test_loop_homomorphism_with_witness(d2, d2_hopf, d2_reps):
    rows = check_homomorphism(d2_hopf, reps=d2_reps)
    assert len(rows) == len(d2.relations)
    assert all_zero(rows)


def test_loop_rank_two_axioms_and_homomorphism():
    d3 = build_drinfeldian("sl3")
    H = build_hopf(d3)
    assert all_zero(check_coassoc(H))
    assert all_zero(check_counit(H))
    assert all_zero(check_antipode(H))
    rows = check_homomorphism(H)
    assert len(rows) == len(d3.relations)
    assert all_zero(rows)


def test_plain_shift_is_also_a_homomorphism():
    dp = build_drinfeldian("sl2", shift_style="plain")
    H = build_hopf(dp)
    assert all_zero(check_coassoc(H))
    assert all_zero(check_counit(H))
    assert all_zero(check_antipode(H))
    assert all_zero(check_homomorphism(H))


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
    left = apply_in_slot(d, 0, yang_hopf)
    right = apply_in_slot(d, 1, yang_hopf)
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
    rows = convention_search(uq2, loop_builder=lambda: build_drinfeldian("sl2"))
    by_name = {r["convention"]: r for r in rows}
    assert len(rows) == 6
    # every opposite-side placement is a valid bialgebra on the finite part
    for name in CONVENTIONS:
        assert by_name[name]["opposite_sides"]
        assert by_name[name]["finite_homomorphism"]
    # same-side placements never are
    assert not by_name["both-right"]["finite_homomorphism"]
    assert not by_name["both-left"]["finite_homomorphism"]
    # exactly one convention extends to the loop deformation
    loop_ok = [r["convention"] for r in rows if r["loop_homomorphism"]]
    assert loop_ok == ["raise-left"]
    # the convention placing the inverse factor left of the lowering
    # generator (mirroring the printed loop pairing) does not extend
    assert by_name["raise-right"]["kinv_left_on_lowering"]
    assert by_name["raise-right"]["loop_homomorphism"] is False


def test_unknown_convention_rejected(uq2):
    with pytest.raises(UnsupportedAlgebraError):
        build_hopf(uq2, "sideways")


# ---------------------------------------------------------------------------
# mutation detection
# ---------------------------------------------------------------------------


def test_flipped_eta_pairing_detected(yang, yang_hopf, yang_reps):
    xi, f, h = yang.gen("xi"), yang.gen("e-a1"), yang.gen("ha1")
    one = yang.unit()
    delta = dict(yang_hopf.delta)
    delta["xi"] = (tensor(xi, one) + tensor(one, xi)
                   - tensor(f, h).scale(rf("eta")))
    mutated = HopfData(yang, delta, yang_hopf.epsilon, yang_hopf.antipode)
    rows = {l: v for l, v, _ in check_homomorphism(mutated, reps=yang_reps)}
    assert rows["loop-comm:e-a1"] == "nonzero"


def test_flipped_loop_correction_detected(d2, d2_hopf, d2_reps):
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
    mutated = HopfData(d2, delta, d2_hopf.epsilon, d2_hopf.antipode)
    rows = {l: v for l, v, _ in check_homomorphism(mutated, reps=d2_reps)}
    assert "nonzero" in rows.values()
    assert rows["loop-comm:e-a1"] == "nonzero"


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
# degeneration of the loop Hopf maps
# ---------------------------------------------------------------------------


def test_loop_hopf_limit_matches_eta_deformation(d2_hopf, yang, yang_hopf):
    dlim, slim = loop_hopf_limit(d2_hopf, yang)
    assert (dlim - yang_hopf.delta["xi"]).is_zero()
    assert (slim - yang_hopf.antipode["xi"]).is_zero()


def test_loop_hopf_limit_plain_shift_differs(yang, yang_hopf):
    dp = build_drinfeldian("sl2", shift_style="plain")
    H = build_hopf(dp)
    dlim, slim = loop_hopf_limit(H, yang)
    xi, f, h = yang.gen("xi"), yang.gen("e-a1"), yang.gen("ha1")
    one = yang.unit()
    half_eta = rf("eta") / rf(2)
    # the undressed shift degenerates to the antisymmetrized pairing
    expected_d = (tensor(xi, one) + tensor(one, xi)
                  + (tensor(f, h) - tensor(h, f)).scale(half_eta))
    assert (dlim - expected_d).is_zero()
    assert (slim - (-xi + f.scale(rf("eta")))).is_zero()
    assert not (dlim - yang_hopf.delta["xi"]).is_zero()


def test_loop_hopf_limit_rejects_other_families(yang_hopf):
    with pytest.raises(UnsupportedAlgebraError):
        loop_hopf_limit(yang_hopf)
