"""Order-truncated twist series: frozen low-order values, exact inversion,
conjugated structure maps, and the order-by-order structural checks."""

from fractions import Fraction

import pytest

from loopdeform.errors import ArityMismatchError, NotUnitLeadingError
from loopdeform.freealg import TensorPoly, tensor
from loopdeform.hopf import apply_in_slot, build_hopf
from loopdeform.presentations import build_yangian_sl2
from loopdeform.ratfunc import rf
from loopdeform.repn import evaluate_tensor, solve_eval_correction
from loopdeform.twist import (
    DEFAULT_ORDER,
    TwistSeries,
    check_cocycle,
    check_twist_counit,
    check_twisted_antipode,
    check_twisted_coassoc,
    check_twisted_homomorphism,
    first_order_antisymmetry,
    series_inverse,
    twist_F,
    twist_u,
    twisted_antipode,
    twisted_coproduct,
)

ZETA = rf("zeta")


@pytest.fixture(scope="module")
def eta_pres():
    return build_yangian_sl2()


@pytest.fixture(scope="module")
def eta_hopf(eta_pres):
    return build_hopf(eta_pres)


@pytest.fixture(scope="module")
def two_dim_rep(eta_pres):
    return solve_eval_correction(Fraction(1, 2), eta_pres)


def all_zero(rows):
    return all(v == "zero" for _, v, _ in rows)


# ---------------------------------------------------------------------------
# the twisting element and its partner: frozen low orders
# ---------------------------------------------------------------------------


def test_twisting_element_frozen_orders(eta_pres):
    p = eta_pres
    h, f = p.gen("ha1"), p.gen("e-a1")
    unit2 = TensorPoly.unit(p.alphabet, 2)

    assert twist_F(0, p).terms == (unit2,)

    F1 = twist_F(1, p)
    assert F1.terms[0] == unit2
    assert F1.terms[1] == tensor(h, f).scale(ZETA)

    # order 2 carries the Cartan ladder h(h+2) = h^2 + 2h against f^2
    F2 = twist_F(2, p)
    expected2 = (tensor(h * h, f * f).scale(ZETA * ZETA * rf("1/2"))
                 + tensor(h, f * f).scale(ZETA * ZETA))
    assert F2.terms[2] == expected2
    assert F2.terms[:2] == F1.terms

    assert DEFAULT_ORDER == 3
    assert twist_F(p=p).order == 3


def test_partner_series_frozen_orders(eta_pres):
    p = eta_pres
    h, f = p.gen("ha1"), p.gen("e-a1")

    u = twist_u(2, p)
    assert u.arity == 1
    assert u.terms[0] == TensorPoly.unit(p.alphabet, 1)
    # order 1 is -zeta * h f, stored in normal form (h f = f h - 2 f)
    assert u.terms[1] == p.normal_form((h * f).scale(-ZETA)).tensor()
    # order 2 is (zeta^2/2) * h(h+2) f^2 with the ladder on the left
    expected2 = p.normal_form((h * (h + p.unit().scale(rf(2)))) * (f * f))
    assert u.terms[2] == expected2.tensor().scale(ZETA * ZETA * rf("1/2"))
    # the factors do not commute: the flipped product is a different element
    flipped = p.normal_form((f * f) * (h * (h + p.unit().scale(rf(2)))))
    assert u.terms[2] != flipped.tensor().scale(ZETA * ZETA * rf("1/2"))


def test_series_validation(eta_pres):
    p = eta_pres
    h, f = p.gen("ha1"), p.gen("e-a1")
    unit2 = TensorPoly.unit(p.alphabet, 2)
    with pytest.raises(NotUnitLeadingError):
        TwistSeries(p, [tensor(h, f)])
    # an order-1 term without its zeta factor breaks the grading
    with pytest.raises(ValueError):
        TwistSeries(p, [unit2, tensor(h, f)])
    # a zeta factor at order 0 does too
    with pytest.raises(NotUnitLeadingError):
        TwistSeries(p, [unit2.scale(ZETA)])
    with pytest.raises(ArityMismatchError):
        twist_u(1, p).swap_slots()
    with pytest.raises(ArityMismatchError):
        check_cocycle(1, p=p, twist=twist_u(1, p))


# ---------------------------------------------------------------------------
# series inversion
# ---------------------------------------------------------------------------


def test_series_inverse_frozen_orders(eta_pres):
    p = eta_pres
    h, f = p.gen("ha1"), p.gen("e-a1")
    unit2 = TensorPoly.unit(p.alphabet, 2)

    Fi1 = series_inverse(twist_F(1, p))
    assert Fi1.terms == (unit2, tensor(h, f).scale(-ZETA))

    # Y_2 = -(X_1 Y_1 + X_2) = zeta^2 (h (x) f)^2 - (zeta^2/2) h(h+2) (x) f^2
    #     = (zeta^2/2) h(h-2) (x) f^2
    Fi2 = series_inverse(twist_F(2, p))
    expected2 = (tensor(h * h, f * f).scale(ZETA * ZETA * rf("1/2"))
                 - tensor(h, f * f).scale(ZETA * ZETA))
    assert Fi2.terms[2] == p.normal_form_tensor(expected2)


def test_inverse_roundtrip(eta_pres):
    p = eta_pres
    F = twist_F(3, p)
    Fi = series_inverse(F)
    unit_series = TwistSeries(
        p, [TensorPoly.unit(p.alphabet, 2)]
        + [TensorPoly.zero(p.alphabet, 2)] * 3)
    assert F * Fi == unit_series
    assert Fi * F == unit_series
    assert series_inverse(Fi) == F

    u = twist_u(3, p)
    ui = series_inverse(u)
    assert all(t.is_zero() for t in (u * ui).terms[1:])
    assert series_inverse(ui) == u


# ---------------------------------------------------------------------------
# twisted coproduct and antipode
# ---------------------------------------------------------------------------


def test_twisted_coproduct_of_lowering_frozen(eta_pres, eta_hopf):
    p, H = eta_pres, eta_hopf
    f = p.gen("e-a1")
    d = twisted_coproduct(f, H, 2)
    assert d[0] == p.normal_form_tensor(H.coproduct(f))
    # order 1 is the bracket [zeta h (x) f, f (x) 1 + 1 (x) f]
    #                      = zeta [h, f] (x) f = -2 zeta f (x) f
    assert d[1] == tensor(f, f).scale(ZETA * rf(-2))
    assert d[2].is_zero()


def test_twisted_coproduct_zeta_zero_is_untwisted(eta_pres, eta_hopf):
    p, H = eta_pres, eta_hopf
    for name in H.delta:
        d = twisted_coproduct(p.gen(name), H, 3)
        assert str(d[0]) == str(p.normal_form_tensor(H.coproduct(p.gen(name))))


def test_twisted_antipode_frozen_and_zeta_zero(eta_pres, eta_hopf):
    p, H = eta_pres, eta_hopf
    h, f = p.gen("ha1"), p.gen("e-a1")
    s = twisted_antipode(h, H, 2)
    assert s[0] == p.normal_form(-h)
    # order 1 is the bracket [-zeta h f, -h] = zeta [h f, h] = 2 zeta h f
    assert p.normal_form(s[1] - (h * f).scale(ZETA * rf(2))).is_zero()
    for name in H.delta:
        out = twisted_antipode(p.gen(name), H, 3)
        assert str(out[0]) == str(p.normal_form(H.antipode_of(p.gen(name))))


# ---------------------------------------------------------------------------
# cocycle identity
# ---------------------------------------------------------------------------


def test_cocycle_first_order_by_hand(eta_pres, eta_hopf):
    p, H = eta_pres, eta_hopf
    h, f = p.gen("ha1"), p.gen("e-a1")
    one = p.unit()
    # the coproduct expansion of the order-1 term in the first slot
    got = p.normal_form_tensor(apply_in_slot(twist_F(1, p).terms[1], 0, H))
    expected = (tensor(h, one, f) + tensor(one, h, f)).scale(ZETA)
    assert got == expected


def test_cocycle_holds_to_order_three(eta_pres):
    rows = check_cocycle(3, p=eta_pres)
    assert [label for label, _, _ in rows] == [
        "order-0", "order-1", "order-2", "order-3", "eval-2dim-cube"]
    assert all_zero(rows)


def test_cocycle_detects_dropped_normalization(eta_pres):
    # forgetting the 1/k! in the series terms must surface at order 2: the
    # normal form stays nonzero there (unknown, as the rules are not
    # confluent) and the evaluation witness disproves the identity
    p = eta_pres
    h, f = p.gen("ha1"), p.gen("e-a1")
    ladder = [p.unit(), h, h * h + h.scale(rf(2)),
              (h * h + h.scale(rf(2))) * (h + p.unit().scale(rf(4)))]
    bad = TwistSeries(
        p, [tensor(ladder[k], f ** k).scale(ZETA ** k) for k in range(4)])
    rows = dict((label, v) for label, v, _ in check_cocycle(3, p=p, twist=bad))
    assert rows["order-0"] == "zero"
    assert rows["order-1"] == "zero"
    assert rows["order-2"] == "unknown"
    assert rows["eval-2dim-cube"] == "nonzero"


def test_first_order_antisymmetry(eta_pres):
    p = eta_pres
    h, f = p.gen("ha1"), p.gen("e-a1")
    got = first_order_antisymmetry(p)
    assert got == (tensor(h, f) - tensor(f, h)).scale(ZETA)
    # the order-0 parts of the series and its slot flip cancel exactly
    F = twist_F(1, p)
    assert (F.terms[0] - F.swap_slots().terms[0]).is_zero()


# ---------------------------------------------------------------------------
# structural checks for the twisted pair
# ---------------------------------------------------------------------------


def test_counit_normalization(eta_pres):
    assert all_zero(check_twist_counit(3, p=eta_pres))


def test_twisted_homomorphism_on_all_relations(eta_hopf):
    rows = check_twisted_homomorphism(eta_hopf, 3)
    assert len(rows) == len(eta_hopf.presentation.relations)
    assert all_zero(rows)


def test_twisted_coassociativity_on_all_generators(eta_hopf):
    rows = check_twisted_coassoc(eta_hopf, 3)
    assert sorted(label for label, _, _ in rows) == sorted(eta_hopf.delta)
    assert all_zero(rows)


def test_twisted_antipode_axiom_both_sides(eta_hopf):
    rows = check_twisted_antipode(eta_hopf, 3)
    assert len(rows) == 2 * len(eta_hopf.delta)
    assert all_zero(rows)


# ---------------------------------------------------------------------------
# exactness on two-dimensional evaluation representations
# ---------------------------------------------------------------------------


def test_two_dim_evaluation_is_exact(eta_pres, two_dim_rep):
    # f acts nilpotently in two dimensions, so the series terminates and the
    # truncation order stops mattering
    p, r = eta_pres, two_dim_rep
    assert (evaluate_tensor(twist_F(1, p).value(), [r, r])
            == evaluate_tensor(twist_F(3, p).value(), [r, r]))
    assert (evaluate_tensor(twist_u(1, p).value(), [r])
            == evaluate_tensor(twist_u(3, p).value(), [r]))


def test_cocycle_rep_rows_agree_across_orders(eta_pres, two_dim_rep):
    reps = (two_dim_rep,) * 3
    for N in (1, 3):
        rows = dict((label, v)
                    for label, v, _ in check_cocycle(N, reps=reps, p=eta_pres))
        assert rows["eval-2dim-cube"] == "zero"
