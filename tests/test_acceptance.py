"""Acceptance gate: eleven exact, zero-tolerance checks.

One test per criterion; each prints a single numbered pass line on success
(run with -s or read captured output), and a pytest failure on any test is
the corresponding fail line.  Every criterion is time-boxed at 60 seconds.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from loopdeform.errors import PoleError
from loopdeform.freealg import NCPoly, tensor
from loopdeform.hopf import (
    HopfData,
    build_hopf,
    check_antipode,
    check_coassoc,
    check_counit,
    check_homomorphism,
    loop_hopf_limit,
)
from loopdeform.presentations import (
    build_yangian_sl2,
    compare_presentations,
    get_presentation,
    loop_shift_coefficient,
    specialize,
    translate,
)
from loopdeform.ratfunc import rf
from loopdeform.repn import default_reps, evaluate_tensor, solve_eval_correction
from loopdeform.rmatrix import build_r, cybe_residual, wedge
from loopdeform.twist import (
    check_cocycle,
    check_twisted_antipode,
    check_twisted_coassoc,
    first_order_antisymmetry,
    twisted_antipode,
    twisted_coproduct,
)

CORE_ALGEBRAS = ("uq-sl2", "uq-sl3", "drinfeldian-sl2", "drinfeldian-sl3",
                 "yangian-sl2")
ALL_ALGEBRAS = CORE_ALGEBRAS + ("twisted-yangian-sl2",)
TIME_BUDGET_S = 60.0


@contextmanager
def gate(number, summary):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < TIME_BUDGET_S, (
        "criterion %d exceeded the %ds budget: %.1fs"
        % (number, TIME_BUDGET_S, elapsed))
    print("ACCEPTANCE %d/11 pass (%.2fs) -- %s" % (number, elapsed, summary))


@pytest.fixture(scope="module")
def dr2():
    return get_presentation("drinfeldian-sl2")


@pytest.fixture(scope="module")
def yang():
    return build_yangian_sl2()


@pytest.fixture(scope="module")
def yang_hopf(yang):
    return build_hopf(yang)


def test_criterion_01_presentation_self_consistency():
    with gate(1, "every relation of all five algebras reduces to exact zero"):
        for name in CORE_ALGEBRAS:
            p = get_presentation(name)
            reps = None
            for rel in p.relations:
                z = rel.zero_form(p.alphabet)
                nf = p.normal_form(z)
                if nf.is_zero():
                    continue
                # only the rank-2 two-parameter algebra may stay open, and
                # then only with at least two independent zero witnesses
                assert name == "drinfeldian-sl3", (
                    "%s relation %s left residual %s" % (name, rel.label, nf))
                if reps is None:
                    reps = default_reps(p)
                zero_witnesses = sum(
                    1 for r in reps if r.evaluate(z).is_zero())
                assert zero_witnesses >= 2, (
                    "%s unresolved with %d zero witnesses"
                    % (rel.label, zero_witnesses))


def test_criterion_02_nonsingular_coefficients_at_q_one(dr2):
    with gate(2, "deformation coefficients of the two-parameter sl2 algebra "
                 "admit the q->1 limit"):
        # every relation the two-parameter construction adds on top of the
        # one-parameter backbone is coefficientwise finite at q=1, with the
        # shift coefficient expanded as eta/(q - q^-1)
        saw_expanded_shift = set()
        for rel in dr2.relations:
            if rel.label.startswith("cross:"):
                continue
            for c in rel.repl.terms.values():
                c.eval_var("q", 1)  # PoleError here fails the criterion
                if c.var_degree_range("eta") == (1, 1):
                    saw_expanded_shift.add(rel.label)
        # non-vacuity: each mixed relation really carries expanded
        # eta-corrections that went through the limit
        mixed = {r.label for r in dr2.relations if r.label.startswith("loop-")}
        assert mixed and mixed <= saw_expanded_shift
        # the shift coefficient itself is singular alone ...
        with pytest.raises(PoleError):
            loop_shift_coefficient().eval_var("q", 1)
        # ... and so is the inherited one-parameter backbone, whose q->1
        # limit is structural (letter expansion), not coefficientwise
        cross = dr2.relation("cross:e+a1,e-a1")
        with pytest.raises(PoleError):
            for c in cross.repl.terms.values():
                c.eval_var("q", 1)
        specialize(dr2, {"kdelta": 1, "q": 1})  # the structural path exists
        # the loop generator's coproduct/antipode right sides are jointly
        # finite at q=1 even though single terms are not
        loop_hopf_limit(build_hopf(dr2))


def test_criterion_03_q_one_degeneration_is_the_eta_algebra(dr2, yang):
    with gate(3, "q->1, central letter -> 1 degeneration mutually matches "
                 "the directly-built eta-deformation"):
        sp = specialize(dr2, {"kdelta": 1, "q": 1})
        rows = compare_presentations(sp, yang, reps2=default_reps(yang))
        assert rows
        forward = [r for r in rows if r[0] == "forward"]
        backward = [r for r in rows if r[0] == "backward"]
        assert len(forward) == len(sp.relations)
        assert len(backward) == len(yang.relations)
        bad = [(d, l, v) for d, l, v, _ in rows if v != "zero"]
        assert not bad, bad


def test_criterion_04_eta_zero_kills_the_corrections(dr2):
    with gate(4, "at eta=0 every mixed-relation deformation correction "
                 "vanishes identically"):
        d0 = specialize(dr2, {"eta": 0})
        mixed = [r for r in dr2.relations if r.label.startswith("loop-")]
        assert mixed
        for rel in mixed:
            undeformed = {w: c for w, c in rel.repl.terms.items()
                          if c.var_degree_range("eta") == (0, 0)}
            correction = {w: c for w, c in rel.repl.terms.items()
                          if c.var_degree_range("eta") != (0, 0)}
            assert correction, "relation %s has no correction" % rel.label
            for c in correction.values():
                assert c.eval_var("eta", 0).is_zero()
            spec = d0.relation(rel.label).repl
            assert spec == NCPoly(dr2.alphabet, undeformed)
            for c in spec.terms.values():
                assert c.var_degree_range("eta") == (0, 0)


def test_criterion_05_hopf_axioms_on_every_generator():
    with gate(5, "coassociativity, counit and antipode axioms exact on every "
                 "generator of the three shipped Hopf structures"):
        for name in ("uq-sl2", "drinfeldian-sl2", "yangian-sl2"):
            p = get_presentation(name)
            H = build_hopf(p)
            gens = {s.name for s in p.alphabet.symbols}
            for fn in (check_coassoc, check_counit, check_antipode):
                rows = fn(H)
                assert {l for l, _, _ in rows} == gens
                bad = [(l, v, d) for l, v, d in rows if v != "zero"]
                assert not bad, (name, fn.__name__, bad)


def test_criterion_06_coproduct_is_a_homomorphism_and_mutations_fail(
        dr2, yang, yang_hopf):
    with gate(6, "coproducts respect all relations (rewriting + 2-dim "
                 "evaluation); both seeded sign flips are detected"):
        d2_hopf = build_hopf(dr2)
        for p, H in ((yang, yang_hopf), (dr2, d2_hopf)):
            reps = default_reps(p)
            two_dim = reps[0]
            assert len(two_dim.images[next(iter(two_dim.images))].rows) == 2
            rows = check_homomorphism(H, reps=reps)
            assert len(rows) == len(p.relations)
            assert all(v == "zero" for _, v, _ in rows), rows
            # independent second route: evaluate in the 2-dim tensor square
            for rel in p.relations:
                dz = H.coproduct(rel.zero_form(p.alphabet))
                assert evaluate_tensor(dz, [two_dim, two_dim]).is_zero()

        # mutation 1: flipped sign on the eta-pairing term of the loop
        # generator's undeformed coproduct
        xi, f, h = yang.gen("xi"), yang.gen("e-a1"), yang.gen("ha1")
        one = yang.unit()
        delta = dict(yang_hopf.delta)
        delta["xi"] = (tensor(xi, one) + tensor(one, xi)
                       - tensor(f, h).scale(rf("eta")))
        mutated = HopfData(yang, delta, yang_hopf.epsilon, yang_hopf.antipode)
        verdicts = {l: v for l, v, _ in
                    check_homomorphism(mutated, reps=default_reps(yang))}
        assert "nonzero" in verdicts.values()
        assert verdicts["loop-comm:e-a1"] == "nonzero"

        # mutation 2: flipped sign on the shift-coefficient correction of
        # the loop generator's deformed coproduct
        xi, f, k = dr2.gen("xi"), dr2.gen("e-a1"), dr2.gen("k+a1")
        one = dr2.unit()
        a = loop_shift_coefficient()
        kinv = dr2.normal_form(dr2.gen("kd-") * k)
        s = dr2.normal_form(f * k)
        ds = tensor(s, k * k) + tensor(k, s)
        delta = dict(d2_hopf.delta)
        delta["xi"] = dr2.normal_form_tensor(
            tensor(xi, one) + tensor(kinv, xi)
            - (ds - tensor(s, one) - tensor(kinv, s)).scale(a))
        mutated = HopfData(dr2, delta, d2_hopf.epsilon, d2_hopf.antipode)
        verdicts = {l: v for l, v, _ in
                    check_homomorphism(mutated, reps=default_reps(dr2))}
        assert "nonzero" in verdicts.values()
        assert verdicts["loop-comm:e-a1"] == "nonzero"


def test_criterion_07_loop_hopf_maps_degenerate_exactly(dr2, yang, yang_hopf):
    with gate(7, "q->1 limit of the loop generator's coproduct and antipode "
                 "equals the eta-deformation's maps exactly"):
        dlim, slim = loop_hopf_limit(build_hopf(dr2), yang)
        assert (dlim - yang_hopf.delta["xi"]).is_zero()
        assert (slim - yang_hopf.antipode["xi"]).is_zero()


def test_criterion_08_evaluation_representation_solves(yang):
    with gate(8, "evaluation correction solves for spins 1/2, 1, 3/2 and "
                 "kills every relation with symbolic v, eta"):
        for j in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            rep = solve_eval_correction(j, yang)
            xi_img = rep.images["xi"]
            entries = [c for _, _, c in xi_img.nonzero_entries()]
            assert any(c.var_degree_range("v") != (0, 0) for c in entries)
            if j != Fraction(1, 2):
                # the correction is genuinely eta-dependent beyond the
                # 2-dim case, where it cancels identically
                assert any(c.var_degree_range("eta") != (0, 0)
                           for c in entries)
            for rel in yang.relations:
                m = rep.evaluate(rel.zero_form(yang.alphabet))
                assert m.is_zero(), (j, rel.label)


def test_criterion_09_twist_suite_order_three(yang, yang_hopf):
    with gate(9, "order-3 twist: cocycle, twisted coassociativity and "
                 "antipode all vanish; zeta=0 reproduces untwisted maps "
                 "byte-for-byte"):
        rows = check_cocycle(3, p=yang)
        assert [l for l, _, _ in rows] == [
            "order-0", "order-1", "order-2", "order-3", "eval-2dim-cube"]
        assert all(v == "zero" for _, v, _ in rows), rows

        rows = check_twisted_coassoc(yang_hopf, 3)
        assert {l for l, _, _ in rows} == set(yang_hopf.delta)
        assert all(v == "zero" for _, v, _ in rows), rows

        rows = check_twisted_antipode(yang_hopf, 3)
        assert len(rows) == 2 * len(yang_hopf.delta)
        assert all(v == "zero" for _, v, _ in rows), rows

        for name in yang_hopf.delta:
            x = yang.gen(name)
            d = twisted_coproduct(x, yang_hopf, 3)
            assert str(d[0]) == str(
                yang.normal_form_tensor(yang_hopf.coproduct(x)))
            s = twisted_antipode(x, yang_hopf, 3)
            assert str(s[0]) == str(
                yang.normal_form(yang_hopf.antipode_of(x)))


def test_criterion_10_classical_r_matrices(yang):
    with gate(10, "rational, jordanian and mixed r-matrices solve the "
                  "classical Yang-Baxter equation; the twist's first order "
                  "is the jordanian wedge"):
        for kind in ("rational", "jordanian", "twisted_yangian"):
            residual = cybe_residual(build_r(kind))
            assert len(residual.rows) == 8
            assert all(len(row) == 8 for row in residual.rows)
            assert residual.is_zero(), kind
        expected = translate(wedge("h", "f").scale(rf("zeta")),
                             yang.alphabet)
        got = first_order_antisymmetry(yang)
        assert (got - expected).is_zero()
        assert str(got) == str(expected)


def _random_elements(p, count, rng):
    """Degree <= 4 elements: noise plus scaled/translated relation combos."""
    A = p.alphabet
    names = [s.name for s in A.symbols]
    small = [r for r in p.relations
             if max((len(w) for w in r.zero_form(A).terms), default=0) <= 4]
    out = []
    while len(out) < count:
        if rng.random() < 0.5 and small:
            z = rng.choice(small).zero_form(A)
            x = z.scale(rf(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                    rng.choice([1, 2, 3]))))
            deg = max((len(w) for w in x.terms), default=0)
            if deg <= 3 and rng.random() < 0.5:
                g = NCPoly.gen(A, rng.choice(names))
                x = g * x if rng.random() < 0.5 else x * g
            if rng.random() < 0.3:
                x = x + rng.choice(small).zero_form(A).scale(
                    rf(rng.choice([-2, -1, 1, 2])))
        else:
            x = NCPoly.zero(A)
            for _ in range(rng.randint(1, 3)):
                w = [rng.choice(names) for _ in range(rng.randint(0, 4))]
                x = x + NCPoly.word(A, w).scale(
                    rf(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                rng.choice([1, 2, 3]))))
        if max((len(w) for w in x.terms), default=0) <= 4:
            out.append(x)
    return out


def test_criterion_11_rewriting_soundness_in_representations():
    with gate(11, "100 random degree<=4 elements per algebra: a zero "
                  "rewriting verdict is zero in every shipped "
                  "representation"):
        rng = random.Random(20260815)
        for name in ALL_ALGEBRAS:
            p = get_presentation(name)
            reps = default_reps(p)
            assert reps
            proven_zero = 0
            for x in _random_elements(p, 100, rng):
                if p.is_zero_mod(x, reps=reps) != "zero":
                    continue
                proven_zero += 1
                for r in reps:
                    assert r.evaluate(x).is_zero(), (name, r.label, str(x))
            # non-vacuity: the sample must actually exercise zero verdicts
            assert proven_zero >= 10, (name, proven_zero)
