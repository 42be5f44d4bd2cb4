"""Tests for presentations: construction pipeline, rewriting, limits.

The mixed-relation coefficients below are [frozen] outputs of the exact
construction pipeline, cross-checked by hand two independent ways: the
eta-correction of the loop commutation rule was expanded manually from the
dressed shift (a * (1 - q^-2) = eta/q), and every stored rule's q -> 1 limit
was matched against the directly-built degenerate algebra whose right-hand
sides (eta f^2, 6 eta e^2, 6 eta xi^2) were derived on paper.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdeform import presentations
from loopdeform.errors import (
    DegreeBoundExceeded,
    InvalidCartanError,
    PoleError,
    UnsupportedAlgebraError,
)
from loopdeform.freealg import (
    NCPoly,
    TensorPoly,
    ad_q_power,
    commutator,
    q_commutator,
    tensor,
)
from loopdeform.hopf import build_hopf
from loopdeform.presentations import (
    ALGEBRA_BUILDERS,
    Q1_LIMITS,
    CartanData,
    Presentation,
    Relation,
    affine,
    alphabet,
    build_classical_sl2,
    build_drinfeldian,
    build_twisted_yangian_sl2,
    build_uq,
    build_yangian_sl2,
    cartan_data,
    check_row,
    compare_presentations,
    get_presentation,
    loop_shift_coefficient,
    lower_root_vector,
    rewrite_row,
    shifted_loop_generator,
    specialize,
    translate,
)
from loopdeform.ratfunc import RatFunc, q_power, rf
from loopdeform.serial import dump_presentation, load_presentation


@pytest.fixture(scope="module")
def uq2():
    return build_uq("sl2")


@pytest.fixture(scope="module")
def uq3():
    return build_uq("sl3")


@pytest.fixture(scope="module")
def dr2():
    return build_drinfeldian("sl2")


@pytest.fixture(scope="module")
def dr3():
    return build_drinfeldian("sl3")


@pytest.fixture(scope="module")
def yg():
    return build_yangian_sl2()


# ---------------------------------------------------------------------------
# Cartan data
# ---------------------------------------------------------------------------


def test_cartan_presets():
    c2, c3 = cartan_data("sl2"), cartan_data("sl3")
    assert c2.rank == 1 and c3.rank == 2
    assert c2.pairing_matrix == ((2,),)
    assert c3.pairing_matrix == ((2, -1), (-1, 2))
    # the affine extension: index 0 is alpha_0 = delta - theta, and
    # 1 - a_i0 and 1 - a_0i are the bracket orders annihilating across the
    # loop direction
    a1 = affine(c2)
    assert a1.matrix == ((2, -2), (-2, 2))
    assert a1.labels == ("a0", "a1") and a1.symmetrizers == (1, 1)
    a2 = affine(c3)
    assert a2.matrix == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    assert a2.highest_root == (0, 0, 0)
    # B2, theta = alpha_1 + 2 alpha_2: alpha_0 is orthogonal to alpha_1
    b2 = CartanData("B2", ((2, -1), (-2, 2)), (2, 1), ("a1", "a2"), (1, 2))
    b2_aff = affine(b2)
    assert b2_aff.matrix == ((2, 0, -1), (0, 2, -1), (-2, -2, 2))
    assert b2_aff.symmetrizers == (2, 2, 1)
    assert b2_aff.pairing_matrix == ((4, 0, -2), (0, 4, -2), (-2, -2, 2))


def test_cartan_validation():
    fields = ("name", "matrix", "symmetrizers", "labels", "highest_root")
    for args in [("bad", ((2, -1), (-3, 2)), (1, 1), ("a1", "a2"), (1, 1)),
                 ("bad", ((1,),), (1,), ("a1",), (1,)),
                 ("bad", ((2, 1), (1, 2)), (1, 1), ("a1", "a2"), (1, 1))]:
        with pytest.raises(InvalidCartanError):
            CartanData(*args)
        with pytest.raises(InvalidCartanError):
            CartanData(**dict(zip(fields, args)))
    with pytest.raises(UnsupportedAlgebraError):
        cartan_data("e8")


def test_cartan_data_is_an_immutable_record():
    c2 = cartan_data("sl2")
    same = CartanData(name="sl2", matrix=((2,),), symmetrizers=(1,),
                      labels=("a1",), highest_root=(1,))
    assert c2 == same and hash(c2) == hash(same)
    assert c2 != cartan_data("sl3")
    for field in ("name", "matrix", "symmetrizers", "labels", "highest_root"):
        with pytest.raises(AttributeError):
            setattr(c2, field, None)


# ---------------------------------------------------------------------------
# quantum-group presentations
# ---------------------------------------------------------------------------


def test_uq_sl2_relation_inventory(uq2):
    assert len(uq2.relations) == 6
    labels = sorted(r.label for r in uq2.relations)
    assert labels == ["conj:k+a1,e+a1", "conj:k+a1,e-a1", "conj:k-a1,e+a1",
                      "conj:k-a1,e-a1", "cross:e+a1,e-a1", "kk:k-a1,k+a1"]


def test_uq_cartan_cross_relation(uq2):
    A = uq2.alphabet
    r = uq2.relation("cross:e+a1,e-a1")
    qq = rf("q") - q_power(-1)
    assert r.repl.coeff(A.parse_word("e-a1.e+a1")) == rf(1)
    assert r.repl.coeff(A.parse_word("k+a1")) == rf(1) / qq
    assert r.repl.coeff(A.parse_word("k-a1")) == -rf(1) / qq


def test_uq_conjugation_exponents(uq2):
    # k x k^-1 = q^c x: the rule k x -> q^c x k carries the exponent c
    A = uq2.alphabet
    for k, x, c in (("k+a1", "e+a1", 2), ("k-a1", "e+a1", -2),
                    ("k+a1", "e-a1", -2)):
        r = uq2.relation("conj:%s,%s" % (k, x))
        assert r.repl == NCPoly(A, {A.parse_word("%s.%s" % (x, k)): q_power(c)})


def test_uq_sl3_serre_rule(uq3):
    A = uq3.alphabet
    r = uq3.relation("serre:e+a1,e+a2")
    assert A.word_str(r.lead) == "e+a2.e+a1.e+a1"
    assert r.repl.coeff(A.parse_word("e+a1.e+a2.e+a1")) == rf("q") + q_power(-1)
    assert r.repl.coeff(A.parse_word("e+a1.e+a1.e+a2")) == rf(-1)
    assert len(uq3.relations) == 30


def test_orthogonal_simple_roots_get_a_commuting_serre_rule(monkeypatch):
    # A3 = sl4: a_13 = a_31 = 0, so e_1 and e_3 commute (Serre order 1)
    a3 = CartanData(
        "sl4", ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1, 1, 1),
        ("a1", "a2", "a3"), (1, 1, 1))
    monkeypatch.setitem(presentations._PRESETS, "sl4", a3)
    p = build_uq("sl4")
    for sign in "+-":
        x, y = p.gen("e%sa1" % sign), p.gen("e%sa3" % sign)
        rule = p.relation("serre:e%sa1,e%sa3" % (sign, sign))
        assert len(rule.lead) == 1 + 1
        assert rule.zero_form(p.alphabet) in (commutator(x, y),
                                              commutator(y, x))
        assert p.normal_form(commutator(x, y)).is_zero()
        assert p.is_zero_mod(commutator(x, y)) == "zero"


def test_cartan_cross_commutator_is_zero_mod(uq2):
    e, f, k, ki = (uq2.gen(n) for n in ("e+a1", "e-a1", "k+a1", "k-a1"))
    c = (k - ki) * (rf(1) / (rf("q") - q_power(-1)))
    assert uq2.is_zero_mod(commutator(e, f) - c) == "zero"
    # without a representation witness a nonzero normal form stays tentative
    assert uq2.is_zero_mod(commutator(e, f)) == "unknown"


def test_normal_form_orders_group_like_letters(uq3):
    A = uq3.alphabet
    x = NCPoly.word(A, ["k+a2", "k-a1"])
    nf = uq3.normal_form(x)
    # each letter sorts next to its inverse so cancellation can always fire
    assert list(nf.terms) == [A.parse_word("k-a1.k+a2")]
    assert uq3.normal_form(NCPoly.word(A, ["k+a2", "k+a1", "k-a2"])) == uq3.gen("k+a1")
    # reversed inverse pair collapses to the unit
    y = NCPoly.word(A, ["k-a1", "e+a1", "k+a1"])
    assert uq3.normal_form(y) == q_power(-2) * uq3.gen("e+a1")


# ---------------------------------------------------------------------------
# the two-parameter presentations
# ---------------------------------------------------------------------------


def test_shift_coefficient():
    a = loop_shift_coefficient()
    assert a == rf("eta") * rf("q") / (rf("q") ** 2 - 1)
    assert a * (1 - q_power(-2)) == rf("eta") / rf("q")


def test_shifted_loop_generator_is_weight_homogeneous(dr2, dr3):
    assert shifted_loop_generator(dr2).weight() == (-1,)
    assert shifted_loop_generator(dr3).weight() == (-1, -1)


def test_shifted_loop_generator_reads_the_stored_shift(dr2):
    p = build_drinfeldian("sl2")
    p.shift_element = p.gen("e-a1")
    a = loop_shift_coefficient()
    assert shifted_loop_generator(p) == p.gen("xi") - a * p.gen("e-a1")
    # without eta the coefficient a is 0
    flat = specialize(dr2, {"eta": 0})
    assert flat.shift_element is not None
    assert shifted_loop_generator(flat) == flat.gen("xi")
    with pytest.raises(UnsupportedAlgebraError, match="no shift element"):
        shifted_loop_generator(build_yangian_sl2())


def _uq_over(cd):
    return Presentation("uq-%s" % cd.name, "uq", cd, alphabet(cd, "uq"),
                        params=("q",))


def test_shift_element_is_the_highest_root_chain(dr2, dr3):
    f, k = dr2.gen("e-a1"), dr2.gen("k+a1")
    assert dr2.shift_element == f * k
    f1, f2, k1, k2 = (dr3.gen(n) for n in ("e-a1", "e-a2", "k+a1", "k+a2"))
    assert dr3.shift_element == q_commutator(f1, f2) * k1 * k2
    # theta = alpha_1 + 2 alpha_2 on B2: the chain takes a2 twice
    b2 = _uq_over(CartanData("B2", ((2, -1), (-2, 2)), (2, 1), ("a1", "a2"),
                             (1, 2)))
    f1, f2, k1, k2 = (b2.gen(n) for n in ("e-a1", "e-a2", "k+a1", "k+a2"))
    s = lower_root_vector(b2)
    assert s.weight() == (-1, -2)
    assert s == q_commutator(q_commutator(f1, f2), f2) * k1 * k2 * k2
    sl4 = _uq_over(CartanData("sl4", ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
                              (1, 1, 1), ("a1", "a2", "a3"), (1, 1, 1)))
    f1, f2, f3 = (sl4.gen("e-a%d" % i) for i in (1, 2, 3))
    k1, k2, k3 = (sl4.gen("k+a%d" % i) for i in (1, 2, 3))
    s = lower_root_vector(sl4)
    assert s.weight() == (-1, -1, -1)
    assert s == q_commutator(q_commutator(f1, f2), f3) * k1 * k2 * k3


def test_ef_rules_divide_by_q_i_minus_its_inverse():
    # [e_i, f_i] = (k_i - k_i^-1) / (q_i - q_i^-1) with q_i = q^d_i.  With
    # k_i = q^h_i, h_i is d_i times the coroot (the conjugation limit reads
    # [h_a1, e+a2] = -2 e+a2 on B2), so the q -> 1 limit is h_i / d_i
    b2 = CartanData("B2", ((2, -1), (-2, 2)), (2, 1), ("a1", "a2"), (1, 2))
    p = _uq_over(b2)
    A = p.alphabet
    presentations._install_k_rules(
        p, [s.name for s in A.symbols if s.name.startswith("k")],
        [s.name for s in A.symbols if s.name.startswith("e")])
    presentations._install_ef_rules(p)
    presentations._install_serre_rules(p)
    lim = presentations._structural_q1_limit(p)
    assert lim.relation("conj:ha1,e+a2").repl == (
        lim.gen("e+a2") * lim.gen("ha1") - lim.gen("e+a2").scale(rf(2)))
    for label, d in zip(b2.labels, b2.symmetrizers):
        rel = lim.relation("cross:e+%s,e-%s" % (label, label))
        assert rel.repl == (lim.gen("e-" + label) * lim.gen("e+" + label)
                            + lim.gen("h" + label).scale(rf(1) / d))


@pytest.mark.parametrize("cd, chain", [
    # C2 labelled short root first: theta = 2 alpha_1 + alpha_2
    (CartanData("C2", ((2, -2), (-1, 2)), (1, 2), ("a1", "a2"), (2, 1)),
     "a1 a2 a1"),
    (CartanData("G2", ((2, -1), (-3, 2)), (3, 1), ("a1", "a2"), (2, 3)),
     "a1 a2 a2 a2 a1"),
], ids=["C2", "G2"])
def test_shift_element_chain_follows_the_roots(cd, chain):
    # in label order the chain would open with [f_1, f_1]_q, which is
    # (1 - q^(2 d_1)) f_1^2 and vanishes at q = 1
    p = _uq_over(cd)
    s = lower_root_vector(p)
    assert s.weight() == tuple(-t for t in cd.highest_root)
    assert any(not c.eval_var("q", 1).is_zero() for c in s.terms.values())
    labels = chain.split()
    want = p.gen("e-" + labels[0])
    for label in labels[1:]:
        want = q_commutator(want, p.gen("e-" + label))
    for label, t in zip(cd.labels, cd.highest_root):
        for _ in range(t):
            want = want * p.gen("k+" + label)
    assert s == want


def test_drinfeldian_sl2_loop_comm_rule(dr2):
    A = dr2.alphabet
    r = dr2.relation("loop-comm:e-a1")
    assert A.word_str(r.lead) == "xi.e-a1"
    assert r.repl.coeff(A.parse_word("e-a1.xi")) == rf(1)
    assert r.repl.coeff(A.parse_word("e-a1.e-a1.k+a1")) == -rf("eta") / rf("q")
    assert len(r.repl.terms) == 2


def test_drinfeldian_sl2_loop_serre_e_rule(dr2):
    A = dr2.alphabet
    r = dr2.relation("loop-serre-e:e+a1")
    three = rf("q") ** 2 + 1 + q_power(-2)
    assert A.word_str(r.lead) == "xi.e+a1.e+a1.e+a1"
    assert r.repl.coeff(A.parse_word("e+a1.e+a1.e+a1.xi")) == rf(1)
    assert r.repl.coeff(A.parse_word("e+a1.e+a1.xi.e+a1")) == -three
    assert r.repl.coeff(A.parse_word("e+a1.xi.e+a1.e+a1")) == three
    corr = r.repl.coeff(A.parse_word("e+a1.e+a1.k+a1.k+a1"))
    assert corr == -rf("eta") * rf("q^8 + 2*q^6 + 2*q^4 + q^2")
    assert corr.eval_var("q", 1) == rf(-6) * rf("eta")
    assert len(r.repl.terms) == 4


def test_drinfeldian_sl2_loop_serre_xi_rule(dr2):
    A = dr2.alphabet
    r = dr2.relation("loop-serre-xi:e+a1")
    three = rf("q") ** 2 + 1 + q_power(-2)
    assert A.word_str(r.lead) == "xi.xi.xi.e+a1"
    assert r.repl.coeff(A.parse_word("e+a1.xi.xi.xi")) == rf(1)
    assert r.repl.coeff(A.parse_word("xi.e+a1.xi.xi")) == -three
    assert r.repl.coeff(A.parse_word("xi.xi.e+a1.xi")) == three
    corr = r.repl.coeff(A.parse_word("xi.xi.k+a1.k+a1"))
    assert corr == -rf("eta") * rf("(q^6 + 2*q^4 + 2*q^2 + 1)/q^6")
    assert corr.eval_var("q", 1) == rf(-6) * rf("eta")


def test_drinfeldian_coefficients_are_regular_at_one(dr2):
    # the deformation-added rules may keep no pole at q = 1: the construction
    # order (reduce, then orient) is what guarantees this.  The rank-1 raising/
    # lowering cross rule is the one backbone relation whose coefficient
    # (k - k^-1)/(q - q^-1) has no coefficientwise limit; its degeneration is
    # structural (k = q^h), exercised by the specialize tests below.
    for rel in dr2.relations:
        if rel.label.startswith("cross:"):
            continue
        for w, c in rel.repl.terms.items():
            c.eval_var("q", 1)  # must not raise


def test_drinfeldian_sl3_loop_comm_rules(dr3):
    A = dr3.alphabet
    r1 = dr3.relation("loop-comm:e-a1")
    assert r1.repl.coeff(A.parse_word("e-a1.xi")) == rf(1)
    assert r1.repl.coeff(A.parse_word("e-a1.e-a1.e-a2.k+a1.k+a2")) == -rf("eta") / rf("q")
    assert r1.repl.coeff(A.parse_word("e-a1.e-a2.e-a1.k+a1.k+a2")) == rf("eta") * q_power(-2)
    # the second lowering generator commutes with the loop generator exactly
    r2 = dr3.relation("loop-comm:e-a2")
    assert r2.repl == NCPoly.word(A, ["e-a2", "xi"])


def test_drinfeldian_sl3_loop_serre_rules(dr3):
    A = dr3.alphabet
    two = rf("q") + q_power(-1)
    r = dr3.relation("loop-serre-e:e+a1")
    assert A.word_str(r.lead) == "xi.e+a1.e+a1"
    assert r.repl.coeff(A.parse_word("e+a1.xi.e+a1")) == two
    assert r.repl.coeff(A.parse_word("e+a1.e+a1.xi")) == rf(-1)
    corr = r.repl.coeff(A.parse_word("e-a2.e+a1.k+a1.k+a1.k+a2"))
    assert corr == -rf("eta") * (rf("q") ** 3 + rf("q"))
    assert corr.eval_var("q", 1) == -2 * rf("eta")
    # the mirror rule on the second node carries no correction at all
    r2 = dr3.relation("loop-serre-e:e+a2")
    assert set(r2.repl.terms) == {
        A.parse_word("e+a2.e+a2.xi"),
        A.parse_word("e+a2.xi.e+a2"),
    }
    # each loop Serre rule's lead is one word of its zero form ad^n, of
    # length 1 + n with the order n read from the affine Cartan matrix
    aff = affine(dr3.cartan).matrix
    for i, label in enumerate(dr3.cartan.labels):
        on_e = dr3.relation("loop-serre-e:e+%s" % label)
        on_xi = dr3.relation("loop-serre-xi:e+%s" % label)
        assert len(on_e.lead) == 1 + (1 - aff[i + 1][0])
        assert len(on_xi.lead) == 1 + (1 - aff[0][i + 1])
    for rel in dr3.relations:
        if rel.label.startswith("cross:"):
            continue
        for w, c in rel.repl.terms.items():
            c.eval_var("q", 1)


class _Bound16(Presentation):
    """A Presentation under degree bound 16: B2 and sl4 need more than the
    default to reduce their loop Serre brackets."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.degree_bound = 16


@pytest.mark.parametrize("cd", [
    cartan_data("sl2"), cartan_data("sl3"),
    CartanData("B2", ((2, -1), (-2, 2)), (2, 1), ("a1", "a2"), (1, 2)),
    CartanData("sl4", ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1, 1, 1),
               ("a1", "a2", "a3"), (1, 1, 1)),
], ids=lambda cd: cd.name)
def test_loop_serre_rules_match_the_expanded_brackets(monkeypatch, cd):
    """build_drinfeldian reduces each q-bracket of a loop Serre rule as it
    is formed; the rule it installs is the one the fully expanded
    ad_q_power gives against the rules installed before it, and none is
    installed where that reduces to zero."""
    monkeypatch.setitem(presentations._PRESETS, cd.name, cd)
    monkeypatch.setattr(presentations, "Presentation", _Bound16)
    p = build_drinfeldian(cd.name)
    xt = shifted_loop_generator(p)
    aff = affine(cd).matrix
    # the loop Serre rules come last
    k = sum(not rel.label.startswith("loop-serre-") for rel in p.relations)
    implied = []
    for kind in ("e", "xi"):
        for i, label in enumerate(cd.labels, 1):
            e = p.gen("e+" + label)
            z = (ad_q_power(e, xt, 1 - aff[i][0]) if kind == "e"
                 else ad_q_power(xt, e, 1 - aff[0][i]))
            before = _Bound16(p.name, p.family, cd, p.alphabet,
                              params=p.params)
            before.relations = p.relations[:k]
            rel = before.add_rule_from_zero_form(
                z, "loop-serre-%s:e+%s" % (kind, label))
            if rel is None:
                implied.append((kind, label))
                continue
            installed = p.relations[k]
            assert (installed.label, installed.lead, installed.repl) == (
                rel.label, rel.lead, rel.repl)
            k += 1
    assert k == len(p.relations)
    # where alpha_0 is orthogonal to alpha_i (on B2 and sl4), both loop
    # Serre rules of e_i say that it commutes with xt, and the second is
    # implied by the first
    assert implied == [("xi", label) for i, label in enumerate(cd.labels, 1)
                       if aff[0][i] == 0]
    assert len(implied) == (cd.name in ("B2", "sl4"))


def test_self_reduction_everywhere():
    for name in ("uq-sl2", "uq-sl3", "drinfeldian-sl2", "drinfeldian-sl3",
                 "yangian-sl2", "twisted-yangian-sl2"):
        p = get_presentation(name)
        for rel in p.relations:
            residual = p.normal_form(rel.zero_form(p.alphabet))
            assert residual.is_zero(), (name, rel.label, str(residual))


def test_registry_rejects_unknown():
    with pytest.raises(UnsupportedAlgebraError):
        get_presentation("uq-e8")


# ---------------------------------------------------------------------------
# degenerations
# ---------------------------------------------------------------------------


def test_yangian_rules_frozen(yg):
    A = yg.alphabet
    eta = rf("eta")
    r = yg.relation("cross:e+a1,e-a1")
    assert r.repl == NCPoly.word(A, ["e-a1", "e+a1"]) + yg.gen("ha1")
    r = yg.relation("loop-comm:e-a1")
    assert r.repl == NCPoly.word(A, ["e-a1", "xi"]) - eta * NCPoly.word(A, ["e-a1", "e-a1"])
    r = yg.relation("loop-serre-e:e+a1")
    e, xi_ = yg.gen("e+a1"), yg.gen("xi")
    assert r.repl == (
        e * e * e * xi_ - 3 * (e * e * xi_ * e) + 3 * (e * xi_ * e * e)
        - 6 * eta * e * e
    )
    r = yg.relation("loop-serre-xi:e+a1")
    assert r.repl == (
        e * xi_ ** 3 - 3 * (xi_ * e * xi_ * xi_) + 3 * (xi_ * xi_ * e * xi_)
        - 6 * eta * xi_ * xi_
    )


def test_limit_reproduces_degenerate_presentation(dr2, yg):
    lim = specialize(dr2, {"kdelta": 1, "q": 1})
    assert lim.family == "yangian"
    assert lim.alphabet == yg.alphabet
    results = compare_presentations(lim, yg)
    assert results and all(v == "zero" and e is None
                           for _, _, v, e in results)
    # the limit is the hand-written presentation, rule for rule, byte for
    # byte, apart from the name line
    got = dump_presentation(lim).splitlines()
    want = dump_presentation(yg).splitlines()
    assert got[0].startswith("presentation ") and got[0] != want[0]
    assert got[1:] == want[1:]


def test_dropping_the_central_letter_sums_terms_that_meet():
    # e+a1 kd+ and e+a1 share a word once kd+ -> 1, so their coefficients
    # add up: 1 + 2 = 3
    p = build_drinfeldian("sl2")
    A = p.alphabet
    e = NCPoly.word(A, ["e+a1"])
    p.add_rule("probe", (A.id_of("xi"),) * 5,
               NCPoly.word(A, ["e+a1", "kd+"]) + e.scale(rf(2)))
    sp = specialize(p, {"kdelta": 1})
    e = NCPoly.word(sp.alphabet, ["e+a1"])
    assert sp.relation("probe").repl == e.scale(rf(3))


def test_q1_limits_name_shipped_algebras():
    assert Q1_LIMITS
    for source, target in Q1_LIMITS.items():
        assert source in ALGEBRA_BUILDERS
        assert target in ALGEBRA_BUILDERS


def test_limit_cartan_cross_gives_h(dr2):
    lim = specialize(dr2, {"kdelta": 1, "q": 1})
    A = lim.alphabet
    r = lim.relation("cross:e+a1,e-a1")
    assert r.repl == NCPoly.word(A, ["e-a1", "e+a1"]) + NCPoly.gen(A, "ha1")


def test_uq_limit_pole(uq2):
    with pytest.raises(PoleError):
        specialize(uq2, {"q": 1})


def test_eta_zero_kills_corrections(dr2):
    d0 = specialize(dr2, {"eta": 0})
    A = d0.alphabet
    assert d0.relation("loop-comm:e-a1").repl == NCPoly.word(A, ["e-a1", "xi"])
    r = d0.relation("loop-serre-e:e+a1")
    assert all(A.word_loop_degree(w) == 1 for w in r.repl.terms)


def test_sl3_limit_exists_and_self_reduces(dr3):
    lim = specialize(dr3, {"kdelta": 1, "q": 1})
    assert [s.name for s in lim.alphabet.symbols] == [
        "e-a1", "e-a2", "e+a1", "e+a2", "xi", "ha1", "ha2"]
    for rel in lim.relations:
        residual = lim.normal_form(rel.zero_form(lim.alphabet))
        assert residual.is_zero(), (rel.label, str(residual))
    A = lim.alphabet
    r = lim.relation("loop-comm:e-a1")
    eta = rf("eta")
    assert r.repl == (
        NCPoly.word(A, ["e-a1", "xi"])
        + eta * NCPoly.word(A, ["e-a1", "e-a2", "e-a1"])
        - eta * NCPoly.word(A, ["e-a1", "e-a1", "e-a2"])
    )


def test_specialize_rejects_unsupported():
    with pytest.raises(ValueError):
        specialize(build_yangian_sl2(), {"zeta": 0})
    with pytest.raises(ValueError):
        specialize(build_uq("sl2"), {"q": 2})


def test_twisted_variant_shares_relations(yg):
    t = build_twisted_yangian_sl2()
    assert t.name == "twisted-yangian-sl2"
    assert t.params == ("eta", "zeta")
    assert [r.label for r in t.relations] == [r.label for r in yg.relations]


def test_classical_sl2_presentation():
    p = build_classical_sl2()
    e, f, h = p.gen("e+a1"), p.gen("e-a1"), p.gen("ha1")
    assert p.is_zero_mod(commutator(e, f) - h) == "zero"
    assert p.is_zero_mod(commutator(h, e) - 2 * e) == "zero"
    assert p.is_zero_mod(commutator(h, f) + 2 * f) == "zero"


# ---------------------------------------------------------------------------
# rewriting engine behaviour
# ---------------------------------------------------------------------------


def test_degree_bound_guard(dr2):
    x = dr2.gen("xi") * dr2.gen("e-a1")
    with pytest.raises(DegreeBoundExceeded):
        dr2.normal_form(x, bound=2)  # the eta correction has length 3
    assert dr2.is_zero_mod(x - x) == "zero"
    assert dr2.is_zero_mod(x, bound=2) == "unknown"


def test_normal_form_idempotent_and_linear(dr2):
    x = dr2.gen("xi") * dr2.gen("e-a1") * dr2.gen("e+a1")
    y = dr2.gen("k+a1") * dr2.gen("xi")
    nx, ny = dr2.normal_form(x), dr2.normal_form(y)
    assert dr2.normal_form(nx) == nx
    assert dr2.normal_form(x + y) == nx + ny


def _random_word_strategy(p, max_len=3):
    ids = st.integers(min_value=0, max_value=len(p.alphabet) - 1)
    return st.lists(ids, min_size=0, max_size=max_len).map(tuple)


def test_ideal_membership_sampled():
    # u * (lead - repl) * v must always rewrite to zero: leftmost-highest
    # rewriting is coherent on sampled contexts
    import random

    p = build_drinfeldian("sl2")
    rng = random.Random(77)
    ids = range(len(p.alphabet))
    for _ in range(40):
        rel = p.relations[rng.randrange(len(p.relations))]
        u = tuple(rng.choice(ids) for _ in range(rng.randint(0, 2)))
        v = tuple(rng.choice(ids) for _ in range(rng.randint(0, 2)))
        x = NCPoly(p.alphabet, {u: rf(1)}) * rel.zero_form(p.alphabet) * NCPoly(
            p.alphabet, {v: rf(1)})
        assert p.normal_form(x, bound=14).is_zero(), (
            rel.label, p.alphabet.word_str(u), p.alphabet.word_str(v))


def test_ideal_membership_sampled_yangian():
    import random

    p = build_yangian_sl2()
    rng = random.Random(78)
    ids = range(len(p.alphabet))
    for _ in range(60):
        rel = p.relations[rng.randrange(len(p.relations))]
        u = tuple(rng.choice(ids) for _ in range(rng.randint(0, 2)))
        v = tuple(rng.choice(ids) for _ in range(rng.randint(0, 2)))
        x = NCPoly(p.alphabet, {u: rf(1)}) * rel.zero_form(p.alphabet) * NCPoly(
            p.alphabet, {v: rf(1)})
        assert p.normal_form(x, bound=14).is_zero(), (
            rel.label, p.alphabet.word_str(u), p.alphabet.word_str(v))


# ---------------------------------------------------------------------------
# the rule path: add_rule and the word-normal-form memo
# ---------------------------------------------------------------------------


def test_add_rule_keeps_rewriting_current():
    """A rule added after word normal forms were memoized (as completion
    does) is used by the next rewriting."""
    p = build_classical_sl2()
    f, e, h = p.gen("e-a1"), p.gen("e+a1"), p.gen("ha1")
    fe = (p.alphabet.id_of("e-a1"), p.alphabet.id_of("e+a1"))
    t = tensor(f * e, e) + tensor(h, f * e)
    assert p.normal_form_tensor(t) == t  # f e is irreducible
    assert fe in p._word_memo()
    n = len(p.relations)
    rel = p.add_rule("derived:fe", fe, h.scale(rf(2)))
    assert p.relations[n:] == (rel,)
    assert (rel.label, rel.lead, rel.repl) == ("derived:fe", fe, h.scale(rf(2)))
    want = tensor(h, e).scale(rf(2)) + tensor(h, h).scale(rf(2))
    assert p.normal_form_tensor(t) == want
    assert p.word_normal_form(fe) == h.scale(rf(2))


def test_relations_change_only_by_reassignment_and_every_path_follows():
    """relations is a tuple: it cannot grow or change in place, and a new
    tuple reaches the lead index and the word memo, however warm."""
    p = build_classical_sl2()
    h = p.gen("ha1")
    fe = _fe(p)
    rel = Relation("derived:fe", fe, h.scale(rf(2)))
    with pytest.raises(AttributeError):
        p.relations.append(rel)
    with pytest.raises(TypeError):
        p.relations[0] = rel
    x = NCPoly(p.alphabet, {fe: rf(1)})
    t = tensor(x, x)
    # warm every cache on the word f e, irreducible so far
    assert p._first_occurrence(fe) is None
    assert p.normal_form(x) == x
    assert p.word_normal_form(fe) == x
    assert p.normal_form_tensor(t) == t
    p.relations = p.relations + (rel,)
    assert p._first_occurrence(fe) == (rel, 0)
    assert p.normal_form(x) == h.scale(rf(2))
    assert p.word_normal_form(fe) == h.scale(rf(2))
    assert p.normal_form_tensor(t) == tensor(h, h).scale(rf(4))


def test_equal_letter_sets_share_one_alphabet_object():
    yg = get_presentation("yangian-sl2")
    dr = get_presentation("drinfeldian-sl2")
    assert specialize(dr, {"q": 1, "kdelta": 1}).alphabet is yg.alphabet
    assert build_drinfeldian("sl3").alphabet is build_drinfeldian(
        "sl3").alphabet
    for p in (yg, dr, specialize(dr, {"kdelta": 1})):
        assert load_presentation(dump_presentation(p)).alphabet is p.alphabet
    cd = cartan_data("sl2")
    assert (presentations.alphabet(cd, "yangian")
            is presentations.alphabet(cd, {"e", "xi", "h"}))


def test_word_memo_honours_a_lowered_degree_bound():
    """Memoized word normal forms filled under one degree bound are not
    reused under a smaller one: reducing delta(z) of loop-serre-xi:e+a1
    passes through words of length 4, so bound 3 must raise whether or not
    the memo is warm."""
    p = get_presentation("drinfeldian-sl2")
    dz = build_hopf(p).coproduct(
        p.relation("loop-serre-xi:e+a1").zero_form(p.alphabet))
    assert p.normal_form_tensor(dz).is_zero()
    p.degree_bound = 3
    with pytest.raises(DegreeBoundExceeded,
                       match="word of length 4 exceeds bound 3"):
        p.normal_form_tensor(dz)
    p.degree_bound = 12
    assert p.normal_form_tensor(dz).is_zero()
    # a second live presentation shares the memo p filled under bound 12,
    # and bound 3 still raises there, set or passed
    p2 = get_presentation("drinfeldian-sl2")
    assert p2._word_memo() is p._word_memo()
    dz2 = translate(dz, p2.alphabet)
    with pytest.raises(DegreeBoundExceeded,
                       match="word of length 4 exceeds bound 3"):
        p2.normal_form_tensor(dz2, bound=3)
    p2.degree_bound = 3
    with pytest.raises(DegreeBoundExceeded,
                       match="word of length 4 exceeds bound 3"):
        p2.normal_form_tensor(dz2)
    assert p.normal_form_tensor(dz).is_zero()


def _fe(p):
    return p.alphabet.id_of("e-a1"), p.alphabet.id_of("e+a1")


def test_add_rule_leaves_a_sharing_presentation_unchanged():
    """Two live classical-sl2 presentations share one word memo until a
    rule comes into one of them: its own normal forms then use the rule,
    and the other's stay as they were."""
    p1, p2 = build_classical_sl2(), build_classical_sl2()
    fe = _fe(p1)
    plain = NCPoly(p1.alphabet, {fe: rf(1)})
    assert p1.word_normal_form(fe) == plain  # f e is irreducible
    assert p2._word_memo() is p1._word_memo()
    h2 = p2.gen("ha1").scale(rf(2))
    p2.add_rule("derived:fe", fe, h2)
    assert p2._word_memo() is not p1._word_memo()
    assert p2.word_normal_form(fe) == h2
    assert p1.word_normal_form(fe) == plain
    assert p1.word_normal_form(fe).alphabet is p1.alphabet


def test_in_place_rule_swap_rekeys_the_word_memo():
    p1, p2 = build_classical_sl2(), build_classical_sl2()
    ef = tuple(reversed(_fe(p1)))
    want = p1.word_normal_form(ef)
    assert p2.word_normal_form(ef) == translate(want, p2.alphabet)
    i = next(i for i, rel in enumerate(p2.relations)
             if rel.label == "cross:e+a1,e-a1")
    rel = p2.relations[i]
    p2.relations = (p2.relations[:i]
                    + (Relation(rel.label, rel.lead, rel.repl + p2.unit()),)
                    + p2.relations[i + 1:])
    assert p2.word_normal_form(ef) == translate(want, p2.alphabet) + p2.unit()
    assert p1.word_normal_form(ef) == want


def test_word_memo_goes_with_its_last_presentation():
    """No presentation outside this test has the rule system below, so
    once both are gone its memo leaves the registry."""
    def build():
        p = build_classical_sl2()
        p.add_rule("derived:fe", _fe(p), p.gen("ha1").scale(rf(11)))
        return p

    p1, p2 = build(), build()
    p1.word_normal_form(_fe(p1))
    memo = p1._word_memo()
    assert p2._word_memo() is memo and memo
    keys = [k for k, m in presentations._WORD_MEMOS.items() if m is memo]
    assert len(keys) == 1
    del p1, memo
    gc.collect()
    assert keys[0] in presentations._WORD_MEMOS
    del p2
    gc.collect()
    assert keys[0] not in presentations._WORD_MEMOS


def test_a_loaded_dump_shares_the_word_memo():
    """A dump sorts each replacement's terms, so some loaded replacements
    hold their terms in another dict order than the built ones (how many is
    incidental: term order is no part of a result); the memo key takes them
    as sets, so both share one memo."""
    p = build_drinfeldian("sl2")
    q = load_presentation(dump_presentation(p))
    assert any(list(a.repl.terms) != list(b.repl.terms)
               for a, b in zip(p.relations, q.relations))
    assert q._word_memo() is p._word_memo()


@pytest.mark.parametrize("name", sorted(ALGEBRA_BUILDERS) + ["classical-sl2"])
def test_rule_coefficients_equal_to_one_are_the_shared_one(name):
    """Rewriting skips the product of a rule coefficient that *is*
    RatFunc.one(); a coefficient equal to 1 held in another object would
    still be multiplied."""
    p = (build_classical_sl2() if name == "classical-sl2"
         else get_presentation(name))
    ones = [c for rel in p.relations for c in rel.repl.terms.values()
            if c == 1]
    assert ones
    assert all(c is RatFunc.one() for c in ones)


def test_check_row_shapes():
    assert check_row("a") == ("a", "zero", None)
    assert check_row("b", "r") == ("b", "nonzero", "r")
    assert check_row("c", [(1, "x")]) == ("c", "nonzero", [(1, "x")])


def test_rewrite_row_shapes():
    # a residual that is only a normal form decides nothing
    assert rewrite_row("a") == ("a", "zero", None)
    assert rewrite_row("b", "r") == ("b", "unknown", "r")
    assert rewrite_row("c", [(1, "x")]) == ("c", "unknown", [(1, "x")])


def test_translate_matches_letters_by_name():
    y, c = build_yangian_sl2(), build_classical_sl2()
    e, f, h = (c.gen(n) for n in ("e+a1", "e-a1", "ha1"))
    x = (e * h).scale(rf("eta")) + f + c.unit()
    moved = translate(x, y.alphabet)
    assert moved.alphabet == y.alphabet
    assert moved == ((y.gen("e+a1") * y.gen("ha1")).scale(rf("eta"))
                     + y.gen("e-a1") + y.unit())
    assert translate(moved, c.alphabet) == x
    t = tensor(h, f).scale(rf("u")) + tensor(e, c.unit())
    moved_t = translate(t, y.alphabet)
    assert isinstance(moved_t, TensorPoly) and moved_t.arity == 2
    assert moved_t == (tensor(y.gen("ha1"), y.gen("e-a1")).scale(rf("u"))
                       + tensor(y.gen("e+a1"), y.unit()))
    assert translate(moved_t, c.alphabet) == t


def test_translate_names_the_first_missing_letter():
    y, c = build_yangian_sl2(), build_classical_sl2()
    xi, h = y.gen("xi"), y.gen("ha1")
    assert translate(h * xi, c.alphabet) == "xi"
    assert translate(tensor(h, h * xi), c.alphabet) == "xi"
    assert translate(h, get_presentation("uq-sl2").alphabet) == "ha1"
