"""Classical r-matrices: frozen forms, exact Yang-Baxter residuals, and an
independent structure-constant oracle for the residual computation."""

from fractions import Fraction

import pytest

from loopdeform.errors import ArityMismatchError
from loopdeform.freealg import TensorPoly, tensor
from loopdeform.presentations import (
    build_yangian_sl2,
    cartan_data,
    classical_alphabet,
    translate,
)
from loopdeform.ratfunc import rf
from loopdeform.repn import MatrixRF, spin_rep
from loopdeform.rmatrix import (
    GENERATOR_NAMES,
    build_r,
    casimir_c2,
    cybe_residual,
    wedge,
)
from loopdeform.twist import first_order_antisymmetry

SL2 = classical_alphabet(cartan_data("sl2"))

#: presentation letter name -> basis letter
BASIS_OF = {name: b for b, name in GENERATOR_NAMES.items()}


def two_slot(*terms):
    """The sum of c * a(x)b over (c, a, b) with basis letters a, b, built
    word by word."""
    acc = TensorPoly.zero(SL2, 2)
    for c, a, b in terms:
        key = ((SL2.id_of(GENERATOR_NAMES[a]),),
               (SL2.id_of(GENERATOR_NAMES[b]),))
        acc = acc + TensorPoly(SL2, 2, {key: rf(c)})
    return acc


def basis_terms(r):
    """(coefficient, left basis letter, right basis letter) per term of a
    two-slot element whose slots are single letters."""
    out = []
    for ((i,), (j,)), c in r.terms.items():
        out.append((c, BASIS_OF[r.alphabet.name_of(i)],
                    BASIS_OF[r.alphabet.name_of(j)]))
    return out

# ---------------------------------------------------------------------------
# independent oracle: the residual computed purely from structure constants
# in g (x) g (x) g, then mapped to matrices only at the very end
# ---------------------------------------------------------------------------

BRACKET = {
    ("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
    ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
    ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
}


def _renamed_terms(r, spectral):
    return [(c.map_vars(spectral), a, b) for c, a, b in basis_terms(r)]


def abstract_cybe_residual(r):
    """CYBE residual as a dict {(x,y,z): coeff} over the abstract basis."""
    r12 = _renamed_terms(r, {})
    r13 = _renamed_terms(r, {"v": "w"})
    r23 = _renamed_terms(r, {"u": "v", "v": "w"})
    acc = {}

    def add(key, c):
        s = acc.get(key, rf(0)) + c
        if s.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = s

    # [a(x)b(x)1, c(x)1(x)d] = [a,c](x)b(x)d
    for c1, a, b in r12:
        for c2, c_, d in r13:
            for x, k in BRACKET.get((a, c_), {}).items():
                add((x, b, d), c1 * c2 * rf(k))
    # [a(x)b(x)1, 1(x)c(x)d] = a(x)[b,c](x)d
    for c1, a, b in r12:
        for c2, c_, d in r23:
            for x, k in BRACKET.get((b, c_), {}).items():
                add((a, x, d), c1 * c2 * rf(k))
    # [a(x)1(x)b, 1(x)c(x)d] = a(x)c(x)[b,d]
    for c1, a, b in r13:
        for c2, c_, d in r23:
            for x, k in BRACKET.get((b, d), {}).items():
                add((a, c_, x), c1 * c2 * rf(k))
    return acc


def abstract_to_matrix(resid):
    images = spin_rep(Fraction(1, 2)).images
    imgs = {b: images[g] for b, g in GENERATOR_NAMES.items()}
    acc = MatrixRF.zeros(8)
    for (x, y, z), c in resid.items():
        acc = acc + imgs[x].kron(imgs[y]).kron(imgs[z]).scale(c)
    return acc


# ---------------------------------------------------------------------------
# frozen forms
# ---------------------------------------------------------------------------


def test_casimir_frozen_and_symmetric():
    c2 = casimir_c2()
    assert len(c2.terms) == 3
    assert c2 == two_slot((1, "e", "f"), (1, "f", "e"), ("1/2", "h", "h"))
    assert c2 == c2.embed((1, 0), 2)


def test_casimir_commutes_with_diagonal_action():
    images = spin_rep(Fraction(1, 2)).images
    imgs = {b: images[g] for b, g in GENERATOR_NAMES.items()}
    eye = MatrixRF.identity(2)
    c2 = MatrixRF.zeros(4)
    for c, a, b in basis_terms(casimir_c2()):
        c2 = c2 + imgs[a].kron(imgs[b]).scale(c)
    for b in ("h", "e", "f"):
        diag = imgs[b].kron(eye) + eye.kron(imgs[b])
        assert c2.commutator(diag).is_zero()


def test_wedge_antisymmetry():
    assert wedge("h", "f") == two_slot((1, "h", "f"), (-1, "f", "h"))
    assert wedge("e", "e").is_zero()
    assert wedge("h", "f") == -wedge("f", "h")
    with pytest.raises(ValueError):
        wedge("h", "x")


def test_build_r_forms():
    spectral = rf("eta") / (rf("u") - rf("v"))
    assert build_r("rational") == casimir_c2().scale(spectral)
    assert build_r("jordanian") == wedge("h", "f").scale(rf("zeta"))
    assert (build_r("twisted_yangian")
            == build_r("rational") + build_r("jordanian"))
    assert build_r("sum:rational+jordanian") == build_r("twisted_yangian")
    assert build_r("dj_constant") == two_slot((1, "e", "f"),
                                              ("1/4", "h", "h"))
    # the rational family scales away with its deformation parameter
    at_eta0 = build_r("rational").map_coeffs(lambda c: c.eval_var("eta", 0))
    assert at_eta0.is_zero()
    with pytest.raises(ValueError):
        build_r("elliptic")
    with pytest.raises(ValueError):
        build_r("sum")
    with pytest.raises(ValueError):
        build_r("sum:")


# ---------------------------------------------------------------------------
# Yang-Baxter residuals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["rational", "jordanian", "twisted_yangian",
                                  "dj_constant"])
def test_cybe_solutions_have_exact_zero_residual(kind):
    assert cybe_residual(build_r(kind)).is_zero()


@pytest.mark.parametrize("kind", ["rational", "jordanian", "twisted_yangian",
                                  "dj_constant"])
def test_abstract_oracle_agrees_on_solutions(kind):
    # independently of any matrix representation, the structure-constant
    # expansion cancels termwise
    assert abstract_cybe_residual(build_r(kind)) == {}


def test_abstract_oracle_agrees_on_non_solutions():
    # a lone e(x)f term is not a solution; both routes must produce the
    # same nonzero residual matrix
    bad = two_slot((1, "e", "f"))
    direct = cybe_residual(bad)
    assert not direct.is_zero()
    assert direct == abstract_to_matrix(abstract_cybe_residual(bad))

    mixed = build_r("sum:rational+dj_constant")
    assert cybe_residual(mixed) == abstract_to_matrix(
        abstract_cybe_residual(mixed))


def test_mixed_sum_residual_is_a_reported_finding():
    # the sum of the spectral rational solution and the constant one is NOT
    # itself a solution: the cross bracket between slot pairs (1,3) leaves
    # pure eta/(u-w) terms.  Computed, not asserted away.
    res = cybe_residual(build_r("sum:rational+dj_constant"))
    assert not res.is_zero()
    entries = res.nonzero_entries()
    assert len(entries) == 12
    assert res.entry(1, 2) == -rf("eta") / (rf("u") - rf("w"))
    for _, _, c in entries:
        assert c.var_degree_range("zeta") == (0, 0)
        assert c.var_degree_range("eta") == (1, 1)


def test_residual_scales_quadratically():
    bad = two_slot((1, "e", "f"))
    assert cybe_residual(bad.scale(rf(2))) == cybe_residual(bad).scale(rf(4))
    mixed = build_r("sum:rational+dj_constant")
    assert cybe_residual(mixed.scale(rf(3))) == cybe_residual(mixed).scale(
        rf(9))


def test_cybe_residual_needs_two_slots():
    with pytest.raises(ArityMismatchError):
        cybe_residual(casimir_c2().embed((0, 1), 3))


def test_cybe_residual_names_a_letter_outside_sl2():
    y = build_yangian_sl2()
    r = tensor(y.gen("xi"), y.gen("ha1"))
    with pytest.raises(ValueError, match="xi"):
        cybe_residual(r)


@pytest.mark.parametrize("kind", ["rational", "sum:rational+dj_constant"])
def test_cybe_residual_reads_letters_by_name(kind):
    # the same r-matrix written over the yangian-sl2 alphabet, whose letter
    # ids differ, gives the same residual
    r = build_r(kind)
    moved = translate(r, build_yangian_sl2().alphabet)
    assert moved.alphabet != r.alphabet
    assert cybe_residual(moved) == cybe_residual(r)


# ---------------------------------------------------------------------------
# tie-in with the twist module
# ---------------------------------------------------------------------------


def test_first_order_antisymmetry_is_the_jordanian_r_matrix():
    p = build_yangian_sl2()
    expected = translate(build_r("jordanian"), p.alphabet)
    assert first_order_antisymmetry(p) == expected
