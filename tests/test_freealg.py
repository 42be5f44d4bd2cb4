"""Tests for the free-algebra layer: words, contraction, q-brackets, tensors.

The iterated q-bracket expansions below were computed by hand (free algebra,
no relations); coefficients follow the q-binomial pattern with the bracket
power read off the weight pairing at each step.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdeform.errors import (
    AlphabetMismatchError,
    ArityMismatchError,
    MixedWeightError,
    UnknownGeneratorError,
)
from loopdeform.freealg import (
    Alphabet,
    GenSymbol,
    NCPoly,
    TensorPoly,
    ad_q_power,
    apply_antihom,
    apply_hom,
    commutator,
    q_commutator,
    tensor,
)
from loopdeform.presentations import get_presentation
from loopdeform.ratfunc import RatFunc, q_power, rf


def _sl2_alphabet():
    syms = [
        GenSymbol("e-a1", (-1,)),
        GenSymbol("e+a1", (1,)),
        GenSymbol("xi", (-1,), loop_degree=1),
        GenSymbol("k+a1", (0,), inv_name="k-a1"),
        GenSymbol("k-a1", (0,), inv_name="k+a1"),
    ]
    return Alphabet(syms, [[2]])


A = _sl2_alphabet()
E = NCPoly.gen(A, "e+a1")
F = NCPoly.gen(A, "e-a1")
K = NCPoly.gen(A, "k+a1")
KI = NCPoly.gen(A, "k-a1")
XI = NCPoly.gen(A, "xi")


def test_inverse_contraction():
    assert K * KI == NCPoly.unit(A)
    assert K * K * KI * KI == NCPoly.unit(A)
    assert (K * E * KI * K) == K * E  # only adjacent pairs contract
    assert A.contract((3, 4, 3, 4)) == ()


@pytest.mark.parametrize("algebra", ["uq-sl3", "drinfeldian-sl2"])
def test_join_contracts_at_the_junction(algebra):
    A = get_presentation(algebra).alphabet
    group_like = sorted(A.inverse)
    rng = random.Random(7)

    def word(n, letters=group_like * 2 + list(range(len(A)))):
        return A.contract(tuple(rng.choice(letters) for _ in range(n)))

    def inverse(w):
        return tuple(A.inverse[i] for i in reversed(w))

    cases = [((), ()), ((), word(4)), (word(4), ())]
    for _ in range(150):
        g = word(rng.randint(0, 6), group_like)
        a = A.contract(word(rng.randint(0, 4)) + g)
        # b cancels all of g, a part of a's end, or nothing
        cases += [(g, inverse(g)),
                  (a, A.contract(inverse(g[rng.randint(0, len(g)):])
                                 + word(rng.randint(0, 4)))),
                  (a, word(rng.randint(0, 8)))]
    for a, b in cases:
        assert A.join(a, b) == A.contract(a + b), (a, b)
    cut = {len(a) + len(b) - len(A.join(a, b)) for a, b in cases}
    assert 0 in cut and len(cut) > 4
    assert sum(1 for a, b in cases if a and b and not A.join(a, b)) > 100


def test_alphabet_validation():
    with pytest.raises(UnknownGeneratorError):
        Alphabet([GenSymbol("k", (0,), inv_name="nope")], [[2]])
    with pytest.raises(ValueError):
        Alphabet([GenSymbol("x", (1, 0))], [[2]])  # weight length mismatch
    with pytest.raises(ValueError):
        Alphabet([GenSymbol("x", (1,)), GenSymbol("x", (1,))], [[2]])


def test_weight_and_pairing():
    assert A.pairing((1,), (-1,)) == -2
    assert A.word_weight((0, 1)) == (0,)  # f then e
    assert XI.weight() == (-1,)
    assert A.word_loop_degree(A.parse_word("xi.e+a1.xi")) == 2
    with pytest.raises(MixedWeightError):
        (E + F).weight()


def test_q_commutator_weight_power():
    # wt e = alpha, wt f = -alpha, (alpha, -alpha) = -2: [e,f]_q = ef - q^-2 fe
    c = q_commutator(E, F)
    assert c.coeff(A.parse_word("e+a1.e-a1")) == rf(1)
    assert c.coeff(A.parse_word("e-a1.e+a1")) == -q_power(-2)
    # explicit power overrides the weight rule
    c2 = q_commutator(E, F, power=rf(1))
    assert c2 == commutator(E, F)


def test_iterated_q_bracket_on_dressed_lowering_letter():
    # x = f.k has weight -alpha; successive bracket powers are q^-2, 1, q^2
    x = F * K
    y1 = ad_q_power(E, x, 1)
    assert y1 == E * x - q_power(-2) * (x * E)
    y3 = ad_q_power(E, x, 3)
    three = q_power(2) + 1 + q_power(-2)  # quantum integer [3]
    expect = (
        E * E * E * x
        - three * (E * E * x * E)
        + three * (E * x * E * E)
        - x * E * E * E
    )
    assert y3 == expect


def test_tensor_of_primitive_element_squares():
    one = NCPoly.unit(A)
    d = E.tensor(one) + one.tensor(E)
    sq = d * d
    assert sq == (
        (E * E).tensor(one) + 2 * E.tensor(E) + one.tensor(E * E)
    )


def test_apply_hom_is_multiplicative():
    one = NCPoly.unit(A)
    d = E.tensor(one) + one.tensor(E)
    img = {A.id_of("e+a1"): d}
    assert apply_hom(E * E, img) == d * d
    # empty word maps to the tensor unit
    assert apply_hom(one, img) == TensorPoly.unit(A, 2)


def test_apply_antihom_reverses_words():
    img = {A.id_of("e+a1"): -E, A.id_of("e-a1"): -F}
    assert apply_antihom(E * F, img) == F * E


def test_antihom_triple():
    img = {A.id_of("e+a1"): -E, A.id_of("e-a1"): -F}
    # S(e f e) = S(e) S(f) S(e) = (-e)(-f)(-e) = -e f e
    assert apply_antihom(E * F * E, img) == -(E * F * E)


def test_alphabet_mismatch_raises():
    B = Alphabet([GenSymbol("e+a1", (1,))], [[2]])
    with pytest.raises(AlphabetMismatchError):
        E + NCPoly.gen(B, "e+a1")


def test_arity_mismatch_raises():
    one = NCPoly.unit(A)
    with pytest.raises(ArityMismatchError):
        E.tensor(one) + E.tensor(one, one)


def test_word_parse_round_trip():
    w = A.parse_word("e+a1.e-a1.k+a1")
    assert A.word_str(w) == "e+a1.e-a1.k+a1"
    assert A.parse_word("1") == ()
    assert A.word_str(()) == "1"
    # parsing contracts inverse pairs
    assert A.parse_word("k+a1.k-a1") == ()


def test_map_slot_is_linear():
    one = NCPoly.unit(A)
    t = E.tensor(F) + 2 * K.tensor(E)
    # replace slot 0 words w by w + 1 (as NCPoly)
    out = t.map_slot(0, lambda w: NCPoly(A, {w: rf(1), (): rf(1)}))
    assert out == t + one.tensor(F) + 2 * one.tensor(E)


def test_embed_places_slots_beside_units():
    one = NCPoly.unit(A)
    F2 = E.tensor(F) + (K * E).tensor(XI).scale(rf("eta")) + one.tensor(one)
    # F (x) 1 and 1 (x) F, built by hand as three-slot elements
    assert F2.embed((0, 1), 3) == (
        E.tensor(F, one) + (K * E).tensor(XI, one).scale(rf("eta"))
        + one.tensor(one, one))
    assert F2.embed((1, 2), 3) == (
        one.tensor(E, F) + one.tensor(K * E, XI).scale(rf("eta"))
        + one.tensor(one, one))
    assert F2.embed((0, 2), 3) == (
        E.tensor(one, F) + (K * E).tensor(one, XI).scale(rf("eta"))
        + one.tensor(one, one))
    # (1, 0) is the slot swap, and swapping twice is the identity
    assert F2.embed((1, 0), 2) == (
        F.tensor(E) + XI.tensor(K * E).scale(rf("eta")) + one.tensor(one))
    assert F2.embed((1, 0), 2).embed((1, 0), 2) == F2
    assert F2.embed((0, 1), 2) == F2


def test_embed_of_zero_and_bad_slots():
    zero = TensorPoly.zero(A, 2)
    placed = zero.embed((2, 0), 3)
    assert placed.is_zero() and placed.arity == 3
    t = E.tensor(F)
    with pytest.raises(ArityMismatchError):
        t.embed((0, 1, 2), 3)
    with pytest.raises(ArityMismatchError):
        t.embed((0,), 3)
    with pytest.raises(ArityMismatchError):
        t.embed((1, 1), 3)
    with pytest.raises(ArityMismatchError):
        t.embed((0, 3), 3)


_words = st.lists(
    st.integers(min_value=0, max_value=4), min_size=0, max_size=3
).map(tuple)
_ncpolys = st.builds(
    lambda ws: sum((NCPoly(A, {w: rf(c)}) for w, c in ws), NCPoly.zero(A)),
    st.lists(st.tuples(_words, st.integers(min_value=-2, max_value=2)), max_size=3),
)


@settings(max_examples=50, deadline=None)
@given(_ncpolys, _ncpolys, _ncpolys)
def test_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x


@settings(max_examples=50, deadline=None)
@given(_ncpolys, _ncpolys)
def test_tensor_respects_multiplication(x, y):
    one = NCPoly.unit(A)
    # (x (x) 1)(1 (x) y) = x (x) y  [all parities are 0]
    assert x.tensor(one) * one.tensor(y) == x.tensor(y)
    assert one.tensor(y) * x.tensor(one) == x.tensor(y)
