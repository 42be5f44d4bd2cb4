"""Differential test of the rewriting kernel, and of its rewrite strategy.

``Presentation.normal_form`` rewrites in place on one term dict, keeps the
words still to visit on a heap and finds rules through a lead index.  The
reference below is the plain loop it replaced: rescan every term for the
highest reducible word, scan every rule at every position, and rebuild the
sum with NCPoly arithmetic at every step.  Both must give the same terms in
the same order, and raise the same DegreeBoundExceeded, on every sample:
a rewriting system that is not confluent (yangian-sl2) reaches different
normal forms under a different strategy, and report bytes pin them.
"""

import random

import pytest

from loopdeform.errors import DegreeBoundExceeded
from loopdeform.freealg import Alphabet, GenSymbol, NCPoly
from loopdeform.presentations import (
    ALGEBRA_BUILDERS,
    Presentation,
    Relation,
    build_classical_sl2,
    get_presentation,
)
from loopdeform.ratfunc import rf


def _reference_first_occurrence(p, word):
    n = len(word)
    for rel in p.relations:
        lead = rel.lead
        m = len(lead)
        if m > n:
            continue
        for pos in range(n - m + 1):
            if word[pos : pos + m] == lead:
                return rel, pos
    return None


def _reference_normal_form(p, x, bound=None):
    bound = p.degree_bound if bound is None else bound
    alphabet = p.alphabet
    work = x
    irreducible = set()
    while True:
        best = None
        best_key = None
        for w in work.terms:
            if w in irreducible:
                continue
            if len(w) > bound:
                raise DegreeBoundExceeded(
                    "word of length %d exceeds bound %d during rewriting"
                    % (len(w), bound)
                )
            k = p.word_key(w)
            if best_key is None or k > best_key:
                best, best_key = w, k
        if best is None:
            return work
        occ = _reference_first_occurrence(p, best)
        if occ is None:
            irreducible.add(best)
            continue
        rel, pos = occ
        c = work.terms[best]
        prefix = NCPoly(alphabet, {best[:pos]: rf(1)})
        suffix = NCPoly(alphabet, {best[pos + len(rel.lead):]: rf(1)})
        replaced = prefix * rel.repl * suffix
        work = work - NCPoly(alphabet, {best: c}) + c * replaced


ALGEBRAS = sorted(ALGEBRA_BUILDERS) + ["classical-sl2"]
_COEFFS = [rf(1), rf(-2), rf("q"), rf("eta") + 1, rf(1) / (rf("q") - 1)]


def _presentation(name):
    return build_classical_sl2() if name == "classical-sl2" else \
        get_presentation(name)


def _word(p, rng, lo, hi):
    return tuple(rng.randrange(len(p.alphabet))
                 for _ in range(rng.randint(lo, hi)))


def _samples(p, seed):
    """Seeded elements: sums of random words, and relation zero forms
    multiplied by 0-2 generators on either side."""
    rng = random.Random(seed)
    A = p.alphabet
    out = []
    for _ in range(40):
        out.append(NCPoly(A, {_word(p, rng, 0, 6): rng.choice(_COEFFS)
                              for _ in range(rng.randint(1, 3))}))
    for _ in range(40):
        rel = p.relations[rng.randrange(len(p.relations))]
        u = NCPoly(A, {_word(p, rng, 0, 2): rng.choice(_COEFFS)})
        v = NCPoly(A, {_word(p, rng, 0, 2): rf(1)})
        out.append(u * rel.zero_form(A) * v)
    return out


def _assert_same(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    assert str(got) == str(want)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_kernel_matches_the_reference_loop(name):
    p = _presentation(name)
    for i, x in enumerate(_samples(p, seed=len(name))):
        _assert_same(p.normal_form(x, bound=14),
                     _reference_normal_form(p, x, bound=14))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_kernel_raises_where_the_reference_raises(name):
    p = _presentation(name)
    raised = 0
    for x in _samples(p, seed=7 * len(name)):
        for bound in range(2, 7):
            try:
                want = _reference_normal_form(p, x, bound=bound)
            except DegreeBoundExceeded as exc:
                with pytest.raises(DegreeBoundExceeded) as got:
                    p.normal_form(x, bound=bound)
                assert str(got.value) == str(exc)
                raised += 1
            else:
                _assert_same(p.normal_form(x, bound=bound), want)
    assert raised > 0


@pytest.mark.parametrize("name", ["yangian-sl2", "twisted-yangian-sl2"])
def test_non_confluent_yangian_residual_matches(name):
    # this zero form times e+a1 twice lies in the ideal but rewrites to a
    # nonzero normal form: which one depends on the rewrite strategy
    p = get_presentation(name)
    e = p.gen("e+a1")
    x = p.relation("loop-serre-xi:e+a1").zero_form(p.alphabet) * e * e
    got = p.normal_form(x)
    _assert_same(got, _reference_normal_form(p, x))
    assert len(got.terms) == 10


# ---------------------------------------------------------------------------
# the rewrite strategy: lowest-priority-index rule, at its leftmost match
# ---------------------------------------------------------------------------


def _abc():
    A = Alphabet([GenSymbol(n, (0,)) for n in "abcd"], [[2]])
    return A, Presentation("abc", "classical", None, A)


def test_higher_priority_rule_fires_at_its_own_position():
    # both leads have length 2; the later rule's lead a.b matches to the
    # left of the earlier rule's lead b.c in a.b.c
    A, p = _abc()
    a, b, c, d = (NCPoly.gen(A, n) for n in "abcd")
    bc = p.add_rule("bc", A.parse_word("b.c"), d, "test")
    p.add_rule("ab", A.parse_word("a.b"), d.scale(rf(2)), "test")
    word = A.parse_word("a.b.c")
    assert p._first_occurrence(word) == (bc, 1)
    assert p._first_occurrence(A.parse_word("b.c.a.b.c")) == (bc, 0)
    assert p._first_occurrence(A.parse_word("a.b.a")) == (p.relations[1], 0)
    x = NCPoly(A, {word: rf(1)})
    assert p.normal_form(x) == a * d == _reference_normal_form(p, x)


def test_first_of_two_rules_with_one_lead_fires():
    A, p = _abc()
    first = p.add_rule("first", A.parse_word("a.b"), NCPoly.gen(A, "c"), "t")
    p.add_rule("second", A.parse_word("a.b"), NCPoly.gen(A, "d"), "t")
    assert p._first_occurrence(A.parse_word("c.a.b")) == (first, 1)


def test_in_place_rule_swap_reaches_the_index():
    A, p = _abc()
    p.add_rule("ab", A.parse_word("a.b"), NCPoly.gen(A, "d"), "test")
    word = A.parse_word("c.b.c")
    assert p._first_occurrence(word) is None
    p.relations[0] = Relation("bc", A.parse_word("b.c"), NCPoly.gen(A, "a"),
                              "test")
    p._rules_version += 1  # direct rule swap: the index must follow
    assert p._first_occurrence(word) == (p.relations[0], 1)
    assert p.normal_form(NCPoly(A, {word: rf(1)})) == (
        NCPoly.gen(A, "c") * NCPoly.gen(A, "a"))
