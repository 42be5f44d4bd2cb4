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
from heapq import heappop

import pytest

from loopdeform.errors import DegreeBoundExceeded
from loopdeform.freealg import Alphabet, GenSymbol, NCPoly
from loopdeform.hopf import build_hopf
from loopdeform.presentations import (
    ALGEBRA_BUILDERS,
    CENTRAL_FAMILIES,
    FAMILY_GROUPS,
    Presentation,
    Relation,
    alphabet,
    build_classical_sl2,
    cartan_data,
    get_presentation,
)
from loopdeform.ratfunc import rf
from loopdeform.twist import check_twisted_homomorphism


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


def _assert_equal(got, want):
    """Equal terms and coefficients, and equal str(), in any term order."""
    assert got.terms == want.terms
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


def _shipped_alphabets():
    """(family, Cartan datum, alphabet) for every alphabet a presentation
    over a preset may carry: each family's, and its central-pair twin."""
    for g in ("sl2", "sl3"):
        cd = cartan_data(g)
        for family, groups in sorted(FAMILY_GROUPS.items()):
            name = "%s-%s" % (family, g)
            yield pytest.param(family, cd, alphabet(cd, groups), id=name)
            if family in CENTRAL_FAMILIES:
                yield pytest.param(family, cd,
                                   alphabet(cd, set(groups) ^ {"kd"}),
                                   id=name + "-twin")


@pytest.mark.parametrize("family, cd, A", list(_shipped_alphabets()))
def test_frontier_pops_in_descending_term_order(family, cd, A):
    # the one term order: the frontier of both rewriting loops pops words by
    # strictly descending word_key, and its first word is the leading term
    p = Presentation("frontier", family, cd, A)
    rng = random.Random(len(A) * len(family))
    words = list(dict.fromkeys(A.contract(_word(p, rng, 0, 8))
                               for _ in range(300)))
    for size in (len(words), 1, 2, 5, 40):
        sample = rng.sample(words, size)
        frontier, enter = p._frontier(8)
        for w in sample:
            enter(w)
        popped = [heappop(frontier)[3] for _ in sample]
        assert not frontier and sorted(popped) == sorted(sample)
        keys = [p.word_key(w) for w in popped]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        x = NCPoly(A, {w: rf(1) for w in sample})
        assert p.leading_term(x) == (popped[0], rf(1))
    with pytest.raises(DegreeBoundExceeded,
                       match="word of length 9 exceeds bound 8"):
        enter((0,) * 9)


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
    bc = p.add_rule("bc", A.parse_word("b.c"), d)
    p.add_rule("ab", A.parse_word("a.b"), d.scale(rf(2)))
    word = A.parse_word("a.b.c")
    assert p._first_occurrence(word) == (bc, 1)
    assert p._first_occurrence(A.parse_word("b.c.a.b.c")) == (bc, 0)
    assert p._first_occurrence(A.parse_word("a.b.a")) == (p.relations[1], 0)
    x = NCPoly(A, {word: rf(1)})
    assert p.normal_form(x) == a * d == _reference_normal_form(p, x)


def test_first_of_two_rules_with_one_lead_fires():
    A, p = _abc()
    first = p.add_rule("first", A.parse_word("a.b"), NCPoly.gen(A, "c"))
    p.add_rule("second", A.parse_word("a.b"), NCPoly.gen(A, "d"))
    assert p._first_occurrence(A.parse_word("c.a.b")) == (first, 1)


def test_in_place_rule_swap_reaches_the_index():
    A, p = _abc()
    p.add_rule("ab", A.parse_word("a.b"), NCPoly.gen(A, "d"))
    word = A.parse_word("c.b.c")
    assert p._first_occurrence(word) is None
    p.relations = (Relation("bc", A.parse_word("b.c"), NCPoly.gen(A, "a")),)
    assert p._first_occurrence(word) == (p.relations[0], 1)
    assert p.normal_form(NCPoly(A, {word: rf(1)})) == (
        NCPoly.gen(A, "c") * NCPoly.gen(A, "a"))


# ---------------------------------------------------------------------------
# the slot words of tensors, rewritten together in one shared frontier
# ---------------------------------------------------------------------------


def _coproduct_tensors(name):
    """p and delta(z) for every relation z of p."""
    p = get_presentation(name)
    H = build_hopf(p)
    return p, [H.coproduct(rel.zero_form(p.alphabet)) for rel in p.relations]


def _twist_tensors():
    """yangian-sl2 and every tensor its order-3 twisted homomorphism check
    reduces: the graded products of the twist series with delta(x)."""
    p = get_presentation("yangian-sl2")
    tensors = []
    reduce = Presentation.normal_form_tensor

    def recording(self, t, bound=None):
        tensors.append(t)
        return reduce(self, t, bound)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Presentation, "normal_form_tensor", recording)
        check_twisted_homomorphism(build_hopf(p), 3)
    return p, tensors


def _tensors(source):
    return _twist_tensors() if source == "yangian-sl2 twist-3" else \
        _coproduct_tensors(source)


def _per_word_tensor(p, t, bound):
    """The slotwise normal form with each word rewritten alone by the
    reference loop."""
    def word_fn(w):
        return _reference_normal_form(p, NCPoly(p.alphabet, {w: rf(1)}), bound)

    for i in range(t.arity):
        t = t.map_slot(i, word_fn)
    return t


SOURCES = sorted(ALGEBRA_BUILDERS) + ["yangian-sl2 twist-3"]


@pytest.mark.parametrize("source", SOURCES)
def test_one_frontier_matches_each_word_alone(source):
    p, tensors = _tensors(source)
    words = list(dict.fromkeys(w for t in tensors for k in t.terms for w in k))
    assert len(words) > 10
    for w, got in zip(words, p._rewrite_words(tuple(words), p.degree_bound)):
        _assert_equal(got, _reference_normal_form(
            p, NCPoly(p.alphabet, {w: rf(1)})))


@pytest.mark.parametrize("source", SOURCES)
def test_normal_form_tensor_raises_where_a_word_alone_raises(source):
    # at bounds 1-3 some slot words of every source outgrow the bound:
    # the batch raises then, stores nothing, and the words are rewritten one
    # at a time, so the message is the per-word path's
    p, tensors = _tensors(source)
    raised = 0
    for t in tensors:
        for bound in (1, 2, 3, p.degree_bound):
            p._word_memo().clear()
            try:
                want = _per_word_tensor(p, t, bound)
            except DegreeBoundExceeded as exc:
                with pytest.raises(DegreeBoundExceeded) as got:
                    p.normal_form_tensor(t, bound)
                assert str(got.value) == str(exc)
                raised += 1
            else:
                got = p.normal_form_tensor(t, bound)
                assert list(got.terms.items()) == list(want.terms.items())
                assert str(got) == str(want)
    assert raised > 0


def test_one_frontier_matches_each_word_through_cancellation():
    # d.d -> c.c + b.b + a.a, then c.c -> c.a - b.b and c.a -> q b.b: the
    # run of d.d alone cancels b.b and brings it back.  In the first batch
    # b.b stays in the dict for the source b.b, so it comes back to d.d
    # beside another source; in the second it leaves the dict and enters
    # again
    A, p = _abc()
    word = A.parse_word
    aa, bb, ca, cc = (NCPoly(A, {word(w): rf(1)})
                      for w in ("a.a", "b.b", "c.a", "c.c"))
    p.add_rule("dd", word("d.d"), cc + bb + aa)
    p.add_rule("cc", word("c.c"), ca - bb)
    p.add_rule("ca", word("c.a"), bb.scale(rf("q")))
    for batch in (("b.b", "d.d", "c.c", "a.d.d", "d.d.b"), ("d.d", "a.d.d")):
        words = tuple(word(w) for w in batch)
        got = p._rewrite_words(words, 4)
        for w, nf in zip(words, got):
            _assert_equal(nf, _reference_normal_form(p, NCPoly(A, {w: rf(1)})))
