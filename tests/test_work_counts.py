"""Work-count guards for the coproduct-homomorphism check and the classical
Yang-Baxter residual.

Counts, not seconds: the drinfeldian-sl2 check must reach its verdicts
without the generic pseudo-remainder gcd (every denominator there splits
over q, q-1, q+1) and without dense matrix additions (witnesses accumulate
sparsely), while still evaluating one exact witness per relation and rep.
The coefficients of these checks are integral almost everywhere, so they
must also run on int arithmetic, with few Fraction objects made.  And
rewriting must make one RatFunc product per replacement term per rewrite
step, not build each replacement from NCPoly products, and none when a
factor is the shared RatFunc.one(); witness evaluation skips those products
too, and the evaluation correction reads its affine system off four shared
candidate reps per spin.  Products and sums of coefficients whose
denominators split over q, q-1, q+1 cancel on the multiplicities, with no
gcd at all, and a slotwise normal form strips the known factors once per
output coefficient.  Products and sums of monomials over the denominator 1
are made on the one exponent and coefficient pair, with no MultiPoly
operation, and a sum of products lifted to the lcm of its denominators
adds each lifted product into one exponent dict, with no MultiPoly product
(test_sum_of_products_makes_no_multipoly_product).  The structure maps
scale the image of a word's first letter by the word's coefficient, not the
finished product, and make no product by the unit: the RatFunc product
count of test_twisted_homomorphism_monomials_skip_multipoly pins it.  The
Yang-Baxter residual builds its fundamental representation once, not once
per slot pair, and it clears the spectral denominators u-v, u-w, v-w before
the commutators: reducing every entry product and sum of the three 8x8
commutators through mp_gcd instead costs hundreds of gcds, so an exact
gcd count pins the cleared path.  The graded products of the twist suite
clear the 1/k! of the twisting element the same way, so an exact count
of Fraction operations pins them.  build_drinfeldian reduces each q-bracket
of a loop Serre rule as it is formed, not the bracket expanded in the free
algebra: the RatFunc product count of a build of drinfeldian-sl3
(test_drinfeldian_build_reduces_each_bracket) pins it.

The word-normal-form memo is shared by every live presentation of a rule
system, so each counted check starts from a cold memo (_cold): otherwise a
presentation another test module keeps alive would hand it warm normal
forms, and its counts would depend on which tests ran first.  The order-4
twist check of twist-series reuses the normal forms the order-3 check made
on a second presentation of yangian-sl2, and each order of the twist suite
builds its series, and the twisted image of each word, once for all its
checks and twisted maps.  Every word normal form comes
through one memo entry, Presentation._word_normal_forms, which a tensor
slot calls once with its distinct words; the words of the slot that miss
the memo are rewritten in one shared _frontier, so a word that several of
them pass through is matched against the rules once.
"""

import random
import sys
from fractions import Fraction
from functools import partial

import pytest

from loopdeform import hopf, ratfunc, repn, rmatrix, twist
from loopdeform.hopf import build_hopf, check_homomorphism
from loopdeform.freealg import NCPoly
from loopdeform.presentations import (
    Presentation,
    build_drinfeldian,
    build_yangian_sl2,
    get_presentation,
)
from loopdeform.ratfunc import MultiPoly, RatFunc, rf
from loopdeform.repn import default_reps
from loopdeform.twist import check_twisted_homomorphism


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _cold(p):
    """p, with the word memo of its rule system emptied: test_hopf keeps a
    drinfeldian-sl2 presentation, and with it that rule system's memo,
    alive for the whole session."""
    p._word_memo().clear()
    assert not p._word_memo()
    return p


# evaluating the raw delta(z) of each relation in the tensor square took one
# evaluate_tensor call per relation and rep (21); the witness is now the
# pulled-back representation's evaluate on z, and evaluate_tensor only builds
# that representation's generator images
def test_drinfeldian_sl2_homomorphism_work_counts(monkeypatch):
    counts = {"prem": 0, "matrix_add": 0, "evaluate_tensor": 0,
              "pulled_back_evaluate": 0}
    monkeypatch.setattr(ratfunc, "_prem",
                        _counting(counts, "prem", ratfunc._prem))
    monkeypatch.setattr(repn.MatrixRF, "__add__",
                        _counting(counts, "matrix_add",
                                  repn.MatrixRF.__add__))
    monkeypatch.setattr(hopf, "evaluate_tensor",
                        _counting(counts, "evaluate_tensor",
                                  hopf.evaluate_tensor))
    p = _cold(get_presentation("drinfeldian-sl2"))
    reps = default_reps(p)
    evaluate = repn.Rep.evaluate

    def counting_evaluate(self, x):
        if self not in reps:
            counts["pulled_back_evaluate"] += 1
        return evaluate(self, x)

    monkeypatch.setattr(repn.Rep, "evaluate", counting_evaluate)
    rows = check_homomorphism(build_hopf(p), reps)
    assert rows == [(rel.label, "zero", None) for rel in p.relations]
    assert len(rows) == 21
    # one exact witness per relation and rep
    assert counts == {"prem": 0, "matrix_add": 0,
                      "evaluate_tensor": len(p.alphabet) * len(reps),
                      "pulled_back_evaluate": len(rows) * len(reps)}


# cancelling through mp_gcd, this check made 20,124 mp_gcd calls (recursive
# ones included) and 11,110 divexact calls; on the multiplicities it makes no
# gcd, and with the quotients read off the synthetic divisions that find the
# known factors (4,082 divexact calls before that), no divexact call either
def test_drinfeldian_sl2_homomorphism_cancels_without_gcd(monkeypatch):
    p = _cold(get_presentation("drinfeldian-sl2"))
    reps = default_reps(p)
    H = build_hopf(p)
    counts = {"mp_gcd": 0, "divexact": 0}
    monkeypatch.setattr(ratfunc, "mp_gcd",
                        _counting(counts, "mp_gcd", ratfunc.mp_gcd))
    monkeypatch.setattr(ratfunc, "divexact",
                        _counting(counts, "divexact", ratfunc.divexact))
    rows = check_homomorphism(H, reps)
    monkeypatch.undo()
    assert rows == [(rel.label, "zero", None) for rel in p.relations]
    assert len(rows) == 21
    assert counts["mp_gcd"] == 0
    assert counts["divexact"] == 0


# adding each coefficient product of the slotwise normal forms into its
# output key as it was made, this check stripped the known factors 13,390
# times; summing each output coefficient once, it strips about half as often
def test_drinfeldian_sl2_homomorphism_strips_once_per_output_key(monkeypatch):
    p = _cold(get_presentation("drinfeldian-sl2"))
    reps = default_reps(p)
    H = build_hopf(p)
    counts = {"_strip": 0, "mp_gcd": 0, "divexact": 0}
    for name in counts:
        monkeypatch.setattr(ratfunc, name,
                            _counting(counts, name, getattr(ratfunc, name)))
    rows = check_homomorphism(H, reps)
    monkeypatch.undo()
    assert rows == [(rel.label, "zero", None) for rel in p.relations]
    assert counts["mp_gcd"] == counts["divexact"] == 0
    assert 0 < counts["_strip"] <= 7_000


# with every coefficient stored as a Fraction, check_homomorphism makes
# 304,033 Fraction objects for drinfeldian-sl2 and 6,824 for
# twisted-yangian-sl2; the drinfeldian-sl2 bound is 5 % of that count
@pytest.mark.parametrize("algebra, bound", [("drinfeldian-sl2", 15_201),
                                            ("twisted-yangian-sl2", 0)])
def test_homomorphism_check_makes_few_fractions(monkeypatch, algebra, bound):
    p = _cold(get_presentation(algebra))
    reps = default_reps(p)
    H = build_hopf(p)
    made = [0]
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    rows = check_homomorphism(H, reps)
    monkeypatch.undo()
    assert all(verdict == "zero" for _, verdict, _ in rows)
    assert made[0] <= bound


def _drinfeldian_sl2_samples(p, count, seed):
    """Relation zero forms times 0-2 generators, alternating with single
    random words of length 0-6, all with small rational coefficients."""
    rng = random.Random(seed)
    A = p.alphabet
    zero_forms = [rel.zero_form(A) for rel in p.relations]
    out = []
    for i in range(count):
        c = rf(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))))
        if i % 2 == 0:
            x = zero_forms[i // 2 % len(zero_forms)].scale(c)
            for _ in range(rng.randint(0, 2)):
                g = NCPoly(A, {(rng.randrange(len(A)),): rf(1)})
                x = g * x if rng.random() < 0.5 else x * g
        else:
            word = tuple(rng.randrange(len(A)) for _ in range(i // 2 % 7))
            x = NCPoly(A, {word: c})
        out.append(x)
    return out


def test_rewriting_makes_one_product_per_replacement_term(monkeypatch):
    # building every replacement as prefix * repl * suffix from NCPoly
    # products and then scaling it took 2,230 RatFunc.__mul__ calls for the
    # 590 replacement terms of these 200 elements; one product per term took
    # 590, and skipping the products by the shared one takes 590 - by_one
    p = _cold(get_presentation("drinfeldian-sl2"))
    samples = _drinfeldian_sl2_samples(p, 200, seed=7)
    counts = {"mul": 0, "terms": 0, "by_one": 0}
    one = RatFunc.one()
    mul = RatFunc.__mul__
    first_occurrence = Presentation._first_occurrence

    def counting_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    def counting_first_occurrence(self, word):
        occ = first_occurrence(self, word)
        if occ is not None:
            # the coefficient of the word about to be rewritten, read from
            # the term dict of the calling normal_form
            c = sys._getframe(1).f_locals["terms"][word]
            repl = occ[0].repl.terms.values()
            counts["terms"] += len(repl)
            counts["by_one"] += sum(c is one or c2 is one for c2 in repl)
        return occ

    monkeypatch.setattr(RatFunc, "__mul__", counting_mul)
    monkeypatch.setattr(Presentation, "_first_occurrence",
                        counting_first_occurrence)
    zeros = sum(p.normal_form(x).is_zero() for x in samples)
    monkeypatch.undo()
    assert zeros >= 100
    assert counts["terms"] == 590
    assert 0 < counts["by_one"] < counts["terms"]
    assert counts["mul"] == counts["terms"] - counts["by_one"]


# expanding each loop Serre bracket ad_q(x)^n(y) in the free algebra and
# reducing it once, this build made 686 RatFunc products; reducing each
# bracket as it is formed makes 532.  The build reads no memo that changes
# this count, so a fresh build is a cold one
def test_drinfeldian_build_reduces_each_bracket(monkeypatch):
    counts = {"mul": 0}
    monkeypatch.setattr(RatFunc, "__mul__",
                        _counting(counts, "mul", RatFunc.__mul__))
    p = build_drinfeldian("sl3")
    monkeypatch.undo()
    assert len(p.relations) == 58
    assert counts == {"mul": 532}


# every coefficient of the yangian-sl2 twist suite has denominator 1, and
# each product and sum here not by zero or one is of two monomials; made
# through MultiPoly, this check took 6,697 MultiPoly products and 6,118
# MultiPoly sums.  Rewriting made 16,814 RatFunc products while it still
# multiplied by the shared one, and rule coefficients equal to 1 were not
# all that shared one.  apply_hom made 9,949 while it started each word's
# image from the unit and scaled the finished product by the coefficient;
# scaling the image of the word's first letter instead took 9,638.  The
# graded products now multiply the scalars of each pair of nonzero cleared
# terms apart, 28 products of constants more: 9,666.  A TensorPoly product
# by the unit tensor, as by the order-0 term of F, F^-1, u or u^-1 in the
# graded products, is now a copy of the other factor, with no product of
# its coefficients by one: 9,469
def test_twisted_homomorphism_monomials_skip_multipoly(monkeypatch):
    p = _cold(get_presentation("yangian-sl2"))
    H = build_hopf(p)
    counts = {"poly_mul": 0, "poly_add": 0, "mul": 0, "add": 0}
    for owner, attr, key in ((MultiPoly, "__mul__", "poly_mul"),
                             (MultiPoly, "__add__", "poly_add"),
                             (RatFunc, "__mul__", "mul"),
                             (RatFunc, "__add__", "add")):
        monkeypatch.setattr(owner, attr,
                            _counting(counts, key, getattr(owner, attr)))
    rows = check_twisted_homomorphism(H, 3)
    monkeypatch.undo()
    assert rows == [(rel.label, "zero", None) for rel in p.relations]
    assert len(rows) == 7
    assert counts == {"poly_mul": 0, "poly_add": 0,
                      "mul": 9_469, "add": 6_118}


#: the arithmetic dunders of Fraction
_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
                 "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
                 "__abs__")


# the 1/k! of the twisting element made the graded products of this check
# run on Fraction coefficients: 2,960 Fraction operations.  Cleared once,
# F and F^-1 carry integer coefficients, each order's products are brought
# to the lcm of their scalars and divided once, at the end, and the zero
# residuals of this check divide nothing
def test_twisted_homomorphism_runs_on_cleared_coefficients(monkeypatch):
    p = _cold(get_presentation("yangian-sl2"))
    H = build_hopf(p)
    counts = {"fraction_ops": 0}
    for name in _FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, _counting(
            counts, "fraction_ops", getattr(Fraction, name)))
    rows = check_twisted_homomorphism(H, 3)
    monkeypatch.undo()
    assert rows == [(rel.label, "zero", None) for rel in p.relations]
    assert counts == {"fraction_ops": 50}


# rewriting each slot word that missed the memo in a frontier of its own,
# these checks matched 3,713 and 6,266 words against the rules; the missed
# words of each slot of a tensor share one frontier, so a word that several
# of them pass through is matched once
@pytest.mark.parametrize("algebra, matched", [("drinfeldian-sl2", 1_304),
                                              ("yangian-sl2", 3_524)])
def test_slot_words_share_one_frontier(monkeypatch, algebra, matched):
    p = _cold(get_presentation(algebra))
    H = build_hopf(p)
    if algebra == "yangian-sl2":
        check = partial(check_twisted_homomorphism, H, 3)
    else:
        check = partial(check_homomorphism, H, default_reps(p))
    counts = {"first_occurrence": 0}
    monkeypatch.setattr(Presentation, "_first_occurrence",
                        _counting(counts, "first_occurrence",
                                  Presentation._first_occurrence))
    rows = check()
    monkeypatch.undo()
    assert rows == [(rel.label, "zero", None) for rel in p.relations]
    assert counts == {"first_occurrence": matched}


# twist-series checks yangian-sl2 at order 3, then at order 4 on a second
# presentation that differs only in degree_bound (16); with a word memo per
# presentation the order-4 check rewrote 686 single words, while sharing the
# memo of their one rule system it rewrites only the 144 that order 3 did
# not meet, and its hits come back over the second presentation's alphabet.
# Each slot of a tensor looks up its distinct words in one call of the memo
# entry, 1,491 lookups in all; looking them up term by term took 3,161
def test_order_four_twist_check_reuses_order_three_words(monkeypatch):
    p1 = _cold(build_yangian_sl2())
    p2 = build_yangian_sl2()
    p2.degree_bound = 16
    H1, H2 = build_hopf(p1), build_hopf(p2)
    want = [(rel.label, "zero", None) for rel in p1.relations]
    assert check_twisted_homomorphism(H1, 3) == want
    counts = {"calls": 0, "words": 0, "rewritten": 0, "foreign": 0}
    rewrite_words = Presentation._rewrite_words
    word_normal_forms = Presentation._word_normal_forms

    def counting_rewrite_words(self, words, bound):
        counts["rewritten"] += len(words)
        return rewrite_words(self, words, bound)

    def counting_word_normal_forms(self, words, bound):
        counts["calls"] += 1
        nfs = word_normal_forms(self, words, bound)
        counts["words"] += len(nfs)
        counts["foreign"] += sum(nf.alphabet is not p2.alphabet
                                 for nf in nfs.values())
        return nfs

    monkeypatch.setattr(Presentation, "_rewrite_words",
                        counting_rewrite_words)
    monkeypatch.setattr(Presentation, "_word_normal_forms",
                        counting_word_normal_forms)
    rows = check_twisted_homomorphism(H2, 4)
    monkeypatch.undo()
    assert rows == want
    assert counts == {"calls": 148, "words": 1_491, "rewritten": 144,
                      "foreign": 0}


# lifting each product to the lcm as (n1 * n2) * _q_product(top - s) made
# two MultiPoly products per pair; each lifted product is now added term by
# term into the one exponent dict of the sum
def test_sum_of_products_makes_no_multipoly_product(monkeypatch):
    pairs = [(rf("(q^2 + eta*q + 3)/q"), rf("eta - 1")),
             (rf("1/((q - 1)*(q + 1))"), rf("eta")),
             (rf("(2*q + eta)/q"), rf("1/(q + 1)"))]
    # the first pair's split (1, 0, 0) is lifted by (q - 1)*(q + 1)
    assert [a.split for a, _ in pairs] == [(1, 0, 0), (0, 1, 1), (1, 0, 0)]
    want = sum((a * b for a, b in pairs), RatFunc.zero())
    ratfunc.sum_of_products(pairs)  # fills the memo of the lifts
    counts = {"poly_mul": 0}
    monkeypatch.setattr(MultiPoly, "__mul__",
                        _counting(counts, "poly_mul", MultiPoly.__mul__))
    got = ratfunc.sum_of_products(pairs)
    monkeypatch.undo()
    assert got == want
    assert counts == {"poly_mul": 0}


@pytest.mark.parametrize("kind", ["rational", "twisted_yangian"])
def test_cybe_residual_builds_one_witness_rep(monkeypatch, kind):
    # building the fundamental representation once per slot pair built
    # classical-sl2 and validated its representation three times
    counts = {"spin_rep": 0, "rep_build": 0}
    monkeypatch.setattr(rmatrix, "spin_rep",
                        _counting(counts, "spin_rep", rmatrix.spin_rep))
    monkeypatch.setattr(repn.Rep, "__init__",
                        _counting(counts, "rep_build", repn.Rep.__init__))
    residual = rmatrix.cybe_residual(rmatrix.build_r(kind))
    monkeypatch.undo()
    assert residual.nrows == 8
    assert counts == {"spin_rep": 1, "rep_build": 1}


# with r_12, r_13, r_23 carrying their denominators, every entry product and
# sum of the commutators cancelled through mp_gcd: 1,255 calls (recursive
# ones included) for twisted_yangian and 1,005 for sum:rational+dj_constant.
# Cleared, the lcm took one gcd per distinct denominator, 1 included (2 and
# 196); ratfunc.clear_denominators starts from the first denominator that is
# not 1, so twisted_yangian's one such denominator costs none, and only a
# nonzero residual pays for the final division by d12, d13 and d23
@pytest.mark.parametrize("kind, gcds", [("twisted_yangian", 0),
                                        ("sum:rational+dj_constant", 195)])
def test_cybe_residual_clears_denominators_once(monkeypatch, kind, gcds):
    r = rmatrix.build_r(kind)
    counts = {"mp_gcd": 0}
    counting = _counting(counts, "mp_gcd", ratfunc.mp_gcd)
    monkeypatch.setattr(ratfunc, "mp_gcd", counting)
    residual = rmatrix.cybe_residual(r)
    monkeypatch.undo()
    assert residual.is_zero() == (kind == "twisted_yangian")
    assert counts["mp_gcd"] == gcds


# multiplying each coefficient into each entry of its word matrix took 271
# RatFunc products for these 200 elements in the q-eval(sl2) witness; the
# 92 pairs with the shared RatFunc.one() as a factor now take none
def test_witness_evaluation_skips_products_by_one(monkeypatch):
    p = _cold(get_presentation("drinfeldian-sl2"))
    r, = default_reps(p)
    samples = _drinfeldian_sl2_samples(p, 200, seed=7)
    one = RatFunc.one()
    pairs = by_one = 0
    for x in samples:
        r.evaluate(x)  # memoizes every word matrix before the count
        for word, c in x.terms.items():
            for a in r._word_matrix(word).entries.values():
                pairs += 1
                by_one += c is one or a is one
    counts = {"mul": 0}
    monkeypatch.setattr(RatFunc, "__mul__",
                        _counting(counts, "mul", RatFunc.__mul__))
    for x in samples:
        r.evaluate(x)
    monkeypatch.undo()
    assert (pairs, by_one) == (271, 92)
    assert counts["mul"] == pairs - by_one


# reading the affine system off one throw-away candidate rep per relation
# and unit vector built 24 unvalidated reps per spin (72 in all); the four
# candidates of each spin are now shared by every linear relation
def test_eval_correction_builds_four_candidate_reps(monkeypatch):
    p = _cold(get_presentation("yangian-sl2"))
    counts = {"candidate": 0, "validated": 0}
    init = repn.Rep.__init__

    def counting_init(self, presentation, images, label, validate=True):
        counts["validated" if validate else "candidate"] += 1
        init(self, presentation, images, label, validate)

    monkeypatch.setattr(repn.Rep, "__init__", counting_init)
    labels = [repn.solve_eval_correction(j, p).label
              for j in (Fraction(1, 2), 1, Fraction(3, 2))]
    monkeypatch.undo()
    assert labels == ["eval-spin(1/2)", "eval-spin(1)", "eval-spin(3/2)"]
    assert counts == {"candidate": 12, "validated": 3}


# twist-series runs the twist suite on yangian-sl2 at order 3 and at order 4
# (degree bound 16), each on one HopfData, with the zeta = 0 round trip of
# the twisted maps on the generators at order 3.  Each check and map built
# F, F^-1, u and u^-1 afresh, and the twisted images of its own words: 18
# twist_F, 16 series_inverse, 6 _partner, and 44 single-word twisted
# coproducts (24 distinct) and 28 antipodes.  The twisted structure of a
# HopfData at an order now builds each once.  The cocycle and counit checks
# built their own F (6 twist_F calls); build_hopf(p) now returns the
# HopfData the workload holds, so they take F from its twisted structure.
# Only the empty word and the one-letter words are conjugated now: a longer
# word's twisted image is the product of its prefix's and its last letter's
# memoized images, so the single-word conjugations fell from 24 coproducts
# and 24 antipodes to 10 and 10 (the empty word and the four generators at
# each of the two orders)
def test_twist_suite_builds_each_series_once_per_order(monkeypatch):
    counts = dict.fromkeys(("twist_F", "series_inverse", "_partner",
                            "delta", "antipode"), 0)
    for name in ("twist_F", "series_inverse", "_partner"):
        monkeypatch.setattr(twist, name,
                            _counting(counts, name, getattr(twist, name)))
    for name, key in (("_twisted_delta", "delta"),
                      ("_twisted_S", "antipode")):
        fn = getattr(twist, name)

        def single_word(H, left, right, x, N, fn=fn, key=key):
            counts[key] += len(x.terms) == 1
            return fn(H, left, right, x, N)

        monkeypatch.setattr(twist, name, single_word)
    for order, bound in ((3, 12), (4, 16)):
        p = build_yangian_sl2()
        p.degree_bound = bound
        H = build_hopf(p)
        r = repn.solve_eval_correction(Fraction(1, 2), p)
        rows = (twist.check_cocycle(order, reps=(r, r, r), p=p)
                + twist.check_twisted_coassoc(H, order)
                + twist.check_twisted_homomorphism(H, order)
                + twist.check_twisted_antipode(H, order)
                + twist.check_twist_counit(order, p=p))
        assert {verdict for _, verdict, _ in rows} == {"zero"}
        if order == 3:
            for name in H.delta:
                x = p.gen(name)
                twist.twisted_coproduct(x, H, order)
                twist.twisted_antipode(x, H, order)
    monkeypatch.undo()
    assert counts == {"twist_F": 2, "series_inverse": 4, "_partner": 2,
                      "delta": 10, "antipode": 10}


# The cocycle and counit checks read F alone: the twisted structure builds
# F^-1 on its first twisted coproduct, not with F
def test_cocycle_check_inverts_no_series(monkeypatch):
    counts = {"series_inverse": 0}
    monkeypatch.setattr(twist, "series_inverse", _counting(
        counts, "series_inverse", twist.series_inverse))
    p = build_yangian_sl2()
    rows = twist.check_cocycle(3, p=p) + twist.check_twist_counit(3, p=p)
    assert {verdict for _, verdict, _ in rows} == {"zero"}
    assert counts == {"series_inverse": 0}
    twist.check_twisted_coassoc(build_hopf(p), 3)
    assert counts == {"series_inverse": 1}
