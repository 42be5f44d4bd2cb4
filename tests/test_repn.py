"""Exact-matrix representation tests.

The ladder matrices are frozen from the closed form h = diag(2j-2i),
f = unit lower shift, e_(i,i+1) = (i+1)(2j-i); every derived expectation
below is computed by hand from those entries before being asserted.
"""

import itertools
import random
from fractions import Fraction

import pytest

from loopdeform.errors import (
    ArityMismatchError,
    NoSolutionError,
    RepValidationError,
    UnsupportedAlgebraError,
)
from loopdeform.freealg import NCPoly, TensorPoly, commutator, tensor
from loopdeform.presentations import (
    ALGEBRA_BUILDERS,
    CartanData,
    Relation,
    build_classical_sl2,
    build_yangian_sl2,
    cartan_data,
    get_presentation,
    specialize,
)
from loopdeform.ratfunc import q_power, rf
from loopdeform.repn import (
    MatrixRF,
    Rep,
    _uq_images,
    default_reps,
    evaluate_tensor,
    solve_eval_correction,
    spin_rep,
)


# ---------------------------------------------------------------------------
# MatrixRF basics
# ---------------------------------------------------------------------------


def test_matrix_ring_ops():
    a = MatrixRF([[1, 2], [3, 4]])
    b = MatrixRF([[0, 1], [1, 0]])
    assert a * b == MatrixRF([[2, 1], [4, 3]])
    assert b * a == MatrixRF([[3, 4], [1, 2]])
    assert a - a == MatrixRF.zeros(2)
    assert (a - a).is_zero()
    assert a * MatrixRF.identity(2) == a == MatrixRF.identity(2) * a


def test_matrix_kron():
    a = MatrixRF([[1, 2], [0, 1]])
    ident = MatrixRF.identity(2)
    k = a.kron(ident)
    # block structure: a[i][j] * I at block (i, j)
    assert k.entry(0, 0) == rf(1)
    assert k.entry(0, 2) == rf(2)
    assert k.entry(1, 3) == rf(2)
    assert k.entry(2, 2) == rf(1)
    assert k.entry(2, 0) == rf(0)
    assert k.nrows == 4


# ---------------------------------------------------------------------------
# sparse MatrixRF against a list-of-lists reference
# ---------------------------------------------------------------------------

def _random_rows(rng, n, m):
    """An n x m list of lists, about half of it zero, with one zero row and
    one zero column."""
    rows = [[rf(rng.choice(_COEFFS)) if rng.random() < 0.5 else rf(0)
             for _ in range(m)] for _ in range(n)]
    zero_row, zero_col = rng.randrange(n), rng.randrange(m)
    rows[zero_row] = [rf(0)] * m
    for r in rows:
        r[zero_col] = rf(0)
    return rows


def _ref_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), rf(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _tuples(rows):
    return tuple(tuple(r) for r in rows)


def _ref_nonzero(rows):
    return [(i, j, x) for i, r in enumerate(rows) for j, x in enumerate(r)
            if not x.is_zero()]


def test_sparse_matrix_matches_list_reference():
    rng = random.Random(20261018)
    for _ in range(40):
        n, k, m, p = (rng.randint(1, 4) for _ in range(4))
        a_rows, b_rows = _random_rows(rng, n, k), _random_rows(rng, k, m)
        c_rows, d_rows = _random_rows(rng, n, k), _random_rows(rng, m, p)
        a, b, c, d = (MatrixRF(r) for r in (a_rows, b_rows, c_rows, d_rows))
        assert a.rows == _tuples(a_rows) and (a.nrows, a.ncols) == (n, k)
        assert a.nonzero_entries() == _ref_nonzero(a_rows)
        # products and sums fill their dicts out of row-major order
        assert (c + a).nonzero_entries() == _ref_nonzero(
            [[y + x for x, y in zip(ra, rc)] for ra, rc in zip(a_rows, c_rows)])
        assert a.kron(b).nonzero_entries() == _ref_nonzero(
            _ref_kron(a_rows, b_rows))
        assert (a * b).nonzero_entries() == _ref_nonzero(
            _ref_mul(a_rows, b_rows))
        assert (a * b).rows == _tuples(_ref_mul(a_rows, b_rows))
        assert (a * b * d).rows == _tuples(
            _ref_mul(_ref_mul(a_rows, b_rows), d_rows))
        assert a.kron(b).rows == _tuples(_ref_kron(a_rows, b_rows))
        assert (a.kron(b).nrows, a.kron(b).ncols) == (n * k, k * m)
        assert (a + c).rows == _tuples(
            [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a_rows, c_rows)])
        assert (a - c).rows == _tuples(
            [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(a_rows, c_rows)])
        z = rf(rng.choice(_COEFFS))
        assert a.scale(z).rows == _tuples([[x * z for x in r] for r in a_rows])
        assert a.is_zero() == all(x.is_zero() for r in a_rows for x in r)
        assert all(a.entry(i, j) == a_rows[i][j]
                   for i in range(n) for j in range(k))
        with pytest.raises(IndexError):
            a.entry(n, 0)
        if (n, k) != (k, m):
            with pytest.raises(ValueError):
                a + b
        if k != n:
            with pytest.raises(ValueError):
                a * c
            with pytest.raises(ValueError):
                a * a


def test_sparse_matrix_equality_and_hash_across_constructors():
    rng = random.Random(7)
    a_rows, b_rows = _random_rows(rng, 3, 2), _random_rows(rng, 2, 3)
    a, b = MatrixRF(a_rows), MatrixRF(b_rows)
    x, y = MatrixRF.unit_entry(2, 1, 1, 5), MatrixRF.unit_entry(2, 0, 0, 3)
    groups = [
        [MatrixRF.identity(3), MatrixRF.diagonal([1, 1, 1]),
         MatrixRF([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
         MatrixRF.identity(3) * MatrixRF.identity(3)],
        [MatrixRF.zeros(2, 3), MatrixRF([[0, 0, 0], [0, 0, 0]]),
         b - b, b.scale(0)],
        [MatrixRF.unit_entry(2, 0, 1, "q"), MatrixRF([[0, "q"], [0, 0]]),
         MatrixRF.unit_entry(2, 0, 1) * MatrixRF.diagonal([1, "q"])],
        [a * b, MatrixRF(_ref_mul(a_rows, b_rows))],
        [MatrixRF.diagonal([3, 5]), x + y, y + x],
        [a.kron(b), MatrixRF(_ref_kron(a_rows, b_rows))],
    ]
    for group in groups:
        for m in group[1:]:
            assert m == group[0] and hash(m) == hash(group[0])
    # no entries, different shapes: not equal
    assert MatrixRF.zeros(2, 3) != MatrixRF.zeros(3, 2)
    assert MatrixRF.zeros(2, 3) != MatrixRF.zeros(2)
    assert (b - b).nonzero_entries() == []
    assert (x + y).nonzero_entries() == [(0, 0, rf(3)), (1, 1, rf(5))]
    with pytest.raises(IndexError):
        MatrixRF.unit_entry(2, 2, 0)


# ---------------------------------------------------------------------------
# ladder representations
# ---------------------------------------------------------------------------


def test_spin_half_matrices():
    r = spin_rep(Fraction(1, 2))
    assert r.images["ha1"] == MatrixRF.diagonal([1, -1])
    assert r.images["e+a1"] == MatrixRF([[0, 1], [0, 0]])
    assert r.images["e-a1"] == MatrixRF([[0, 0], [1, 0]])


def test_spin_one_cross_relation_entrywise():
    # oracle: direct 3x3 multiplication of the frozen ladder entries
    r = spin_rep(1)
    h, e, f = r.images["ha1"], r.images["e+a1"], r.images["e-a1"]
    assert h == MatrixRF.diagonal([2, 0, -2])
    assert e.commutator(f) == h
    assert h.commutator(e) == e.scale(2)
    assert h.commutator(f) == f.scale(-2)


def test_spin_zero_is_trivial():
    r = spin_rep(0)
    assert r.dimension == 1
    assert all(m.is_zero() for m in r.images.values())


def test_spin_rejects_bad_j():
    with pytest.raises(ValueError):
        spin_rep(Fraction(1, 3))
    with pytest.raises(ValueError):
        spin_rep(-1)


# ---------------------------------------------------------------------------
# evaluation representations of the loop presentation
# ---------------------------------------------------------------------------


def test_eval_correction_spin_half():
    # at j=1/2 both squares e^2 and f^2 vanish, so every constraint on the
    # correction constants is vacuous and the free directions are set to 0
    r = solve_eval_correction(Fraction(1, 2), build_yangian_sl2())
    assert r.images["xi"] == MatrixRF([[0, 0], ["v", 0]])


def test_eval_correction_spin_one_frozen():
    # hand value: xi -> v*f + (eta/2)*f*h with h = diag(2,0,-2) gives
    # subdiagonal (v + eta, v)
    r = solve_eval_correction(1, build_yangian_sl2())
    xi = r.images["xi"]
    assert xi.entry(1, 0) == rf("v") + rf("eta")
    assert xi.entry(2, 1) == rf("v")
    assert xi.entry(0, 0).is_zero() and xi.entry(1, 2).is_zero()


def test_eval_correction_spin_three_half_frozen():
    # h = diag(3,1,-1): subdiagonal v + eta*h_ii/2
    r = solve_eval_correction(Fraction(3, 2), build_yangian_sl2())
    xi = r.images["xi"]
    eta, v = rf("eta"), rf("v")
    assert xi.entry(1, 0) == v + eta * Fraction(3, 2)
    assert xi.entry(2, 1) == v + eta * Fraction(1, 2)
    assert xi.entry(3, 2) == v - eta * Fraction(1, 2)


def test_eval_rep_annihilates_all_relations():
    p = build_yangian_sl2()
    for j in (Fraction(1, 2), 1, Fraction(3, 2)):
        r = solve_eval_correction(j, p)
        for rel in p.relations:
            res = r.evaluate(rel.zero_form(p.alphabet))
            assert res.is_zero(), (j, rel.label, str(res))


def test_dropped_correction_is_caught():
    # mutation: at j=1 the naive image xi -> v*f misses the eta-correction;
    # the commutation rule's zero form xi.f - f.xi + eta f^2 then evaluates
    # to eta * image(f^2) != 0
    p = build_yangian_sl2()
    r_good = solve_eval_correction(1, p)
    naive = dict(r_good.images, xi=r_good.images["e-a1"].scale(rf("v")))
    with pytest.raises(RepValidationError):
        Rep(p, naive, "naive")
    r_bad = Rep(p, naive, "naive", validate=False)
    rel = p.relation("loop-comm:e-a1")
    res = r_bad.evaluate(rel.zero_form(p.alphabet))
    f2 = r_good.images["e-a1"] * r_good.images["e-a1"]
    assert res == f2.scale(rf("eta"))
    assert not res.is_zero()


def test_no_solution_is_reported():
    # mutate the loop commutation rule so no evaluation image can satisfy it:
    # [f, xi] = eta*f^2 + e has no weight -2 solution
    p = build_yangian_sl2()
    idx = next(i for i, r in enumerate(p.relations)
               if r.label == "loop-comm:e-a1")
    bad = p.relations[idx]
    p.relations = (p.relations[:idx]
                   + (Relation(bad.label, bad.lead, bad.repl + p.gen("e+a1")),)
                   + p.relations[idx + 1:])
    with pytest.raises(NoSolutionError):
        solve_eval_correction(1, p)


# ---------------------------------------------------------------------------
# q-side representations
# ---------------------------------------------------------------------------


def test_uq_spin_half_cross_relation():
    r = default_reps(get_presentation("uq-sl2"))[0]
    e, f = r.images["e+a1"], r.images["e-a1"]
    k, ki = r.images["k+a1"], r.images["k-a1"]
    lhs = e * f - f * e
    rhs = (k - ki).scale(rf(1) / (rf("q") - q_power(-1)))
    assert lhs == rhs == MatrixRF.diagonal([1, -1])
    assert k * ki == MatrixRF.identity(2)


def test_uq_fundamental_sl3_validates():
    r = default_reps(get_presentation("uq-sl3"))[0]
    assert r.dimension == 3
    p = r.presentation
    for rel in p.relations:
        assert r.evaluate(rel.zero_form(p.alphabet)).is_zero(), rel.label


def test_drinfeldian_reps_validate():
    # the constructors re-run every defining relation including the mixed
    # loop rules, so surviving construction is itself the assertion
    d2 = default_reps(get_presentation("drinfeldian-sl2"))[0]
    assert d2.dimension == 2
    d3 = default_reps(get_presentation("drinfeldian-sl3"))[0]
    assert d3.dimension == 3
    # loop generator acts by (v + eta*q/(q^2-1)) times the shift image
    num = d2.images["xi"].entry(1, 0)
    assert num == (rf("v") + rf("eta") * rf("q") / (rf("q") ** 2 - rf(1))) * rf("q")


def test_uq_images_are_the_vector_representation():
    q = rf("q")
    qi = rf(1) / q
    one = rf(1)
    assert _uq_images(cartan_data("sl2")) == {
        "e+a1": MatrixRF([[0, 1], [0, 0]]),
        "e-a1": MatrixRF([[0, 0], [1, 0]]),
        "k+a1": MatrixRF([[q, 0], [0, qi]]),
        "k-a1": MatrixRF([[qi, 0], [0, q]]),
    }
    assert _uq_images(cartan_data("sl3")) == {
        "e+a1": MatrixRF([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        "e+a2": MatrixRF([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
        "e-a1": MatrixRF([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
        "e-a2": MatrixRF([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
        "k+a1": MatrixRF([[q, 0, 0], [0, qi, 0], [0, 0, one]]),
        "k-a1": MatrixRF([[qi, 0, 0], [0, q, 0], [0, 0, one]]),
        "k+a2": MatrixRF([[one, 0, 0], [0, q, 0], [0, 0, qi]]),
        "k-a2": MatrixRF([[one, 0, 0], [0, qi, 0], [0, 0, q]]),
    }


def test_uq_images_refuse_cartan_data_not_of_type_a():
    b2 = CartanData("B2", ((2, -1), (-2, 2)), (2, 1), ("a1", "a2"), (1, 2))
    with pytest.raises(UnsupportedAlgebraError):
        _uq_images(b2)


def test_rep_requires_all_generators():
    p = get_presentation("uq-sl2")
    with pytest.raises(RepValidationError):
        Rep(p, {"e+a1": MatrixRF.zeros(2)}, "partial")


def test_rep_requires_inverse_pairs():
    p = get_presentation("uq-sl2")
    q = rf("q")
    images = {
        "e+a1": MatrixRF.unit_entry(2, 0, 1),
        "e-a1": MatrixRF.unit_entry(2, 1, 0),
        "k+a1": MatrixRF.diagonal([q, rf(1) / q]),
        "k-a1": MatrixRF.diagonal([q, rf(1) / q]),  # not the inverse
    }
    with pytest.raises(RepValidationError):
        Rep(p, images, "bad-inverse")


# ---------------------------------------------------------------------------
# tensor evaluation
# ---------------------------------------------------------------------------


def test_evaluate_tensor_loop_coproduct():
    # hand Kronecker expansion of xi(x)1 + 1(x)xi + eta f(x)h in the
    # two-dimensional ladder pair, basis |11>,|12>,|21>,|22>
    p = build_yangian_sl2()
    r = solve_eval_correction(Fraction(1, 2), p)
    A = p.alphabet
    one = NCPoly.unit(A)
    xi, f, h = p.gen("xi"), p.gen("e-a1"), p.gen("ha1")
    dx = tensor(xi, one) + tensor(one, xi) + rf("eta") * tensor(f, h)
    m = evaluate_tensor(dx, [r, r])
    v, eta = rf("v"), rf("eta")
    assert m.entry(1, 0) == v
    assert m.entry(2, 0) == v + eta
    assert m.entry(3, 1) == v - eta
    assert m.entry(3, 2) == v
    assert len(m.nonzero_entries()) == 4


def test_evaluate_tensor_is_multiplicative():
    p = build_yangian_sl2()
    r = spin_rep(Fraction(1, 2), build_classical_sl2())
    A = r.presentation.alphabet
    e, f, h = (NCPoly.gen(A, n) for n in ("e+a1", "e-a1", "ha1"))
    x = tensor(e, f) + tensor(h, h).scale(rf("eta"))
    y = tensor(f, h) - tensor(e, e).scale(2)
    lhs = evaluate_tensor(x * y, [r, r])
    rhs = evaluate_tensor(x, [r, r]) * evaluate_tensor(y, [r, r])
    assert lhs == rhs


def test_evaluate_tensor_arity_check():
    p = build_classical_sl2()
    r = spin_rep(1, p)
    x = tensor(p.gen("ha1"), p.gen("ha1"))
    with pytest.raises(ArityMismatchError):
        evaluate_tensor(x, [r])


# ---------------------------------------------------------------------------
# soundness of rewriting against the oracle
# ---------------------------------------------------------------------------


def test_default_reps_registry():
    labels = {}
    for name in ALGEBRA_BUILDERS:
        p = get_presentation(name)
        reps = default_reps(p)
        assert reps, name
        for r in reps:
            assert r.presentation is p
        labels[name] = [r.label for r in reps]
    assert labels == {
        "uq-sl2": ["q-spin(1/2)"],
        "uq-sl3": ["q-fund(sl3)"],
        "drinfeldian-sl2": ["q-eval(sl2)"],
        "drinfeldian-sl3": ["q-eval(sl3)"],
        "yangian-sl2": ["eval-spin(1/2)", "eval-spin(1)"],
        "twisted-yangian-sl2": ["eval-spin(1/2)", "eval-spin(1)"],
    }
    assert [r.label for r in default_reps(build_classical_sl2())] == [
        "spin(1/2)", "spin(1)"]


def test_default_reps_of_a_specialized_presentation_is_empty():
    sp = specialize(get_presentation("drinfeldian-sl2"),
                    {"q": 1, "kdelta": 1})
    assert default_reps(sp) == ()


def test_rewriting_zero_implies_matrix_zero():
    import random

    rnd = random.Random(20260815)
    p = build_yangian_sl2()
    reps = default_reps(p)
    names = [s.name for s in p.alphabet.symbols]
    for _ in range(25):
        # random two-sided multiple of a random relation: provably zero
        rel = rnd.choice(p.relations)
        left = NCPoly.word(p.alphabet, [rnd.choice(names)
                                        for _ in range(rnd.randrange(2))])
        right = NCPoly.word(p.alphabet, [rnd.choice(names)
                                         for _ in range(rnd.randrange(2))])
        z = left * rel.zero_form(p.alphabet) * right
        assert p.is_zero_mod(z, reps=reps) == "zero"
        for r in reps:
            assert r.evaluate(z).is_zero()


def test_is_zero_mod_nonzero_witness():
    p = build_yangian_sl2()
    reps = default_reps(p)
    e = p.gen("e+a1")
    assert p.is_zero_mod(commutator(e, p.gen("e-a1")), reps=reps) == "nonzero"
    assert p.is_zero_mod(e - e, reps=reps) == "zero"


# ---------------------------------------------------------------------------
# sparse evaluation against the dense kron / scale / + reference
# ---------------------------------------------------------------------------

_ALGEBRAS = ("uq-sl2", "uq-sl3", "drinfeldian-sl2", "drinfeldian-sl3",
             "yangian-sl2", "twisted-yangian-sl2", "classical-sl2")
_COEFFS = ("1", "-2", "1/3", "q", "eta", "v", "(q-1)/(q+1)", "1/q^2",
           "eta*q - u")


def _dense_word(rep, word):
    A = rep.presentation.alphabet
    m = MatrixRF.identity(rep.dimension)
    for i in word:
        m = m * rep.images[A.name_of(i)]
    return m


def _dense_evaluate(rep, x):
    acc = MatrixRF.zeros(rep.dimension)
    for word, c in x.terms.items():
        acc = acc + _dense_word(rep, word).scale(c)
    return acc


def _dense_evaluate_tensor(x, reps):
    dim = 1
    for r in reps:
        dim *= r.dimension
    acc = MatrixRF.zeros(dim)
    for words, c in x.terms.items():
        m = None
        for word, r in zip(words, reps):
            piece = _dense_word(r, word)
            m = piece if m is None else m.kron(piece)
        acc = acc + m.scale(c)
    return acc


def _random_word(rng, A):
    return tuple(rng.randrange(len(A.symbols))
                 for _ in range(rng.randint(0, 3)))


def _random_element(rng, A, arity=None):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (_random_word(rng, A) if arity is None
               else tuple(_random_word(rng, A) for _ in range(arity)))
        terms[key] = rf(rng.choice(_COEFFS))
    if arity is None:
        return NCPoly(A, terms)
    return TensorPoly(A, arity, terms)


@pytest.fixture(scope="module")
def shipped_reps():
    out = {}
    for name in _ALGEBRAS:
        p = (build_classical_sl2() if name == "classical-sl2"
             else get_presentation(name))
        out[name] = (p, default_reps(p))
    return out


@pytest.mark.parametrize("name", _ALGEBRAS)
def test_sparse_evaluate_matches_dense(shipped_reps, name):
    p, reps = shipped_reps[name]
    rng = random.Random(name)
    for r in reps:
        for _ in range(4):
            x = _random_element(rng, p.alphabet)
            assert r.evaluate(x) == _dense_evaluate(r, x)
        for rel in p.relations:
            z = rel.zero_form(p.alphabet)
            m = r.evaluate(z)
            assert m == _dense_evaluate(r, z) and m.is_zero()


@pytest.mark.parametrize("name", _ALGEBRAS)
def test_sparse_evaluate_tensor_matches_dense(shipped_reps, name):
    p, reps = shipped_reps[name]
    A = p.alphabet
    rng = random.Random(name)
    zeros = [rel.zero_form(A) for rel in p.relations[:3]]
    for arity in (2, 3):
        for slots in itertools.product(reps, repeat=arity):
            x = _random_element(rng, A, arity)
            assert evaluate_tensor(x, slots) == _dense_evaluate_tensor(x, slots)
            # a relation in one slot: a nonzero element that evaluates to 0
            others = [NCPoly(A, {_random_word(rng, A): rf("q")})
                      for _ in range(arity - 1)]
            for z in zeros:
                if z.is_zero():
                    continue
                for k in range(arity):
                    t = tensor(*(others[:k] + [z] + others[k:]))
                    m = evaluate_tensor(t, slots)
                    assert m == _dense_evaluate_tensor(t, slots)
                    assert m.is_zero()


@pytest.mark.parametrize("name", _ALGEBRAS)
def test_one_slot_evaluate_matches_the_tensor_path(shipped_reps, name):
    """Rep.evaluate adds each word's matrix into the result directly; the
    tensor path and the dense reference must give the same matrix, with its
    entries in the same order, also where a sum cancels an entry."""
    p, reps = shipped_reps[name]
    A = p.alphabet
    rng = random.Random("one slot " + name)
    for r in reps:
        cases = [(_random_element(rng, A), None) for _ in range(6)]
        for x, _ in list(cases):
            mx = r.evaluate(x)
            for _ in range(20):
                y = NCPoly(A, {_random_word(rng, A): rf(1)})
                my = r.evaluate(y)
                shared = [key for key in mx.entries if key in my.entries]
                if shared:
                    # x - s*y with entry `key` of the sum zero
                    key = shared[0]
                    s = mx.entries[key] / my.entries[key]
                    cases.append((x - y.scale(s), key))
                    break
        assert any(key is not None for _, key in cases)
        for x, key in cases:
            m = r.evaluate(x)
            t = evaluate_tensor(x.tensor(), [r])
            assert m == t == _dense_evaluate_tensor(x.tensor(), [r])
            assert list(m.entries) == list(t.entries)
            assert key not in m.entries
