"""Exact finite-dimensional representations over the rational-function field.

These matrices are the independent zero-witness oracle for the rewrite
systems: a word-combination that a presentation cannot reduce to zero is
declared nonzero only when some shipped representation evaluates it to a
nonzero matrix.

The rank-1 loop algebras act on the usual (2j+1)-dimensional weight ladders
extended by an evaluation image of the loop generator; the correction term of
that image is *solved for*, not assumed, so representation existence is a
computed fact.  The q-deformed algebras act through the type-A vector
representation that _uq_images builds from the Cartan data.  The table
_WITNESSES, read by default_reps, lists each shipped algebra's witnesses.

A MatrixRF keeps only its nonzero entries, keyed by (i, j), and every
operation works on that dict.  Evaluation stays exact and symbolic, and
Rep.evaluate and evaluate_tensor share one in-place sum (_add_scaled):
acc[(i, j)] += c * a over the entries a of a matrix, dropping an entry
that cancels.  Rep.evaluate feeds it each word's matrix (memoized per word)
as it is; evaluate_tensor feeds it the kron of each term's slot matrices.
The classical Yang-Baxter residual of rmatrix goes through evaluate_tensor.
Field sums are canonical, so the entries equal those of the dense
kron / scale / + evaluation.

The coproduct-homomorphism witness, the pulled-back representation
(r (x) r) o delta, is built in hopf; hopf.check_homomorphism says why it
equals evaluate_tensor on delta(z).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    ArityMismatchError,
    NoSolutionError,
    RepValidationError,
    UnknownGeneratorError,
    UnsupportedAlgebraError,
)
from .freealg import NCPoly, TensorPoly, add_term
from .presentations import (
    Presentation,
    build_classical_sl2,
    loop_shift_coefficient,
)
from .ratfunc import RatFunc, rf


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------


class MatrixRF:
    """Matrix with RatFunc entries, stored sparsely: a dict
    {(i, j): nonzero entry} plus its shape.  Equality is entrywise
    structural."""

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, rows):
        rows = [[rf(c) for c in row] for row in rows]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged matrix rows")
        self.entries = {(i, j): c for i, r in enumerate(rows)
                        for j, c in enumerate(r) if not c.is_zero()}

    @classmethod
    def _sparse(cls, entries, nrows, ncols):
        """A matrix of the given shape from a dict of nonzero entries."""
        out = cls.__new__(cls)
        out.entries, out.nrows, out.ncols = entries, nrows, ncols
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, n, m=None):
        return cls._sparse({}, n, n if m is None else m)

    @classmethod
    def identity(cls, n):
        one = rf(1)
        return cls._sparse({(i, i): one for i in range(n)}, n, n)

    @classmethod
    def diagonal(cls, entries):
        entries = [rf(c) for c in entries]
        n = len(entries)
        return cls._sparse({(i, i): c for i, c in enumerate(entries)
                            if not c.is_zero()}, n, n)

    @classmethod
    def unit_entry(cls, n, i, j, value=1):
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError("entry (%d, %d) outside a %dx%d matrix"
                             % (i, j, n, n))
        value = rf(value)
        return cls._sparse({} if value.is_zero() else {(i, j): value}, n, n)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch in +")
        out = dict(self.entries)
        for key, c in other.entries.items():
            add_term(out, key, c)
        return MatrixRF._sparse(out, self.nrows, self.ncols)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, MatrixRF):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch in *")
        by_row = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        out = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                add_term(out, (i, j), a * b)
        return MatrixRF._sparse(out, self.nrows, other.ncols)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = rf(c)
        if c.is_zero():
            return MatrixRF.zeros(self.nrows, self.ncols)
        return MatrixRF._sparse({key: a * c for key, a in self.entries.items()},
                                self.nrows, self.ncols)

    def kron(self, other):
        p, q = other.nrows, other.ncols
        return MatrixRF._sparse(
            {(i * p + k, j * q + l): a * b
             for (i, j), a in self.entries.items()
             for (k, l), b in other.entries.items()},
            self.nrows * p, self.ncols * q)

    def commutator(self, other):
        return self * other - other * self

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, MatrixRF)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def entry(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("entry (%d, %d) outside a %dx%d matrix"
                             % (i, j, self.nrows, self.ncols))
        return self.entries.get((i, j), RatFunc.zero())

    def nonzero_entries(self):
        """(i, j, entry) of every nonzero entry, in row-major order."""
        return [(i, j, self.entries[i, j]) for i, j in sorted(self.entries)]

    @property
    def rows(self):
        """Dense tuple of row tuples, for printing and serialization."""
        zero = RatFunc.zero()
        get = self.entries.get
        return tuple(tuple(get((i, j), zero) for j in range(self.ncols))
                     for i in range(self.nrows))

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(c) for c in r) for r in self.rows) + "]"

    def __repr__(self):
        return "MatrixRF(%s)" % self


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


class Rep:
    """A presentation homomorphism into exact matrices.

    The constructor *proves* the homomorphism property: every generator must
    have an image, inverse pairs must multiply to the identity, and every
    defining relation must evaluate to the zero matrix, else
    RepValidationError.
    """

    def __init__(self, presentation: Presentation, images: dict, label: str,
                 validate=True):
        self.presentation = presentation
        self.label = label
        self.images = dict(images)
        A = presentation.alphabet
        dims = {m.nrows for m in self.images.values()}
        if len(dims) != 1:
            raise RepValidationError("%s: images of mixed dimensions" % label)
        self.dimension = dims.pop()
        # images never change after construction, so word products memoize
        self._word_cache = {}
        self._by_id = {}
        for s in A.symbols:
            if s.name not in self.images:
                raise RepValidationError(
                    "%s: generator %s has no image" % (label, s.name))
            self._by_id[A.id_of(s.name)] = self.images[s.name]
        if validate:
            ident = MatrixRF.identity(self.dimension)
            for i, j in A.inverse.items():
                if self._by_id[i] * self._by_id[j] != ident:
                    raise RepValidationError(
                        "%s: %s and %s are not inverse matrices"
                        % (label, A.name_of(i), A.name_of(j)))
            for rel in presentation.relations:
                res = self.evaluate(rel.zero_form(A))
                if not res.is_zero():
                    raise RepValidationError(
                        "%s: relation %s evaluates to %s"
                        % (label, rel.label, res))

    def evaluate(self, x: NCPoly) -> MatrixRF:
        acc = {}
        word_matrix = self._word_matrix
        for word, c in x.terms.items():
            _add_scaled(acc, c, word_matrix(word).entries.items())
        return MatrixRF._sparse(acc, self.dimension, self.dimension)

    def _word_matrix(self, word) -> MatrixRF:
        cache = self._word_cache
        m = cache.get(word)
        if m is None:
            if word:
                m = self._word_matrix(word[:-1])
                img = self._by_id.get(word[-1])
                if img is None:
                    raise UnknownGeneratorError(
                        self.presentation.alphabet.name_of(word[-1]))
                m = m * img
            else:
                m = MatrixRF.identity(self.dimension)
            cache[word] = m
        return m

    def __repr__(self):
        return "Rep(%s, dim=%d)" % (self.label, self.dimension)


def evaluate_tensor(x: TensorPoly, reps) -> MatrixRF:
    """Evaluate a tensor element; slot i runs through reps[i], slots combine
    by Kronecker product."""
    reps = list(reps)
    if x.arity != len(reps):
        raise ArityMismatchError(
            "tensor arity %d vs %d representations" % (x.arity, len(reps)))
    dim = 1
    for r in reps:
        dim *= r.dimension
    unit = MatrixRF.identity(1)
    acc = {}
    for words, c in x.terms.items():
        m = unit
        for word, r in zip(words, reps):
            m = m.kron(r._word_matrix(word))
        _add_scaled(acc, c, m.entries.items())
    return MatrixRF._sparse(acc, dim, dim)


def _add_scaled(acc, c, entries):
    """acc[key] += c * a for each (key, a) in entries, in place: a key whose
    sum cancels is removed.  c and every a are nonzero; no product is made
    when a factor is the shared RatFunc.one()."""
    get = acc.get
    one = RatFunc.one()
    for key, a in entries:
        if c is not one:
            a = c if a is one else c * a
        s = get(key)
        if s is None:
            acc[key] = a
        else:
            s = s + a
            if s.num.terms:
                acc[key] = s
            else:
                del acc[key]


# ---------------------------------------------------------------------------
# weight-ladder representations
# ---------------------------------------------------------------------------


def _half_integer(j):
    j = Fraction(j)
    twoj = j * 2
    if twoj.denominator != 1 or twoj < 0:
        raise ValueError("spin must be a non-negative half-integer, got %s" % j)
    return j, int(twoj)


def _ladder_images(j):
    """(h, e, f) on the (2j+1)-dimensional ladder: h diagonal 2j-2i, f the
    unit lower shift, e the upper shift with entries i(2j-i+1)."""
    j, twoj = _half_integer(j)
    d = twoj + 1
    h = MatrixRF.diagonal([Fraction(twoj - 2 * i) for i in range(d)])
    e = MatrixRF._sparse({(i, i + 1): rf(Fraction(i + 1) * (twoj - i))
                          for i in range(d - 1)}, d, d)
    f = MatrixRF._sparse({(i + 1, i): rf(1) for i in range(d - 1)}, d, d)
    return h, e, f


def spin_rep(j, p: Presentation = None) -> Rep:
    """The (2j+1)-dimensional representation of the plain rank-1 triple."""
    if p is None:
        p = build_classical_sl2()
    h, e, f = _ladder_images(j)
    return Rep(p, {"ha1": h, "e+a1": e, "e-a1": f}, "spin(%s)" % Fraction(j))


def solve_eval_correction(j, p: Presentation) -> Rep:
    """Extend the spin-j ladder to the loop presentation by an evaluation
    image of the loop generator.

    Ansatz: xi -> v*f + eta*(c1*f*h + c2*h*f + c3*f) with rational unknowns
    c1, c2, c3.  The relations linear in xi give an affine system over the
    coefficient field; it is solved by exact elimination, free directions are
    set to zero, and the remaining (nonlinear) relations are verified by the
    Rep constructor.  NoSolutionError carries the inconsistent constraints.

    The system is read off four unvalidated candidate reps, c = 0 and the
    three unit vectors, each built once and shared, with its memoized word
    matrices, by every linear relation.
    """
    h, e, f = _ladder_images(j)
    v, eta = rf("v"), rf("eta")
    basis = [f * h, h * f, f]

    def candidate(cs):
        m = f.scale(v)
        for c, b in zip(cs, basis):
            m = m + b.scale(eta * rf(c))
        return m

    images = {"ha1": h, "e+a1": e, "e-a1": f}
    A = p.alphabet
    xi_id = A.id_of("xi")
    r0, *units = [Rep(p, dict(images, xi=candidate(cs)), "candidate",
                      validate=False)
                  for cs in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]

    # affine extraction is only valid on the relations where every word
    # carries xi at most once; the Rep constructor verifies the others
    linear = []
    for rel in p.relations:
        z = rel.zero_form(A)
        if all(w.count(xi_id) <= 1 for w in z.terms):
            linear.append(z)

    # residual(z, c) = R0 + sum_k c_k * Rk ; read off by basis evaluation
    rows = []  # each: ([coeff_1, coeff_2, coeff_3], rhs) over RatFunc
    for z in linear:
        res0 = r0.evaluate(z)
        parts = [r.evaluate(z) - res0 for r in units]
        d = res0.nrows
        for i in range(d):
            for jj in range(d):
                coeffs = [parts[k].entry(i, jj) for k in range(3)]
                rhs = -res0.entry(i, jj)
                if all(c.is_zero() for c in coeffs) and rhs.is_zero():
                    continue
                rows.append((coeffs, rhs))

    solution = _solve_affine(rows)
    if solution is None:
        raise NoSolutionError(
            "no evaluation correction for spin %s: inconsistent constraints %s"
            % (Fraction(j), [(list(map(str, cs)), str(r)) for cs, r in rows]))
    for c in solution:
        if not (c.is_zero() or c.is_const()):
            raise NoSolutionError(
                "correction constants are not rational: %s"
                % [str(c) for c in solution])
    label = "eval-spin(%s)" % Fraction(j)
    return Rep(p, dict(images, xi=candidate(solution)), label)


def _solve_affine(rows):
    """Solve rows of (coeffs, rhs) for 3 unknowns over the RatFunc field by
    exact Gaussian elimination; free unknowns are set to 0; None if
    inconsistent."""
    rows = [([c for c in cs], r) for cs, r in rows]
    n = 3
    pivots = {}
    for col in range(n):
        pivot = None
        for idx, (cs, r) in enumerate(rows):
            if idx in pivots.values():
                continue
            if not cs[col].is_zero():
                pivot = idx
                break
        if pivot is None:
            continue
        pcs, pr = rows[pivot]
        inv = rf(1) / pcs[col]
        pcs = [c * inv for c in pcs]
        pr = pr * inv
        rows[pivot] = (pcs, pr)
        for idx, (cs, r) in enumerate(rows):
            if idx == pivot or cs[col].is_zero():
                continue
            factor = cs[col]
            rows[idx] = ([a - factor * b for a, b in zip(cs, pcs)],
                         r - factor * pr)
        pivots[col] = pivot
    sol = [rf(0)] * n
    for col, idx in pivots.items():
        sol[col] = rows[idx][1]
    # inconsistency: a row with all-zero coefficients but nonzero rhs (after
    # full elimination every row that is no pivot has all-zero coefficients)
    for idx, (cs, r) in enumerate(rows):
        if idx in pivots.values():
            continue
        if all(c.is_zero() for c in cs) and not r.is_zero():
            return None
    return sol


# ---------------------------------------------------------------------------
# q-side and loop-deformation representations
# ---------------------------------------------------------------------------


def _uq_images(cd) -> dict:
    """The vector representation of U_q(sl_n) on type-A Cartan data:
    e_i = E_(i,i+1), f_i = E_(i+1,i) and k_i = diag(..., q, 1/q, ...) with
    q at position i.  Other Cartan data raise UnsupportedAlgebraError."""
    n = cd.rank + 1
    type_a = tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0
                         for j in range(n - 1)) for i in range(n - 1))
    if cd.pairing_matrix != type_a:
        raise UnsupportedAlgebraError("%s is not of type A" % cd.name)
    q = rf("q")
    qi = rf(1) / q
    images = {}
    for i, lab in enumerate(cd.labels):
        k, ki = [rf(1)] * n, [rf(1)] * n
        k[i] = ki[i + 1] = q
        k[i + 1] = ki[i] = qi
        images["e+%s" % lab] = MatrixRF.unit_entry(n, i, i + 1)
        images["e-%s" % lab] = MatrixRF.unit_entry(n, i + 1, i)
        images["k+%s" % lab] = MatrixRF.diagonal(k)
        images["k-%s" % lab] = MatrixRF.diagonal(ki)
    return images


def _loop_rep(p: Presentation, label: str) -> Rep:
    """Extend q-side images to the loop deformation: the central letters act
    by the identity and the loop generator by (v + a) times the image of the
    presentation's shift element (an evaluation-type action)."""
    if p.shift_element is None:
        raise UnsupportedAlgebraError(
            "%s carries no loop shift element" % p.name)
    images = _uq_images(p.cartan)
    dim = p.cartan.rank + 1
    images["kd+"] = images["kd-"] = MatrixRF.identity(dim)
    probe = Rep(p, dict(images, xi=MatrixRF.zeros(dim)), "probe",
                validate=False)
    shift_img = probe.evaluate(p.shift_element)
    images["xi"] = shift_img.scale(rf("v") + loop_shift_coefficient())
    return Rep(p, images, label)


def _spins(build):
    """The spin-1/2 and spin-1 representations that build(j, p) gives."""
    return lambda p: (build(Fraction(1, 2), p), build(1, p))


#: The shipped zero-witness oracles of each algebra, by name.
_WITNESSES = {
    "uq-sl2": lambda p: (Rep(p, _uq_images(p.cartan), "q-spin(1/2)"),),
    "uq-sl3": lambda p: (Rep(p, _uq_images(p.cartan), "q-fund(sl3)"),),
    "drinfeldian-sl2": lambda p: (_loop_rep(p, "q-eval(sl2)"),),
    "drinfeldian-sl3": lambda p: (_loop_rep(p, "q-eval(sl3)"),),
    "yangian-sl2": _spins(solve_eval_correction),
    "twisted-yangian-sl2": _spins(solve_eval_correction),
    "classical-sl2": _spins(spin_rep),
}


def default_reps(p: Presentation):
    """The shipped zero-witness oracles for a presentation, by name, or ()."""
    build = _WITNESSES.get(p.name)
    return () if build is None else build(p)
