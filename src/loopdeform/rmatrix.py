"""Classical rank-1 r-matrices and an exact Yang-Baxter residual.

Elements of g (x) g are stored against the abstract basis {h, e, f} with
brackets [h,e] = 2e, [h,f] = -2f, [e,f] = h and the normalization that gives
the quadratic Casimir e(x)f + f(x)e + (1/2) h(x)h.  The classical
Yang-Baxter residual [r12, r13] + [r12, r23] + [r13, r23] is computed in the
two-dimensional fundamental representation, where the three slot embeddings
become exact 8x8 matrices over the rational-function field; spectral
dependence enters through the variables u, v, w.
"""

from fractions import Fraction

from .freealg import TensorPoly, add_term
from .ratfunc import rf
from .repn import MatrixRF, evaluate_tensor, spin_rep

#: Fixed basis order used for canonical term sorting.
BASIS = ("h", "e", "f")

#: Default mapping of abstract basis letters to presentation generator names.
GENERATOR_NAMES = {"h": "ha1", "e": "e+a1", "f": "e-a1"}


class RMatrix:
    """A two-slot element of the rank-1 Lie algebra with exact coefficients.

    ``terms`` is a canonically sorted tuple of (coefficient, left basis
    letter, right basis letter); duplicate slots are merged and zero
    coefficients dropped on construction."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        acc = {}
        for c, left, right in terms:
            if left not in BASIS or right not in BASIS:
                raise ValueError("unknown basis letter in (%s, %s)"
                                 % (left, right))
            add_term(acc, (left, right), rf(c))
        order = {b: i for i, b in enumerate(BASIS)}
        self.terms = tuple(
            (acc[k], k[0], k[1])
            for k in sorted(acc, key=lambda k: (order[k[0]], order[k[1]])))

    def __add__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return RMatrix(self.terms + other.terms)

    def __sub__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return self + other.scale(rf(-1))

    def __neg__(self):
        return self.scale(rf(-1))

    def scale(self, c) -> "RMatrix":
        c = rf(c)
        return RMatrix([(c * c0, l, r) for c0, l, r in self.terms])

    def swap_slots(self) -> "RMatrix":
        return RMatrix([(c, r, l) for c, l, r in self.terms])

    def map_coeffs(self, fn) -> "RMatrix":
        """Apply fn to every coefficient (substitutions, renamings, limits)."""
        return RMatrix([(fn(c), l, r) for c, l, r in self.terms])

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, RMatrix) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%s(x)%s" % (c, l, r)
                          for c, l, r in self.terms)

    def __repr__(self):
        return "RMatrix(%s)" % (self,)

    def as_tensor_poly(self, p) -> TensorPoly:
        """The same element inside the tensor square of a shipped rank-1
        presentation (basis letters named by GENERATOR_NAMES)."""
        out = {}
        for c, left, right in self.terms:
            add_term(out, ((p.alphabet.id_of(GENERATOR_NAMES[left]),),
                           (p.alphabet.id_of(GENERATOR_NAMES[right]),)), c)
        return TensorPoly(p.alphabet, 2, out)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def casimir_c2() -> RMatrix:
    """Quadratic Casimir e(x)f + f(x)e + (1/2) h(x)h (root norm fixed at 2)."""
    return RMatrix([(rf(1), "e", "f"), (rf(1), "f", "e"),
                    (rf("1/2"), "h", "h")])


def wedge(x: str, y: str) -> RMatrix:
    """Antisymmetrized product x(x)y - y(x)x of two basis letters."""
    return RMatrix([(rf(1), x, y), (rf(-1), y, x)])


#: Recognized r-matrix kinds for build_r.
R_KINDS = ("rational", "jordanian", "twisted_yangian", "dj_constant")


def build_r(kind: str, parts=()) -> RMatrix:
    """Named classical r-matrices.

    rational         eta * c2 / (u - v)            (spectral-difference form)
    jordanian        zeta * (h(x)f - f(x)h)        (constant triangular form)
    twisted_yangian  their sum
    dj_constant      e(x)f + (1/4) h(x)h           (constant modeling choice)
    sum              the sum of the named parts, also spellable inline as
                     "sum:rational+dj_constant"
    """
    if kind.startswith("sum:"):
        parts = tuple(kind[len("sum:"):].split("+"))
        kind = "sum"
    if kind == "rational":
        return casimir_c2().scale(rf("eta") / (rf("u") - rf("v")))
    if kind == "jordanian":
        return wedge("h", "f").scale(rf("zeta"))
    if kind == "twisted_yangian":
        return build_r("rational") + build_r("jordanian")
    if kind == "dj_constant":
        return RMatrix([(rf(1), "e", "f"), (rf("1/4"), "h", "h")])
    if kind == "sum":
        if not parts:
            raise ValueError("sum needs at least one named part")
        acc = build_r(parts[0])
        for name in parts[1:]:
            acc = acc + build_r(name)
        return acc
    raise ValueError("unknown r-matrix kind %r (expected one of %s or sum)"
                     % (kind, ", ".join(R_KINDS)))


# ---------------------------------------------------------------------------
# classical Yang-Baxter residual
# ---------------------------------------------------------------------------


def _r_in_slots(pair: TensorPoly, rep, slots, spectral) -> MatrixRF:
    """8x8 image of the two-slot element pair in two of the three slots,
    with the spectral variables (u, v) simultaneously renamed per the slot
    pair: pair as a three-slot tensor element whose remaining slot holds the
    empty word (the identity), evaluated with rep in every slot."""
    terms = {}
    for key, c in pair.terms.items():
        words = [(), (), ()]
        words[slots[0]], words[slots[1]] = key
        terms[tuple(words)] = c.map_vars(spectral)
    return evaluate_tensor(TensorPoly(pair.alphabet, 3, terms), [rep] * 3)


def cybe_residual(r: RMatrix) -> MatrixRF:
    """[r12, r13] + [r12, r23] + [r13, r23] as an exact 8x8 matrix.

    Slot pairs carry spectral arguments (u,v), (u,w), (v,w): the single
    spectral pair of r is renamed simultaneously for each embedding.  A zero
    result is an identity of rational functions in u, v, w and the
    deformation parameters, not a numerical check.  The fundamental
    representation is built once and acts in all three slots."""
    rep = spin_rep(Fraction(1, 2))
    pair = r.as_tensor_poly(rep.presentation)
    r12 = _r_in_slots(pair, rep, (0, 1), {})
    r13 = _r_in_slots(pair, rep, (0, 2), {"v": "w"})
    r23 = _r_in_slots(pair, rep, (1, 2), {"u": "v", "v": "w"})
    return (r12.commutator(r13) + r12.commutator(r23)
            + r13.commutator(r23))
