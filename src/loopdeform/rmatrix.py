"""Classical rank-1 r-matrices and an exact Yang-Baxter residual.

An r-matrix is a two-slot TensorPoly over the classical sl2 alphabet, whose
letters GENERATOR_NAMES names as the basis {h, e, f} with brackets
[h,e] = 2e, [h,f] = -2f, [e,f] = h and the normalization that gives the
quadratic Casimir e(x)f + f(x)e + (1/2) h(x)h.  The classical Yang-Baxter
residual [r12, r13] + [r12, r23] + [r13, r23] is computed in the
two-dimensional fundamental representation: r is translated into the
representation's alphabet by letter name, placed in two of three slots, and
evaluated to an exact 8x8 matrix over the rational-function field; spectral
dependence enters through the variables u, v, w.
"""

from fractions import Fraction

from .errors import ArityMismatchError
from .freealg import NCPoly, TensorPoly, tensor
from .presentations import cartan_data, classical_alphabet, translate
from .ratfunc import rf
from .repn import MatrixRF, evaluate_tensor, spin_rep

#: Basis letters h, e, f and the classical sl2 letters they name.
GENERATOR_NAMES = {"h": "ha1", "e": "e+a1", "f": "e-a1"}

_ALPHABET = classical_alphabet(cartan_data("sl2"))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _basis(x: str) -> NCPoly:
    try:
        return NCPoly.gen(_ALPHABET, GENERATOR_NAMES[x])
    except KeyError:
        raise ValueError("unknown basis letter %r" % (x,)) from None


def casimir_c2() -> TensorPoly:
    """Quadratic Casimir e(x)f + f(x)e + (1/2) h(x)h (root norm fixed at 2)."""
    h, e, f = map(_basis, "hef")
    return tensor(e, f) + tensor(f, e) + tensor(h, h).scale(rf("1/2"))


def wedge(x: str, y: str) -> TensorPoly:
    """Antisymmetrized product x(x)y - y(x)x of two basis letters."""
    a, b = _basis(x), _basis(y)
    return tensor(a, b) - tensor(b, a)


#: Recognized r-matrix kinds for build_r.
R_KINDS = ("rational", "jordanian", "twisted_yangian", "dj_constant")


def build_r(kind: str) -> TensorPoly:
    """Named classical r-matrices.

    rational         eta * c2 / (u - v)            (spectral-difference form)
    jordanian        zeta * (h(x)f - f(x)h)        (constant triangular form)
    twisted_yangian  their sum
    dj_constant      e(x)f + (1/4) h(x)h           (constant modeling choice)
    sum:<a>+<b>      the sum of the named parts
    """
    if kind.startswith("sum:"):
        first, *rest = map(build_r, kind[len("sum:"):].split("+"))
        return sum(rest, first)
    if kind == "rational":
        return casimir_c2().scale(rf("eta") / (rf("u") - rf("v")))
    if kind == "jordanian":
        return wedge("h", "f").scale(rf("zeta"))
    if kind == "twisted_yangian":
        return build_r("rational") + build_r("jordanian")
    if kind == "dj_constant":
        h, e, f = map(_basis, "hef")
        return tensor(e, f) + tensor(h, h).scale(rf("1/4"))
    raise ValueError("unknown r-matrix kind %r (expected one of %s or "
                     "sum:<a>+<b>)" % (kind, ", ".join(R_KINDS)))


# ---------------------------------------------------------------------------
# classical Yang-Baxter residual
# ---------------------------------------------------------------------------


def cybe_residual(r: TensorPoly) -> MatrixRF:
    """[r12, r13] + [r12, r23] + [r13, r23] as an exact 8x8 matrix.

    r is any two-slot element over letters of classical sl2, by name
    (ArityMismatchError or ValueError otherwise).  Slot pairs carry spectral
    arguments (u,v), (u,w), (v,w): the spectral pair of r is renamed
    simultaneously for each embedding.  A zero result is an identity of
    rational functions, not a numerical check.  The fundamental
    representation is built once and acts in all three slots."""
    if r.arity != 2:
        raise ArityMismatchError(
            "an r-matrix has two slots, got arity %d" % r.arity)
    rep = spin_rep(Fraction(1, 2))
    pair = translate(r, rep.presentation.alphabet)
    if isinstance(pair, str):
        raise ValueError("r-matrix letter %s is not in %s"
                         % (pair, rep.presentation.name))

    def placed(slots, spectral):
        moved = pair.map_coeffs(lambda c: c.map_vars(spectral))
        return evaluate_tensor(moved.embed(slots, 3), [rep] * 3)

    r12 = placed((0, 1), {})
    r13 = placed((0, 2), {"v": "w"})
    r23 = placed((1, 2), {"u": "v", "v": "w"})
    return (r12.commutator(r13) + r12.commutator(r23)
            + r13.commutator(r23))
