"""Classical rank-1 r-matrices and an exact Yang-Baxter residual.

An r-matrix is a two-slot TensorPoly over the classical sl2 alphabet, whose
letters GENERATOR_NAMES names as the basis {h, e, f} with brackets
[h,e] = 2e, [h,f] = -2f, [e,f] = h and the normalization that gives the
quadratic Casimir e(x)f + f(x)e + (1/2) h(x)h.  The classical Yang-Baxter
residual [r12, r13] + [r12, r23] + [r13, r23] is computed in the
two-dimensional fundamental representation: r is translated into the
representation's alphabet by letter name, placed in two of three slots, and
evaluated to an exact 8x8 matrix over the rational-function field; spectral
dependence enters through the variables u, v, w.  The denominators of r are
cleared before the placement by ratfunc.clear_denominators, the helper the
twist suite's graded products share, so the three commutators are products
of matrices whose entries are polynomials with integer coefficients, and
cybe_residual divides a nonzero residual by the renamed common denominators
once, at the end.
"""

from fractions import Fraction

from .errors import ArityMismatchError
from .freealg import NCPoly, TensorPoly, tensor
from .presentations import alphabet, cartan_data, translate
from .ratfunc import clear_denominators, rf
from .repn import MatrixRF, evaluate_tensor, spin_rep

#: Basis letters h, e, f and the classical sl2 letters they name.
GENERATOR_NAMES = {"h": "ha1", "e": "e+a1", "f": "e-a1"}

_ALPHABET = alphabet(cartan_data("sl2"), "classical")


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
R_KINDS = ("rational", "jordanian", "twisted_yangian", "dj_constant",
           "trigonometric", "drinfeldian")


def build_r(kind: str) -> TensorPoly:
    """Named classical r-matrices.

    rational         eta * c2 / (u - v)            (spectral-difference form)
    jordanian        zeta * (h(x)f - f(x)h)        (constant triangular form)
    twisted_yangian  their sum
    dj_constant      e(x)f + (1/4) h(x)h           (constant modeling choice)
    trigonometric    v * c2 / (u - v) + dj_constant
    drinfeldian      rational + trigonometric      (the Drinfeldian's r-matrix)
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
    if kind == "trigonometric":
        return (casimir_c2().scale(rf("v") / (rf("u") - rf("v")))
                + build_r("dj_constant"))
    if kind == "drinfeldian":
        return build_r("rational") + build_r("trigonometric")
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
    representation is built once and acts in all three slots.

    With (d, P) from clear_denominators of r's coefficients, P = d*r has
    coefficients that are polynomials with integer coefficients, and each
    placed r_ij is P_ij/d_ij, where d_ij is d renamed like slot pair ij.
    The commutators are taken of the P_ij and summed as
    [P12,P13] d23 + [P12,P23] d13 + [P13,P23] d12, so no coefficient is
    reduced until the end: a nonzero sum is the only place where the
    residual is divided, entrywise by d12, d13 and d23 in turn."""
    if r.arity != 2:
        raise ArityMismatchError(
            "an r-matrix has two slots, got arity %d" % r.arity)
    rep = spin_rep(Fraction(1, 2))
    pair = translate(r, rep.presentation.alphabet)
    if isinstance(pair, str):
        raise ValueError("r-matrix letter %s is not in %s"
                         % (pair, rep.presentation.name))
    d, terms = clear_denominators(pair.terms)
    cleared = TensorPoly(pair.alphabet, 2, terms)

    def placed(slots, spectral):
        d_ij = d.map_vars(spectral)
        if d_ij.is_zero():
            raise ZeroDivisionError("renaming collapsed the denominator")
        moved = cleared.map_coeffs(lambda c: c.map_vars(spectral))
        return evaluate_tensor(moved.embed(slots, 3), [rep] * 3), d_ij

    p12, d12 = placed((0, 1), {})
    p13, d13 = placed((0, 2), {"v": "w"})
    p23, d23 = placed((1, 2), {"u": "v", "v": "w"})
    residual = (p12.commutator(p13).scale(d23)
                + p12.commutator(p23).scale(d13)
                + p13.commutator(p23).scale(d12))
    if residual.is_zero():
        return residual
    for d_ij in (d12, d13, d23):
        residual = residual.scale(1 / d_ij)
    return residual
