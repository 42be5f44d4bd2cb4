"""Free associative algebra over Q(q, eta, zeta, u, v, w).

Letters carry a weight vector (coordinates over the simple roots), an integer
loop degree, and optionally the name of an inverse letter.  Words are tuples
of letter ids; adjacent inverse pairs contract automatically, so group-like
generators and their inverses never pile up.  Every stored word is
contracted, and so is every slice of one: a product of two words can only
contract where they meet (Alphabet.join).  An alphabet with no inverse
letter has nothing to contract, so its words meet by concatenation.

NCPoly is a finite linear combination of words with RatFunc coefficients;
TensorPoly is the same over n-fold tensor words.  Both keep a sparse dict of
nonzero coefficients and share one private base for their linear arithmetic
(sums, negation, scaling, coefficient maps); each adds its key normalisation
and its product.  Multiplication of tensor elements is slotwise; every letter
is even, so no sign arises.  An element's terms form a set: equality, the
NCPoly hash and every printed form ignore their order, and no routine keeps
an insertion order for its result.
"""

from __future__ import annotations

from collections import namedtuple
from operator import concat

from .errors import (
    AlphabetMismatchError,
    ArityMismatchError,
    MixedWeightError,
    UnknownGeneratorError,
)
from .ratfunc import MultiPoly, RatFunc, rf, sum_of_products


class GenSymbol(namedtuple("GenSymbol", "name weight loop_degree inv_name",
                           defaults=(0, None))):
    """One generator letter: name, root-lattice weight, loop degree and the
    name of its inverse letter (None if it has none).  Immutable."""

    __slots__ = ()


class Alphabet:
    """Ordered set of letters plus the symmetrized pairing on weights."""

    def __init__(self, symbols, pairing_matrix):
        self.symbols = tuple(symbols)
        self.pairing_matrix = tuple(tuple(int(x) for x in row) for row in pairing_matrix)
        self.index = {}
        for i, s in enumerate(self.symbols):
            if s.name in self.index:
                raise ValueError("duplicate letter name %r" % s.name)
            if len(s.weight) != len(self.pairing_matrix):
                raise ValueError(
                    "letter %r has weight of length %d, expected %d"
                    % (s.name, len(s.weight), len(self.pairing_matrix))
                )
            self.index[s.name] = i
        #: loop degree of each letter, by id
        self.loop_degrees = tuple(s.loop_degree for s in self.symbols)
        self.inverse = {}
        for i, s in enumerate(self.symbols):
            if s.inv_name is not None:
                if s.inv_name not in self.index:
                    raise UnknownGeneratorError(s.inv_name)
                self.inverse[i] = self.index[s.inv_name]
        for i, j in list(self.inverse.items()):
            if self.inverse.get(j) != i:
                raise ValueError(
                    "letters %r/%r are not mutually inverse"
                    % (self.symbols[i].name, self.symbols[j].name)
                )
        if not self.inverse:
            # nothing can cancel: every word is contracted, and words meet
            # by concatenation
            self.contract, self.join = tuple, concat

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.symbols == other.symbols
            and self.pairing_matrix == other.pairing_matrix
        )

    def __hash__(self):
        return hash((self.symbols, self.pairing_matrix))

    def id_of(self, name):
        try:
            return self.index[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None

    def name_of(self, i):
        return self.symbols[i].name

    def pairing(self, w1, w2):
        """Symmetrized bilinear form on weight vectors."""
        return sum(
            a * self.pairing_matrix[i][j] * b
            for i, a in enumerate(w1)
            for j, b in enumerate(w2)
            if a and b
        )

    def word_weight(self, word):
        rank = len(self.pairing_matrix)
        acc = [0] * rank
        for i in word:
            for k, x in enumerate(self.symbols[i].weight):
                acc[k] += x
        return tuple(acc)

    def word_loop_degree(self, word):
        return sum(map(self.loop_degrees.__getitem__, word))

    def contract(self, word):
        """Cancel adjacent mutually-inverse letters (stack pass); over an
        alphabet with no inverse letter, the word as a tuple."""
        out = []
        for i in word:
            if out and self.inverse.get(out[-1]) == i:
                out.pop()
            else:
                out.append(i)
        return tuple(out)

    def join(self, a, b):
        """contract(a + b) for two contracted words: inverse pairs can
        only cancel where a ends and b begins, and over an alphabet with no
        inverse letter, a + b."""
        inverse = self.inverse
        k, n = 0, min(len(a), len(b))
        while k < n and inverse.get(a[-1 - k]) == b[k]:
            k += 1
        return a[:len(a) - k] + b[k:] if k else a + b

    def word_str(self, word):
        return ".".join(self.symbols[i].name for i in word) if word else "1"

    def parse_word(self, text):
        text = text.strip()
        if text == "1":
            return ()
        return self.contract(tuple(self.id_of(part) for part in text.split(".")))


def _check_same_alphabet(a, b):
    if a is not b and a != b:
        raise AlphabetMismatchError("elements live over different alphabets")


def add_term(terms, key, c):
    """terms[key] += c in a sparse dict of RatFunc coefficients; a sum that
    cancels removes the key."""
    s = terms.get(key)
    s = c if s is None else s + c
    if not s.num.terms:
        terms.pop(key, None)
    else:
        terms[key] = s


class _Linear:
    """The linear arithmetic NCPoly and TensorPoly share: a sparse dict of
    nonzero RatFunc coefficients keyed by normalised keys (_key), over one
    alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=None):
        self.alphabet = alphabet
        clean = {}
        if terms:
            for key, c in terms.items():
                add_term(clean, self._key(key), rf(c))
        self.terms = clean

    def _new(self, terms):
        """An element of the same kind and shape with already-clean terms."""
        out = object.__new__(type(self))
        out.alphabet = self.alphabet
        out.terms = terms
        return out

    def _check_compat(self, other):
        _check_same_alphabet(self.alphabet, other.alphabet)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_compat(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        try:
            return self.scale(rf(other))
        except TypeError:
            return NotImplemented

    def scale(self, c):
        c = rf(c)
        if c.is_zero():
            return self._new({})
        return self._new({k: v * c for k, v in self.terms.items()})

    def map_coeffs(self, fn):
        """Apply fn to every coefficient (dropping zeros)."""
        out = {}
        for k, c in self.terms.items():
            c2 = fn(c)
            if not c2.is_zero():
                out[k] = c2
        return self._new(out)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class NCPoly(_Linear):
    """Linear combination of words with RatFunc coefficients."""

    __slots__ = ()

    def _key(self, word):
        return self.alphabet.contract(tuple(word))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    @classmethod
    def unit(cls, alphabet):
        return cls(alphabet, {(): rf(1)})

    @classmethod
    def gen(cls, alphabet, name):
        return cls(alphabet, {(alphabet.id_of(name),): rf(1)})

    @classmethod
    def word(cls, alphabet, names):
        ids = tuple(alphabet.id_of(n) for n in names)
        return cls(alphabet, {ids: rf(1)})

    # -- predicates -----------------------------------------------------------

    def coeff(self, word):
        return self.terms.get(self._key(word), RatFunc.zero())

    def weight(self):
        """Common weight of all words; MixedWeightError if inhomogeneous."""
        if not self.terms:
            raise MixedWeightError("zero element has no well-defined weight")
        weights = {self.alphabet.word_weight(w) for w in self.terms}
        if len(weights) != 1:
            raise MixedWeightError("element mixes weights %s" % sorted(weights))
        return weights.pop()

    # -- arithmetic -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)) or not isinstance(other, NCPoly):
            try:
                return self.scale(rf(other))
            except TypeError:
                return NotImplemented
        self._check_compat(other)
        out = {}
        join = self.alphabet.join
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                add_term(out, join(w1, w2), c1 * c2)
        return self._new(out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers of free-algebra elements")
        acc = NCPoly.unit(self.alphabet)
        for _ in range(n):
            acc = acc * self
        return acc

    def tensor(self, *others):
        """Tensor product self (x) others -> TensorPoly."""
        factors = (self,) + others
        for f in factors:
            _check_same_alphabet(self.alphabet, f.alphabet)
        cur = {(): rf(1)}
        for f in factors:
            nxt = {}
            for key, c in cur.items():
                for w, c2 in f.terms.items():
                    nxt[key + (w,)] = c * c2
            cur = nxt
        return TensorPoly(self.alphabet, len(factors), cur)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            parts.append("%s*%s" % (c, self.alphabet.word_str(w)))
        return " + ".join(parts)


class TensorPoly(_Linear):
    """Linear combination of n-fold tensor words with RatFunc coefficients."""

    __slots__ = ("arity",)

    def __init__(self, alphabet, arity, terms=None):
        self.arity = int(arity)
        super().__init__(alphabet, terms)

    def _key(self, key):
        if len(key) != self.arity:
            raise ArityMismatchError(
                "tensor word of arity %d in arity-%d element" % (len(key), self.arity)
            )
        return tuple(self.alphabet.contract(tuple(w)) for w in key)

    def _new(self, terms):
        out = object.__new__(TensorPoly)
        out.alphabet, out.arity, out.terms = self.alphabet, self.arity, terms
        return out

    def _check_compat(self, other):
        super()._check_compat(other)
        if self.arity != other.arity:
            raise ArityMismatchError(
                "arity %d vs %d" % (self.arity, other.arity)
            )

    @classmethod
    def zero(cls, alphabet, arity):
        return cls(alphabet, arity)

    @classmethod
    def unit(cls, alphabet, arity):
        return cls(alphabet, arity, {((),) * arity: rf(1)})

    def coeff(self, key):
        return self.terms.get(self._key(key), RatFunc.zero())

    def as_ncpoly(self) -> NCPoly:
        """A one-slot element as the algebra element it is."""
        if self.arity != 1:
            raise ArityMismatchError("expected a one-slot element, got arity %d"
                                     % self.arity)
        out = NCPoly(self.alphabet)
        out.terms = {w: c for (w,), c in self.terms.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TensorPoly)
            and self.alphabet == other.alphabet
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)) or not isinstance(other, TensorPoly):
            try:
                return self.scale(rf(other))
            except TypeError:
                return NotImplemented
        self._check_compat(other)
        # a product by the unit tensor is a copy of the other factor, as a
        # RatFunc product by one is the other factor
        one = RatFunc.one()
        for unit, factor in ((self, other), (other, self)):
            if len(unit.terms) == 1:
                (key, c), = unit.terms.items()
                if c is one and not any(key):
                    return self._new(dict(factor.terms))
        join = self.alphabet.join
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_term(out, tuple(map(join, k1, k2)), c1 * c2)
        return self._new(out)

    def embed(self, slots, arity):
        """This element inside an arity-`arity` tensor: slot i moves to slot
        slots[i], and every other slot holds the empty word, the unit."""
        if (len(slots) != self.arity
                or len(set(slots).intersection(range(arity))) != self.arity):
            raise ArityMismatchError(
                "slots %s do not place an arity-%d element in distinct slots "
                "of an arity-%d one" % (slots, self.arity, arity))
        out = TensorPoly(self.alphabet, arity)
        for key, c in self.terms.items():
            words = [()] * arity
            for s, w in zip(slots, key):
                words[s] = w
            out.terms[tuple(words)] = c
        return out

    def map_slot(self, i, word_fn):
        """Replace slot i of every term by word_fn(word) (an NCPoly); linear.

        When a coefficient of this element has a denominator, the (c, c2)
        pairs that land on one output key are collected first, and each
        output coefficient is made by one sum_of_products: the known factors
        are stripped once per key, not once per product and partial sum.  An
        element with polynomial coefficients only, as in the twist suite,
        adds them one by one: collecting the pairs costs more there than it
        saves."""
        one = MultiPoly.one()
        if all(c.den is one for c in self.terms.values()):
            out = {}
            for k, c in self.terms.items():
                for w, c2 in word_fn(k[i]).terms.items():
                    add_term(out, k[:i] + (w,) + k[i + 1 :], c * c2)
            return self._new(out)
        pairs = {}
        for k, c in self.terms.items():
            for w, c2 in word_fn(k[i]).terms.items():
                key = k[:i] + (w,) + k[i + 1 :]
                hit = pairs.get(key)
                if hit is None:
                    pairs[key] = [(c, c2)]
                else:
                    hit.append((c, c2))
        out = {}
        for key, ps in pairs.items():
            s = sum_of_products(ps)
            if s.num.terms:
                out[key] = s
        return self._new(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, key=lambda k: (tuple(len(w) for w in k), k)):
            c = self.terms[k]
            slots = " @ ".join(self.alphabet.word_str(w) for w in k)
            parts.append("%s*(%s)" % (c, slots))
        return " + ".join(parts)


def tensor(*factors):
    """Tensor product of NCPolys."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    return factors[0].tensor(*factors[1:])


# -- structural maps ----------------------------------------------------------


def apply_hom(x: NCPoly, images: dict):
    """Extend a generator assignment multiplicatively to x.

    images maps letter id -> NCPoly or TensorPoly (all of one kind/arity).
    The image of a term c*w is built from the image of w's first letter
    scaled by c (the unit scaled by c for the empty word), so c meets the
    terms of one letter's image, not those of the whole product.
    """
    return _apply_wordwise(x, images, reverse=False)


def apply_antihom(x: NCPoly, images: dict):
    """Extend a generator assignment anti-multiplicatively (reversed words)."""
    return _apply_wordwise(x, images, reverse=True)


def _apply_wordwise(x, images, reverse):
    sample = next(iter(images.values()), None)
    if isinstance(sample, TensorPoly):
        unit = TensorPoly.unit(sample.alphabet, sample.arity)
        zero = TensorPoly.zero(sample.alphabet, sample.arity)
    else:
        unit = NCPoly.unit(sample.alphabet if sample is not None else x.alphabet)
        zero = NCPoly.zero(sample.alphabet if sample is not None else x.alphabet)
    acc = zero
    for word, c in x.terms.items():
        seq = reversed(word) if reverse else word
        img = None
        for i in seq:
            if i not in images:
                raise UnknownGeneratorError(x.alphabet.name_of(i))
            img = images[i].scale(c) if img is None else img * images[i]
        acc = acc + (unit.scale(c) if img is None else img)
    return acc


# -- q-commutators --------------------------------------------------------------


def q_commutator(x: NCPoly, y: NCPoly):
    """[x, y]_q = x y - q^(wt x, wt y) y x; x and y must be
    weight-homogeneous."""
    n = x.alphabet.pairing(x.weight(), y.weight())
    return x * y - RatFunc.var("q", n) * (y * x)


def commutator(x: NCPoly, y: NCPoly):
    """Plain bracket [x, y] = xy - yx."""
    return x * y - y * x


def ad_q_power(e: NCPoly, x: NCPoly, n: int):
    """Iterated q-bracket [e, [e, ... [e, x]_q ]_q ]_q, weights re-derived
    at each step."""
    acc = x
    for _ in range(n):
        acc = q_commutator(e, acc)
    return acc
