"""Presentations of the supported algebras as oriented rewriting systems.

Supported families:

* ``uq``          -- the standard one-parameter quantum group on a finite
                     Cartan matrix (rank 1 and 2 presets).
* ``drinfeldian`` -- the two-parameter deformation: the quantum group extended
                     by a loop-raising generator ``xi`` of loop degree 1 and a
                     central group-like generator ``kd+``, with cross relations
                     whose right-hand sides carry the second parameter ``eta``.
* ``yangian``     -- the degenerate (q -> 1) algebra with a Cartan generator
                     ``ha1`` and the same loop generator; relations carry
                     ``eta`` only, or nothing at eta = 0.
* ``classical``   -- plain enveloping-algebra presentations (used internally
                     for representation checks).

Which letters an alphabet holds is decided in one place: ``_letters`` is the
catalogue of every letter a presentation over a Cartan datum may carry, each
tagged with its group, and ``alphabet(cd, groups)`` keeps the letters of the
given groups in catalogue order.  The groups are ``e`` (the lowering letters
``e-i``, then the raising letters ``e+i``), ``xi`` (the loop letter), ``k``
(the group-like pairs ``k+i``, ``k-i``), ``h`` (the Cartan letters ``hi``)
and ``kd`` (the central pair ``kd+``, ``kd-``).  ``FAMILY_GROUPS`` gives each
family its groups:

* ``uq``          -- e, k
* ``drinfeldian`` -- e, xi, k, kd
* ``yangian``     -- e, xi, h
* ``classical``   -- e, h

The family fixes every group but the central pair: kdelta -> 1 drops it from
a drinfeldian presentation and q -> 1 carries it into a yangian one, so a
presentation of a family in ``CENTRAL_FAMILIES`` may carry it or not.

Every relation is stored as an oriented, monic rewrite rule: a leading word
(maximal in the term order: total loop degree, then length, then letter ids
lexicographically) together with the lower-order replacement.  The rule set of
each deformed family is constructed mechanically: cross relations are built as
(iterated, weight-graded) q-brackets of a shifted loop generator, reduced
against the already-installed rules, and only then oriented.  This is what
keeps the stored coefficients free of spurious poles at q = 1.

Rewriting has one strategy and two loops.  ``Presentation.normal_form``
rewrites an element in place on a single term dict.
``Presentation._rewrite_words`` rewrites a batch of words in one frontier,
each term carrying one coefficient per source word; every word normal form
comes from it, through the one memo entry ``_word_normal_forms``: a single
word of ``word_normal_form`` as a batch of one, and the distinct words of a
tensor slot (``normal_form_tensor``) together.  Both loops take their
frontier from ``Presentation._frontier``, the one owner of the term order on
the heap and of the degree-bound check, and find rules through an index of
their leads by length and word.  The strategy is fixed: the highest
reducible word first, rewritten by the rule earliest in ``relations`` that
matches it anywhere, at that rule's leftmost match.  The yangian-sl2 and
twisted-yangian-sl2 rule systems are not confluent, so another strategy
could reach another normal form.  A batch is exact: a word gets
contributions only from larger words, which are popped first, so each source
word gets the terms, the term order and the RatFunc products and sums of a
run of its own, while the words they share are matched and expanded once.

``Presentation.relations`` is a tuple that only ``add_rule`` (directly, or
through ``add_rule_from_zero_form``) replaces with a longer one.  The lead
index and the word memo each keep the tuple they were built for, and are
rebuilt once ``relations`` is another object.

A word's normal form depends only on the alphabet, the ordered rule list and
the word, and a rewrite that finished under a degree bound b is valid under
every bound >= b.  So the word memo belongs to a rule system: presentations
alive at the same time with equal alphabets and equal ordered ``(lead,
replacement)`` lists share one memo, found in ``_WORD_MEMOS`` and dropped
with the last of them, and ``alphabet`` gives them one alphabet object.
Each entry keeps the bound it was computed under, and a lookup under a
smaller bound rewrites the word again.

``Q1_LIMITS`` names the algebra an algebra's q -> 1, kdelta -> 1 limit must
match.  ``_drop_central_letters`` sends the central letter of a presentation
to 1, and ``_limit_tensor_zero_form`` that of an element whose target lacks it.

Checks build their rows with ``check_row`` for an exact residual (a matrix)
and with ``rewrite_row`` for a normal form, which is zero or unknown.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush
from math import factorial
from operator import neg
from weakref import WeakValueDictionary

from .errors import (
    DegreeBoundExceeded,
    InvalidCartanError,
    PoleError,
    UnsupportedAlgebraError,
)
from .freealg import (
    Alphabet,
    GenSymbol,
    NCPoly,
    TensorPoly,
    ad_q_power,
    add_term,
    commutator,
    q_commutator,
)
from .ratfunc import RatFunc, laurent_coeffs, q_power, rf

DEFAULT_DEGREE_BOUND = 12


# ---------------------------------------------------------------------------
# Cartan data
# ---------------------------------------------------------------------------


class CartanData(namedtuple("CartanData",
                            "name matrix symmetrizers labels highest_root")):
    """A symmetrizable Cartan matrix plus the highest-root vector.
    Immutable; construction validates it."""

    __slots__ = ()

    def __new__(cls, name, matrix, symmetrizers, labels, highest_root):
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise InvalidCartanError("matrix must be square and non-empty")
        if len(symmetrizers) != n or len(labels) != n or len(highest_root) != n:
            raise InvalidCartanError("rank mismatch between matrix and metadata")
        for i in range(n):
            if matrix[i][i] != 2:
                raise InvalidCartanError("diagonal entries must equal 2")
            for j in range(n):
                if i != j and matrix[i][j] > 0:
                    raise InvalidCartanError("off-diagonal entries must be <= 0")
                if symmetrizers[i] * matrix[i][j] != symmetrizers[j] * matrix[j][i]:
                    raise InvalidCartanError("matrix is not symmetrizable by the given weights")
        if any(x < 0 for x in highest_root):
            raise InvalidCartanError("highest root must have non-negative coordinates")
        return super().__new__(cls, name, matrix, symmetrizers, labels,
                               highest_root)

    @property
    def rank(self):
        return len(self.matrix)

    @property
    def pairing_matrix(self):
        """Symmetrized matrix B_ij = d_i a_ij."""
        return tuple(
            tuple(self.symmetrizers[i] * self.matrix[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def theta_pairing(self, i):
        """(alpha_i, theta) for the highest root theta."""
        return sum(self.pairing_matrix[i][j] * self.highest_root[j] for j in range(self.rank))

    def loop_serre_order_on_e(self, i):
        """Number of e_i brackets annihilating the loop generator."""
        return 1 + 2 * self.theta_pairing(i) // self.pairing_matrix[i][i]

    def loop_serre_order_on_xi(self, i):
        """Number of loop-generator brackets annihilating e_i."""
        theta_norm = sum(
            self.highest_root[i] * self.pairing_matrix[i][j] * self.highest_root[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )
        return 1 + 2 * self.theta_pairing(i) // theta_norm


_PRESETS = {
    "sl2": CartanData("sl2", ((2,),), (1,), ("a1",), (1,)),
    "sl3": CartanData("sl3", ((2, -1), (-1, 2)), (1, 1), ("a1", "a2"), (1, 1)),
}


def cartan_data(name) -> CartanData:
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnsupportedAlgebraError(
            "no Cartan preset %r (have: %s)" % (name, ", ".join(sorted(_PRESETS)))
        ) from None


# ---------------------------------------------------------------------------
# relations and presentations
# ---------------------------------------------------------------------------


class Relation:
    """Oriented monic rewrite rule lead -> repl, with structural metadata
    (a fresh dict unless one is given)."""

    def __init__(self, label, lead, repl, kind, meta=None):
        self.label = label
        self.lead = lead
        self.repl = repl
        self.kind = kind
        self.meta = {} if meta is None else meta

    def zero_form(self, alphabet) -> NCPoly:
        return NCPoly(alphabet, {self.lead: rf(1)}) - self.repl


class _WordMemo(dict):
    """word -> (bound, normal form) for one rule system; a dict that
    _WORD_MEMOS can hold weakly."""

    __slots__ = ("__weakref__",)


#: (alphabet, ((lead, replacement terms), ...)) -> the _WordMemo of the live
#: presentations with that rule system
_WORD_MEMOS = WeakValueDictionary()


class Presentation:
    """An algebra given by generators and oriented rewrite rules."""

    def __init__(self, name, family, cartan, alphabet,
                 degree_bound=DEFAULT_DEGREE_BOUND, params=(),
                 shift_element=None):
        """An empty presentation; rules come in through add_rule."""
        self.name = name
        self.family = family
        self.cartan = cartan
        self.alphabet = alphabet
        self.relations = ()
        self.degree_bound = degree_bound
        self.params = tuple(params)
        #: for loop deformations: the weight-homogeneous word whose a-multiple
        #: is subtracted from the loop generator before rule orientation
        self.shift_element = shift_element
        # (the relations tuple it was built for, cache) for the lead index
        # of _first_occurrence and the word memo of _word_normal_forms
        self._index = self._memo = (None, None)

    # read by the benchmark tracer, which counts a word_normal_form call as a
    # memo hit when the memo of the current relations was fetched here before
    # (the two ids agree) and holds the word
    _rules_version = property(lambda self: id(self.relations))
    _word_nf_version = property(lambda self: id(self._memo[0]))
    _word_nf = property(lambda self: self._memo[1])

    # -- term order ----------------------------------------------------------

    def word_key(self, word):
        return (self.alphabet.word_loop_degree(word), len(word), word)

    def _frontier(self, bound):
        """(heap, enter) for one rewriting run: enter(w) raises
        DegreeBoundExceeded if w is longer than bound, else pushes w under
        word_key reversed, so heappop(heap)[3] is the highest word."""
        loop_degree = self.alphabet.loop_degrees.__getitem__
        heap = []

        def enter(w):
            if len(w) > bound:
                raise DegreeBoundExceeded(
                    "word of length %d exceeds bound %d during rewriting"
                    % (len(w), bound))
            heappush(heap, (-sum(map(loop_degree, w)), -len(w),
                            tuple(map(neg, w)), w))

        return heap, enter

    def leading_term(self, x: NCPoly):
        if x.is_zero():
            raise ValueError("zero element has no leading term")
        w = max(x.terms, key=self.word_key)
        return w, x.terms[w]

    # -- rewriting -----------------------------------------------------------

    def _lead_index(self):
        """[(lead length, {lead: (priority, rule)})], shortest leads first.

        A rule's priority is its position in ``relations``; of two rules
        with one lead only the first can ever fire, so only it is kept.
        The index is rebuilt whenever ``relations`` is not the tuple it was
        built for."""
        rules, index = self._index
        if rules is not self.relations:
            by_length = {}
            for prio, rel in enumerate(self.relations):
                by_length.setdefault(len(rel.lead), {}).setdefault(
                    rel.lead, (prio, rel))
            index = sorted(by_length.items())
            self._index = self.relations, index
        return index

    def _first_occurrence(self, word):
        """(relation, position) for the first rule (in priority order) that
        matches a subword, at its leftmost position; None if irreducible.

        Every subword whose length is that of some lead is looked up in the
        lead index; of all hits, the one of lowest priority wins, and since
        positions are visited left to right, it wins at its leftmost match."""
        n = len(word)
        best = None
        best_prio = len(self.relations)
        for m, leads in self._lead_index():
            if m > n:
                break
            for pos in range(n - m + 1):
                hit = leads.get(word[pos : pos + m])
                if hit is not None and hit[0] < best_prio:
                    best_prio = hit[0]
                    best = hit[1], pos
        return best

    def normal_form(self, x: NCPoly, bound=None) -> NCPoly:
        """Rewrite x until no rule applies.

        Strategy: repeatedly pick the term-order-highest reducible word and
        rewrite its leftmost highest-priority occurrence.  Every replacement
        word is strictly smaller, so this terminates; the guard raises
        DegreeBoundExceeded if intermediate words outgrow the bound.

        The rewriting works in place on one copy of x's term dict: a step
        pops the word and adds c2 * c at each replaced word, one RatFunc
        product per replacement term, except that no product is made when
        either factor is the shared RatFunc.one() (the product is then the
        other factor).  The words still to visit sit on a _frontier, so no
        step rescans the terms; a word found irreducible is never looked at
        again.  A new word is checked against the bound as it enters the
        frontier and is added at the end of the dict, in replacement order:
        the terms come out in the order that rebuilding the whole sum at
        every step gives, and the word the bound stops at is the first
        over-long one in that order."""
        bound = self.degree_bound if bound is None else bound
        join = self.alphabet.join
        frontier, enter = self._frontier(bound)
        terms = dict(x.terms)
        for w in terms:
            enter(w)
        get = terms.get
        one = RatFunc.one()
        irreducible = set()
        while frontier:
            best = heappop(frontier)[3]
            if best in irreducible or best not in terms:
                continue  # a stale entry: the word was rewritten or cancelled
            occ = self._first_occurrence(best)
            if occ is None:
                irreducible.add(best)
                continue
            rel, pos = occ
            c = terms.pop(best)
            prefix, suffix = best[:pos], best[pos + len(rel.lead):]
            for w2, c2 in rel.repl.terms.items():
                w = w2
                if prefix:
                    w = join(prefix, w)
                if suffix:
                    w = join(w, suffix)
                t = c if c2 is one else c2 if c is one else c2 * c
                s = get(w)
                if s is None:
                    enter(w)
                    terms[w] = t
                else:
                    s = s + t
                    if s.num.terms:
                        terms[w] = s
                    else:
                        del terms[w]
        return x._new(terms)

    def word_normal_form(self, word, bound=None):
        """Normal form of a single word under bound (default degree_bound):
        _word_normal_forms of the contracted word, as a batch of one."""
        word = self.alphabet.contract(word)
        return self._word_normal_forms(
            (word,), self.degree_bound if bound is None else bound)[word]

    def _word_normal_forms(self, words, bound):
        """{word: normal form under bound} for distinct contracted words,
        memoized for the rule system: the one entry to the word memo.

        The memo is _word_memo's.  An entry computed under bound b serves
        every bound >= b and comes back as stored; the words it does not
        serve are rewritten together by _rewrite_words and stored.  If that
        batch exceeds the bound it stores nothing, and the words are
        rewritten one at a time, in order, each stored before the next, so
        the call raises as the first over-long word alone does."""
        memo = self._word_memo()
        out = {}
        missed = []
        for w in words:
            hit = memo.get(w)
            if hit is None or hit[0] > bound:
                missed.append(w)
            else:
                out[w] = hit[1]
        if missed:
            try:
                nfs = self._rewrite_words(missed, bound)
            except DegreeBoundExceeded:
                nfs = (self._rewrite_words((w,), bound)[0] for w in missed)
            for w, nf in zip(missed, nfs):
                memo[w] = bound, nf
                out[w] = nf
        return out

    def _rewrite_words(self, words, bound):
        """The normal forms of distinct words, rewritten in one _frontier.

        Each word is a source, and a term carries one coefficient per source
        that has it ({source: RatFunc}).  A word is popped, matched and
        expanded once for all of them, by the strategy of normal_form, and
        enters the frontier through the same bound check.  A popped word is
        final, so each source gets the products and sums of a run of its
        own, and its terms come out in that run's order: by the step that
        last brought the word into the source (born, or late for a source
        new to a word already there).  The batch raises DegreeBoundExceeded
        exactly when one of its words alone would, at the batch's first
        over-long word."""
        join = self.alphabet.join
        one = RatFunc.one()
        frontier, enter = self._frontier(bound)
        terms = {}
        born = {}
        late = {}
        for s, w in enumerate(words):
            enter(w)
            terms[w] = {s: one}
            born[w] = s
        step = len(words)
        found = [[] for _ in words]
        get = terms.get
        while frontier:
            best = heappop(frontier)[3]
            vec = terms.pop(best, None)
            if vec is None:
                continue  # a stale entry: the word was rewritten or cancelled
            occ = self._first_occurrence(best)
            if occ is None:
                b, since = born[best], late.get(best)
                for s, c in vec.items():
                    found[s].append((b if since is None else
                                     max(b, since.get(s, b)), best, c))
                continue
            rel, pos = occ
            prefix, suffix = best[:pos], best[pos + len(rel.lead):]
            for w2, c2 in rel.repl.terms.items():
                step += 1
                w = w2
                if prefix:
                    w = join(prefix, w)
                if suffix:
                    w = join(w, suffix)
                tgt = get(w)
                if tgt is None:
                    enter(w)
                    terms[w] = (dict(vec) if c2 is one else
                                {s: c2 if c is one else c2 * c
                                 for s, c in vec.items()})
                    born[w] = step
                    continue
                for s, c in vec.items():
                    t = c if c2 is one else c2 if c is one else c2 * c
                    old = tgt.get(s)
                    if old is None:
                        tgt[s] = t
                        late.setdefault(w, {})[s] = step
                    else:
                        old = old + t
                        if old.num.terms:
                            tgt[s] = old
                        else:
                            del tgt[s]
                if not tgt:
                    del terms[w]
        new = NCPoly(self.alphabet)._new
        return [new({w: c for _, w, c in sorted(f)}) for f in found]

    def _word_memo(self):
        """The word memo of the rule system, from _WORD_MEMOS (a new one if
        no live presentation has it), found again once ``relations`` is not
        the tuple it was found for."""
        rules, memo = self._memo
        if rules is not self.relations:
            key = self.alphabet, tuple((rel.lead, tuple(rel.repl.terms.items()))
                                       for rel in self.relations)
            memo = _WORD_MEMOS.setdefault(key, _WordMemo())
            self._memo = self.relations, memo
        return memo

    def normal_form_tensor(self, t: TensorPoly, bound=None) -> TensorPoly:
        """Slotwise normal form of a tensor element: slot by slot, the
        distinct words of the slot go through _word_normal_forms as one
        batch, and the slot is mapped through the normal forms it returns."""
        if bound is None:
            bound = self.degree_bound
        out = t
        for i in range(t.arity):
            nfs = self._word_normal_forms(
                dict.fromkeys(k[i] for k in out.terms), bound)
            out = out.map_slot(i, nfs.__getitem__)
        return out

    def decide_zero(self, x: NCPoly, reps=(), bound=None):
        """(verdict, evidence) for x in the presented algebra.

        'zero' means the rewrite system reduces x to 0 (a proof, since every
        rule is a consequence of the relations); its evidence is None.  A
        nonzero normal form is *not* a disproof -- confluence of the rule
        system is not established -- so 'nonzero' is only returned when a
        supplied representation evaluates x to a nonzero matrix, and that
        rep is the evidence.  Otherwise the verdict is 'unknown', with the
        nonzero normal form as evidence, or the DegreeBoundExceeded that
        stopped the rewriting.  Each rep must expose evaluate(NCPoly) ->
        matrix with .is_zero()."""
        try:
            evidence = self.normal_form(x, bound=bound)
        except DegreeBoundExceeded as exc:
            evidence = exc
        else:
            if evidence.is_zero():
                return "zero", None
        for rep in reps:
            if not rep.evaluate(x).is_zero():
                return "nonzero", rep
        return "unknown", evidence

    def is_zero_mod(self, x: NCPoly, reps=(), bound=None) -> str:
        """'zero' / 'nonzero' / 'unknown' for x (see decide_zero)."""
        return self.decide_zero(x, reps, bound)[0]

    # -- construction helpers ---------------------------------------------------

    def gen(self, name) -> NCPoly:
        return NCPoly.gen(self.alphabet, name)

    def unit(self) -> NCPoly:
        return NCPoly.unit(self.alphabet)

    def add_rule_from_zero_form(self, z: NCPoly, label, kind, meta=None):
        """Reduce z against the installed rules, orient monically, install.

        Returns the added Relation, or None when z reduces to zero (the
        relation is implied by earlier ones)."""
        z = self.normal_form(z)
        if z.is_zero():
            return None
        lead, c = self.leading_term(z)
        repl = -(z - NCPoly(self.alphabet, {lead: c})).scale(rf(1) / c)
        return self.add_rule(label, lead, repl, kind, meta)

    def add_rule(self, label, lead, repl, kind, meta=None):
        """Install lead -> repl as the lowest-priority rule and return it.

        ``relations`` becomes a new, longer tuple, so the lead index and
        the word memo follow it and rewriting after this call uses the new
        rule."""
        rel = Relation(label, lead, repl, kind, dict(meta or {}))
        self.relations = self.relations + (rel,)
        return rel

    def relation(self, label) -> Relation:
        for rel in self.relations:
            if rel.label == label:
                return rel
        raise KeyError(label)

    def self_reduction(self):
        """[(label, residual NCPoly)] of each relation's zero form reduced by
        the full rule set; all residuals must vanish in a coherent system."""
        out = []
        for rel in self.relations:
            out.append((rel.label, self.normal_form(rel.zero_form(self.alphabet))))
        return out

    def __repr__(self):
        return "Presentation(%s: %d generators, %d relations)" % (
            self.name,
            len(self.alphabet),
            len(self.relations),
        )


def check_row(label, residual=None):
    """One row of a check with an exact residual: (label, 'zero', None) when
    there is no residual, else (label, 'nonzero', residual)."""
    if residual is None:
        return label, "zero", None
    return label, "nonzero", residual


def rewrite_row(label, residual=None):
    """One row of a check whose residual is only a normal form: (label,
    'zero', None) when there is none, else (label, 'unknown', residual).
    A nonzero normal form proves nothing in a rule system not known to be
    confluent."""
    if residual is None:
        return label, "zero", None
    return label, "unknown", residual


# ---------------------------------------------------------------------------
# alphabets
# ---------------------------------------------------------------------------


def _basis_weight(rank, i, value=1):
    w = [0] * rank
    w[i] = value
    return tuple(w)


def _letters(cd: CartanData):
    """[(group, letter)] for every letter a presentation over cd may carry,
    in alphabet order: the lowering letters e-i, then the raising letters
    e+i; xi, of weight -theta and loop degree 1; the group-like pairs k+i,
    k-i; the Cartan letters hi; the central pair kd+, kd-.  Each k or kd
    letter sits next to its inverse so that id-sorting brings inverse pairs
    adjacent and the contraction k k^-1 = 1 can always fire."""
    rank, labels = cd.rank, cd.labels
    zero = (0,) * rank
    out = [("e", GenSymbol("e-%s" % l, _basis_weight(rank, i, -1)))
           for i, l in enumerate(labels)]
    out += [("e", GenSymbol("e+%s" % l, _basis_weight(rank, i, 1)))
            for i, l in enumerate(labels)]
    out.append(("xi", GenSymbol("xi", tuple(-x for x in cd.highest_root),
                                loop_degree=1)))
    for l in labels:
        out.append(("k", GenSymbol("k+%s" % l, zero, inv_name="k-%s" % l)))
        out.append(("k", GenSymbol("k-%s" % l, zero, inv_name="k+%s" % l)))
    out += [("h", GenSymbol("h%s" % l, zero)) for l in labels]
    out.append(("kd", GenSymbol("kd+", zero, inv_name="kd-")))
    out.append(("kd", GenSymbol("kd-", zero, inv_name="kd+")))
    return out


#: family -> the letter groups of its presentations (see the module
#: docstring); a presentation of a family in CENTRAL_FAMILIES may carry the
#: central pair "kd" or not
FAMILY_GROUPS = {
    "uq": ("e", "k"),
    "drinfeldian": ("e", "xi", "k", "kd"),
    "yangian": ("e", "xi", "h"),
    "classical": ("e", "h"),
}
CENTRAL_FAMILIES = ("drinfeldian", "yangian")


#: (Cartan data, frozenset of group names) -> its one Alphabet
_ALPHABETS = {}


def alphabet(cd: CartanData, groups) -> Alphabet:
    """The letters of cd's catalogue in groups, a collection of group names
    or a family name (standing for its FAMILY_GROUPS), in catalogue order:
    one object for equal cd and groups."""
    if isinstance(groups, str):
        groups = FAMILY_GROUPS[groups]
    key = cd, frozenset(groups)
    A = _ALPHABETS.get(key)
    if A is None:
        A = _ALPHABETS[key] = Alphabet(
            [s for g, s in _letters(cd) if g in groups], cd.pairing_matrix)
    return A


def _groups(p: Presentation):
    """The set of letter groups p's alphabet holds."""
    return {g for g, s in _letters(p.cartan) if s.name in p.alphabet.index}


# ---------------------------------------------------------------------------
# shared rule installers
# ---------------------------------------------------------------------------


def _install_comm_rules(p: Presentation, names):
    """Commutation rules among the named letters: in a monomial of them the
    higher id hops left over the lower one."""
    A = p.alphabet
    ids = [A.id_of(n) for n in names]
    for a in ids:
        for b in ids:
            if a <= b:
                continue
            meta = {"a": A.name_of(a), "b": A.name_of(b)}
            if A.inverse.get(a) == b:
                # adjacent inverse pairs contract inside NCPoly already, but a
                # reversed pair needs one swap to meet and cancel
                meta["inverse_pair"] = True
                repl = NCPoly.unit(A)
            else:
                repl = NCPoly(A, {(b, a): rf(1)})
            p.add_rule("kk:%s,%s" % (meta["a"], meta["b"]), (a, b), repl,
                       "k_comm", meta)


def _install_k_rules(p: Presentation, k_labels, conj_targets):
    """Commutation rules among group-like letters and conjugation rules
    k x k^-1 = q^(alpha_i, wt x) x for the listed target letters."""
    A = p.alphabet
    cd = p.cartan
    _install_comm_rules(p, k_labels)
    for kname in k_labels:
        sign = 1 if kname.startswith("k+") else -1
        root_label = kname[2:]
        i = cd.labels.index(root_label)
        kid = A.id_of(kname)
        for xname in conj_targets:
            xid = A.id_of(xname)
            c = sign * A.pairing(_basis_weight(cd.rank, i), A.symbols[xid].weight)
            p.add_rule(
                "conj:%s,%s" % (kname, xname),
                (kid, xid),
                NCPoly(A, {(xid, kid): q_power(c)}),
                "k_conj",
                {"k": kname, "x": xname, "root": i, "sign": sign, "exponent": c},
            )


def _install_ef_rules(p: Presentation):
    A = p.alphabet
    cd = p.cartan
    qq = rf("q") - q_power(-1)
    for i in range(cd.rank):
        for j in range(cd.rank):
            e = A.id_of("e+%s" % cd.labels[i])
            f = A.id_of("e-%s" % cd.labels[j])
            repl = NCPoly(A, {(f, e): rf(1)})
            if i == j:
                k = A.id_of("k+%s" % cd.labels[i])
                ki = A.id_of("k-%s" % cd.labels[i])
                repl = repl + NCPoly(A, {(k,): rf(1) / qq, (ki,): -rf(1) / qq})
            p.add_rule(
                "cross:%s,%s" % (A.name_of(e), A.name_of(f)),
                (e, f),
                repl,
                "ef_cartan",
                {"i": i, "j": j},
            )


def _install_serre_rules(p: Presentation):
    A = p.alphabet
    cd = p.cartan
    for sign in ("+", "-"):
        for i in range(cd.rank):
            for j in range(cd.rank):
                if i == j or cd.matrix[i][j] == 0:
                    continue
                n = 1 - cd.matrix[i][j]
                xi_ = NCPoly.gen(A, "e%s%s" % (sign, cd.labels[i]))
                xj_ = NCPoly.gen(A, "e%s%s" % (sign, cd.labels[j]))
                z = ad_q_power(xi_, xj_, n)
                p.add_rule_from_zero_form(
                    z,
                    "serre:e%s%s,e%s%s" % (sign, cd.labels[i], sign, cd.labels[j]),
                    "serre",
                    {"i": i, "j": j, "sign": sign, "order": n},
                )


def _install_central_rules(p: Presentation):
    """kd+ and kd- commute past every other letter."""
    A = p.alphabet
    others = [s.name for s in A.symbols if not s.name.startswith("kd")]
    for cname in ("kd+", "kd-"):
        cid = A.id_of(cname)
        for xname in others:
            xid = A.id_of(xname)
            p.add_rule(
                "central:%s,%s" % (cname, xname),
                (cid, xid),
                NCPoly(A, {(xid, cid): rf(1)}),
                "k_central",
                {"k": cname, "x": xname},
            )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_uq(g) -> Presentation:
    """One-parameter quantum group on the finite Cartan preset g."""
    cd = cartan_data(g)
    A = alphabet(cd, "uq")
    p = Presentation("uq-%s" % g, "uq", cd, A, params=("q",))
    k_labels = [s.name for s in A.symbols if s.name.startswith("k")]
    ef_labels = [s.name for s in A.symbols if s.name.startswith("e")]
    _install_k_rules(p, k_labels, ef_labels)
    _install_ef_rules(p)
    _install_serre_rules(p)
    return p


def lower_root_vector(p: Presentation, style="dressed") -> NCPoly:
    """A weight -theta element with nonzero classical limit, used to shift
    the loop generator.  Any such element is admissible; the builders default
    to the Cartan-dressed one.

    style="dressed": rank 1 gives f k; rank 2 gives [f_1, f_2]_q k_1 k_2.
    style="plain":   the same words without the trailing Cartan letters.

    The dressing is what makes the shifted loop generator compatible with the
    group-like letters: with the plain choice the cross-relation right-hand
    sides collapse to zero and the q -> 1 degeneration loses its eta terms
    (the "plain" builder variant exists so that collapse can be demonstrated).
    """
    cd = p.cartan
    if cd.rank == 1:
        bare = p.gen("e-a1")
        dress = p.gen("k+a1")
    elif cd.rank == 2:
        bare = q_commutator(p.gen("e-a1"), p.gen("e-a2"))
        dress = p.gen("k+a1") * p.gen("k+a2")
    else:
        raise UnsupportedAlgebraError("no lowest-root element for rank > 2")
    if style == "plain":
        return bare
    if style == "dressed":
        return bare * dress
    raise ValueError("unknown lowest-root style %r" % (style,))


def loop_shift_coefficient() -> RatFunc:
    """a = eta / (q - q^-1), the coefficient of the dressed shift."""
    return rf("eta") / (rf("q") - q_power(-1))


def shifted_loop_generator(p: Presentation, style="dressed") -> NCPoly:
    """xi - a * (lowest-root element); weight-homogeneous."""
    return p.gen("xi") - loop_shift_coefficient() * lower_root_vector(p, style)


def build_drinfeldian(g, shift_style="dressed") -> Presentation:
    """Two-parameter deformation on the loop extension of the preset g."""
    cd = cartan_data(g)
    A = alphabet(cd, "drinfeldian")
    p = Presentation("drinfeldian-%s" % g, "drinfeldian", cd, A, params=("q", "eta"))
    k_labels = ["k+%s" % l for l in cd.labels] + ["k-%s" % l for l in cd.labels]
    ef_labels = [s.name for s in A.symbols if s.name.startswith("e")]
    conj_targets = ef_labels + ["xi"]
    _install_k_rules(p, k_labels, conj_targets)
    _install_central_rules(p)
    _install_ef_rules(p)
    _install_serre_rules(p)

    p.shift_element = lower_root_vector(p, shift_style)
    xt = shifted_loop_generator(p, shift_style)
    # loop generator commutes with every lowering generator
    for i in range(cd.rank):
        f = p.gen("e-%s" % cd.labels[i])
        p.add_rule_from_zero_form(
            commutator(f, xt),
            "loop-comm:e-%s" % cd.labels[i],
            "mixed_comm",
            {"i": i},
        )
    # iterated raising brackets annihilate the shifted loop generator
    for i in range(cd.rank):
        n = cd.loop_serre_order_on_e(i)
        e = p.gen("e+%s" % cd.labels[i])
        p.add_rule_from_zero_form(
            ad_q_power(e, xt, n),
            "loop-serre-e:e+%s" % cd.labels[i],
            "mixed_serre_e",
            {"i": i, "order": n},
        )
    # iterated loop brackets annihilate each raising generator
    for i in range(cd.rank):
        if cd.theta_pairing(i) == 0:
            continue
        m = cd.loop_serre_order_on_xi(i)
        e = p.gen("e+%s" % cd.labels[i])
        p.add_rule_from_zero_form(
            ad_q_power(xt, e, m),
            "loop-serre-xi:e+%s" % cd.labels[i],
            "mixed_serre_xi",
            {"i": i, "order": m},
        )
    return p


def build_yangian_sl2() -> Presentation:
    """The eta-deformed degeneration in rank 1, built directly."""
    cd = cartan_data("sl2")
    A = alphabet(cd, "yangian")
    p = Presentation("yangian-sl2", "yangian", cd, A, params=("eta",))
    h, e, f, xi_ = p.gen("ha1"), p.gen("e+a1"), p.gen("e-a1"), p.gen("xi")
    eta = rf("eta")
    _install_h_conj(p)
    p.add_rule_from_zero_form(commutator(e, f) - h, "cross:e+a1,e-a1",
                              "classical_ef", {"i": 0, "j": 0})
    p.add_rule_from_zero_form(commutator(f, xi_) - eta * f * f,
                              "loop-comm:e-a1", "mixed_comm", {"i": 0})
    ad3 = commutator(e, commutator(e, commutator(e, xi_)))
    p.add_rule_from_zero_form(ad3 - 6 * eta * e * e,
                              "loop-serre-e:e+a1", "mixed_serre_e", {"i": 0, "order": 3})
    ad3x = commutator(commutator(commutator(e, xi_), xi_), xi_)
    p.add_rule_from_zero_form(ad3x - 6 * eta * xi_ * xi_,
                              "loop-serre-xi:e+a1", "mixed_serre_xi", {"i": 0, "order": 3})
    return p


def build_twisted_yangian_sl2() -> Presentation:
    """Same underlying algebra as yangian-sl2; the second parameter zeta only
    enters through the twisted coproduct series, not the relations."""
    p = build_yangian_sl2()
    p.name = "twisted-yangian-sl2"
    p.params = ("eta", "zeta")
    return p


def build_classical_sl2() -> Presentation:
    """Plain rank-1 enveloping algebra {h, e, f} (for representation checks)."""
    cd = cartan_data("sl2")
    A = alphabet(cd, "classical")
    p = Presentation("classical-sl2", "classical", cd, A)
    _install_h_conj(p)
    p.add_rule_from_zero_form(
        commutator(p.gen("e+a1"), p.gen("e-a1")) - p.gen("ha1"),
        "cross:e+a1,e-a1", "classical_ef", {"i": 0, "j": 0})
    return p


def _install_h_conj(p: Presentation):
    """[h_i, x] = (alpha_i, wt x) x for every Cartan letter h_i and every
    letter x that is neither a Cartan letter nor central."""
    A = p.alphabet
    cd = p.cartan
    for i, root in enumerate(cd.labels):
        hname = "h%s" % root
        hid = A.id_of(hname)
        for xid, sym in enumerate(A.symbols):
            if sym.name.startswith(("h", "kd")):
                continue
            c = A.pairing(_basis_weight(cd.rank, i), sym.weight)
            p.add_rule(
                "conj:%s,%s" % (hname, sym.name),
                (hid, xid),
                NCPoly(A, {(xid, hid): rf(1), (xid,): rf(c)}),
                "h_conj",
                {"h": hname, "x": sym.name, "root": i, "exponent": c},
            )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ALGEBRA_BUILDERS = {
    "uq-sl2": lambda: build_uq("sl2"),
    "uq-sl3": lambda: build_uq("sl3"),
    "drinfeldian-sl2": lambda: build_drinfeldian("sl2"),
    "drinfeldian-sl3": lambda: build_drinfeldian("sl3"),
    "yangian-sl2": build_yangian_sl2,
    "twisted-yangian-sl2": build_twisted_yangian_sl2,
}


#: algebra name -> the shipped algebra its q -> 1, kdelta -> 1 limit matches
Q1_LIMITS = {"drinfeldian-sl2": "yangian-sl2"}


def get_presentation(name) -> Presentation:
    try:
        builder = ALGEBRA_BUILDERS[name]
    except KeyError:
        raise UnsupportedAlgebraError(
            "unknown algebra %r (have: %s)" % (name, ", ".join(sorted(ALGEBRA_BUILDERS)))
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# specialization (limits of presentations)
# ---------------------------------------------------------------------------


def specialize(p: Presentation, assignments: dict) -> Presentation:
    """Degenerate a presentation exactly.

    Supported assignments (applied in this order):

    * ``{"kdelta": 1}``  -- send the central group-like pair to 1 (drops the
      letters; ValueError for a presentation without them, i.e. outside the
      drinfeldian family).
    * ``{"eta": 0}``     -- kill the second deformation parameter in every
      coefficient.
    * ``{"q": 1}``       -- the degeneration limit.  For the drinfeldian
      family this is structural: group-like letters k are expanded as
      exponentials of new Cartan letters h around q = 1 and every relation's
      limit is taken exactly (PoleError when a genuine pole survives); the
      result is of the yangian family.  For the other families coefficients
      are substituted naively and the family is kept; for the uq family this
      raises PoleError on the Cartan cross relation -- that family has no
      q -> 1 limit in these coordinates.

    The shift element is carried through kdelta and eta (it has neither), so
    every drinfeldian-family limit keeps its loop coproduct.
    """
    out = p
    unknown = set(assignments) - {"kdelta", "eta", "q"}
    if unknown:
        raise ValueError("unsupported specialization keys: %s" % sorted(unknown))
    if "kdelta" in assignments:
        if assignments["kdelta"] != 1:
            raise ValueError("the central group-like letter can only be sent to 1")
        if "kd+" not in out.alphabet.index:
            raise ValueError("kdelta does not apply: %s has no central "
                             "group-like letter" % out.name)
        out = _drop_central_letters(out)
    if "eta" in assignments:
        if assignments["eta"] != 0:
            raise ValueError("eta can only be sent to 0")
        out = _substitute_coefficients(out, "eta", 0, "%s[eta->0]" % out.name)
    if "q" in assignments:
        if assignments["q"] != 1:
            raise ValueError("q can only be sent to 1")
        if out.family == "drinfeldian":
            out = _structural_q1_limit(out)
        elif out.family in ("uq", "yangian", "classical"):
            out = _substitute_coefficients(out, "q", 1, "%s[q->1]" % out.name)
        else:
            raise UnsupportedAlgebraError("no q->1 path for family %r" % out.family)
    return out


def _substitute_coefficients(p: Presentation, var, value, new_name) -> Presentation:
    # the shift element has no eta, and the drinfeldian q -> 1 limit that
    # would drop it does not come here
    out = Presentation(new_name, p.family, p.cartan, p.alphabet, p.degree_bound,
                       tuple(x for x in p.params if x != var), p.shift_element)
    for rel in p.relations:
        try:
            repl = rel.repl.map_coeffs(lambda c: c.eval_var(var, value))
        except PoleError as exc:
            raise PoleError("relation %s: %s" % (rel.label, exc)) from None
        out.add_rule(rel.label, rel.lead, repl, rel.kind, rel.meta)
    return out


def _drop_central_letters(p: Presentation) -> Presentation:
    A = p.alphabet
    drop = {A.id_of("kd+"), A.id_of("kd-")}
    newA = alphabet(p.cartan, _groups(p) - {"kd"})

    def map_word(w):
        return tuple(newA.id_of(A.name_of(i)) for i in w if i not in drop)

    shift = p.shift_element
    out = Presentation("%s[kdelta->1]" % p.name, p.family, p.cartan, newA,
                       p.degree_bound, p.params,
                       shift if shift is None else translate(shift, newA))
    for rel in p.relations:
        if rel.kind == "k_central":
            continue
        lead = map_word(rel.lead)
        repl = NCPoly(newA, {map_word(w): c for w, c in rel.repl.terms.items()})
        if NCPoly(newA, {lead: rf(1)}) == repl:
            continue
        out.add_rule(rel.label, lead, repl, rel.kind, rel.meta)
    return out


# -- the structural q -> 1 machine -------------------------------------------


def _binom_poly(c, m):
    """binomial(c*h, m) as {h-power: Fraction}: prod_{j<m} (c h - j) / m!."""
    poly = {0: Fraction(1)}
    for j in range(m):
        nxt = {}
        for d, x in poly.items():
            nxt[d + 1] = nxt.get(d + 1, Fraction(0)) + x * c
            if j:
                nxt[d] = nxt.get(d, Fraction(0)) - x * j
        poly = {d: x for d, x in nxt.items() if x}
    return {d: x / factorial(m) for d, x in poly.items()}


def _k_tails_expansion(cexps, mmax):
    """Expansion of the group-like tails of one tensor term: the product over
    slots and roots of k_i^(c_i) with k_i = q^(h_i), q = 1 + s.

    cexps holds one exponent vector (c_1, ..., c_rank) per slot.  Returns
    {s-power m: {per-slot h-exponent tuples: Fraction}} truncated at s^mmax."""
    acc = {0: {tuple((0,) * len(c) for c in cexps): Fraction(1)}}
    for slot, cexp in enumerate(cexps):
        for i, c in enumerate(cexp):
            if not c:
                continue
            factor = [_binom_poly(c, m) for m in range(mmax + 1)]
            nxt = {}
            for m1, monos in acc.items():
                for m2 in range(mmax + 1 - m1):
                    dst = nxt.setdefault(m1 + m2, {})
                    for mt, x1 in monos.items():
                        head, mono, tail = mt[:slot], mt[slot], mt[slot + 1:]
                        for d, x2 in factor[m2].items():
                            key = head + ((mono[:i] + (mono[i] + d,)
                                           + mono[i + 1:]),) + tail
                            val = dst.get(key, Fraction(0)) + x1 * x2
                            if val:
                                dst[key] = val
                            else:
                                dst.pop(key, None)
            acc = nxt
    return acc


def _structural_q1_limit(p: Presentation) -> Presentation:
    """Exact q -> 1 limit of a drinfeldian presentation, of the yangian
    family (at eta = 0 too: it keeps xi).

    Cartan conjugation relations become bracket relations with new letters
    h_i; relations whose words involve group-like letters are expanded with
    k_i = q^(h_i) around q = 1 and the constant term extracted exactly."""
    cd = p.cartan
    A = p.alphabet
    groups = _groups(p) - {"k"} | {"h"}
    out = Presentation("%s[q->1]" % p.name, "yangian", cd,
                       alphabet(cd, groups), degree_bound=p.degree_bound,
                       params=tuple(x for x in p.params if x != "q"))

    # Cartan letters commute among themselves
    _install_comm_rules(out, ["h%s" % label for label in cd.labels])
    if "kd" in groups:
        _install_central_rules(out)

    # the conjugation relations k_i x k_i^-1 = q^c x become h-brackets
    _install_h_conj(out)

    # cross and Serre and mixed relations via the exact limit of zero forms
    for rel in p.relations:
        if rel.kind in ("k_comm", "k_conj", "k_central"):
            continue
        z_lim = _limit_zero_form(rel.zero_form(A), p, out)
        out.add_rule_from_zero_form(z_lim, rel.label, rel.kind, rel.meta)
    return out


def _limit_zero_form(z: NCPoly, src: Presentation, dst: Presentation) -> NCPoly:
    """Exact q -> 1 limit of a normal-form element of the drinfeldian algebra
    (arity-1 wrapper around the tensor version)."""
    out = _limit_tensor_zero_form(z.tensor(), src, dst)
    return NCPoly(dst.alphabet, {k[0]: c for k, c in out.terms.items()})


def _limit_tensor_zero_form(z: TensorPoly, src: Presentation,
                            dst: Presentation) -> TensorPoly:
    """Exact q -> 1 limit of a slotwise-normal-form tensor element.

    Every slot word must carry its group-like letters contiguously at the
    right end (slotwise normal form guarantees this).  Each k_i^(c_i) tail is
    expanded as (1+s)^(c_i h_i) with q = 1 + s; coefficients are expanded as
    exact Laurent series at q = 1; negative net orders must cancel within
    each (slot cores, slot central-exponents) group, else PoleError.  The
    pole bookkeeping is shared across all slots of a term, which is what
    makes group-like differences such as a*(x (x) (k^2 - 1)) converge.

    A dst without the central letter sends it to 1: it is dropped as each
    word is split, so terms differing only in it share one group."""
    srcA = src.alphabet
    dstA = dst.alphabet
    cd = src.cartan
    rank = cd.rank
    k_sign = {}
    for i in range(rank):
        k_sign[srcA.id_of("k+%s" % cd.labels[i])] = (i, 1)
        k_sign[srcA.id_of("k-%s" % cd.labels[i])] = (i, -1)
    keep = int("kd+" in dstA.index)
    central = ({srcA.id_of("kd+"): keep, srcA.id_of("kd-"): -keep}
               if "kd+" in srcA.index else {})
    h_ids = [dstA.id_of("h%s" % cd.labels[i]) for i in range(rank)]

    def split(word):
        core = []
        cexp = [0] * rank
        d = 0
        tail = False
        for letter in word:
            if letter in k_sign:
                i, s = k_sign[letter]
                cexp[i] += s
                tail = True
            elif letter in central:
                d += central[letter]
                tail = True
            else:
                if tail:
                    raise ValueError(
                        "group-like letters not contiguous at right end of %s"
                        % srcA.word_str(word))
                core.append(dstA.id_of(srcA.name_of(letter)))
        return tuple(core), tuple(cexp), d

    groups = {}
    for words, coeff in z.terms.items():
        cores, cexps, ds = [], [], []
        for word in words:
            core, cexp, d = split(word)
            cores.append(core)
            cexps.append(cexp)
            ds.append(d)
        groups.setdefault((tuple(cores), tuple(ds)), []).append(
            (tuple(cexps), coeff))

    terms = {}
    for (cores, ds), entries in groups.items():
        acc = {}  # (t, per-slot h-monomials) -> RatFunc
        for cexps, coeff in entries:
            ord0, coeffs = laurent_coeffs(coeff, "q", 1, 0)
            expansion = _k_tails_expansion(cexps, max(0, -ord0))
            for m, monos in expansion.items():
                for j, fc in enumerate(coeffs):
                    t = ord0 + j + m
                    if t > 0 or fc.is_zero():
                        continue
                    for mt, bc in monos.items():
                        add_term(acc, (t, mt), fc * bc)
        for (t, mt), val in acc.items():
            if t < 0:
                raise PoleError(
                    "net pole of order %d at q=1 in the limit of %s" % (-t, z))
            out_words = []
            for slot, core in enumerate(cores):
                word = list(core)
                for i, m in enumerate(mt[slot]):
                    word.extend([h_ids[i]] * m)
                d = ds[slot]
                if d:
                    kd = dstA.id_of("kd+") if d > 0 else dstA.id_of("kd-")
                    word.extend([kd] * abs(d))
                out_words.append(tuple(word))
            add_term(terms, tuple(out_words), val)
    return TensorPoly(dstA, z.arity, terms)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def translate(z, alphabet):
    """z (an NCPoly or a TensorPoly) with each letter replaced by the letter
    of the same name in alphabet, or the name of the first letter alphabet
    lacks."""
    names, index = z.alphabet.symbols, alphabet.index

    def word(w):
        return tuple(index[names[i].name] for i in w)

    try:
        if isinstance(z, TensorPoly):
            return TensorPoly(alphabet, z.arity, {
                tuple(map(word, key)): c for key, c in z.terms.items()})
        return NCPoly(alphabet, {word(w): c for w, c in z.terms.items()})
    except KeyError as exc:
        return exc.args[0]


def comparison_cases(p1: Presentation, p2: Presentation, reps1=(), reps2=()):
    """The relations of each presentation, to be decided in the other:
    (direction, label, other presentation, translated zero form or missing
    letter name, witnesses for the other) per relation."""
    for a, b, tag, reps in ((p1, p2, "forward", reps2),
                            (p2, p1, "backward", reps1)):
        for rel in a.relations:
            yield (tag, rel.label, b,
                   translate(rel.zero_form(a.alphabet), b.alphabet), reps)


def compare_presentations(p1: Presentation, p2: Presentation,
                          reps1=(), reps2=()):
    """Mutual reduction check: every relation of each presentation must be
    zero in the other.  Generators are matched by name.  Returns a list of
    (direction, label, verdict) triples; reps1/reps2 are nonzero witnesses
    for p1/p2 respectively (see is_zero_mod)."""
    return [(tag, label,
             "unknown" if isinstance(z, str) else b.is_zero_mod(z, reps=reps))
            for tag, label, b, z, reps
            in comparison_cases(p1, p2, reps1, reps2)]
