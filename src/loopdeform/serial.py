"""Line-oriented text format for presentations, Hopf data, and matrix reps.

The format is deliberately plain so diffs stay reviewable:

    presentation <name>
    family <uq|drinfeldian|yangian|classical>
    cartan <sl2|sl3>
    params <comma-list or ->
    degree-bound <int>
    shift <NCPoly>                      (loop deformations only)
    gen <name> weight=<ints> degree=<int> parity=0 [inverse=<name>]
    rel <label>: <word or NCPoly> => <NCPoly>
    delta <gen>: <two-slot TensorPoly>  (Hopf appendix, optional)
    antipode <gen>: <NCPoly>
    counit <gen>: <RatFunc>
    rep <label> dim=<int>               (matrix blocks, optional)
    mat <gen>: e,e,...;e,e,...          (rows ;-separated, entries ,-separated)

Elements serialize through their canonical string forms (sorted terms,
reduced monic-denominator coefficients), so dumping is deterministic and a
load/dump round trip is byte-identical.  Loading builds the alphabet from
the letter catalogue of the Cartan type (``presentations.alphabet``): the
family fixes its letter groups, and the central pair ``kd+``, ``kd-`` is
part of it when the document has ``gen`` lines for it, which only a
drinfeldian or yangian document may have.  So every presentation the
package builds, shipped or specialized, loads back.  Loading verifies every
``gen`` line against that alphabet and reconstructs relations as plain
rewrite rules; the structural metadata that drives parameter limits is not part of the text format, so loaded
presentations verify and rewrite but are not inputs to the limit machinery.
Hopf maps are re-validated for generator coverage and representations replay
their full relation check on load.  A payload line that names a letter the
alphabet lacks, or whose element or matrix does not parse, is a
``FormatError`` at its line.  Every letter is even: dumps write
``parity=0``, and loading rejects any other value (a missing one reads as 0).
"""

from .errors import UnknownGeneratorError, UnsupportedAlgebraError
from .freealg import NCPoly, TensorPoly, add_term
from .hopf import HopfData
from .presentations import (
    CENTRAL_FAMILIES,
    FAMILY_GROUPS,
    Presentation,
    alphabet,
    cartan_data,
)
from .ratfunc import RatFunc, parse_ratfunc, rf
from .repn import MatrixRF, Rep


class FormatError(ValueError):
    """A text document did not match the presentation file format."""

    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


# ---------------------------------------------------------------------------
# element parsing (inverse of the canonical __str__ forms)
# ---------------------------------------------------------------------------


def _split_sum(text):
    """Split on top-level ' + ' (plus signs inside parentheses stay put)."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            i += 3
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _split_coeff(part):
    """Split 'coeff*payload' at the last top-level '*'; None if there is no
    separator (bare word with unit coefficient)."""
    depth, pos = 0, None
    for i, ch in enumerate(part):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            pos = i
    if pos is None:
        return None, part
    return part[:pos], part[pos + 1:]


def parse_ncpoly(text, alphabet) -> NCPoly:
    """Parse the canonical NCPoly text form over the given alphabet."""
    text = text.strip()
    if text == "0":
        return NCPoly.zero(alphabet)
    terms = {}
    for part in _split_sum(text):
        coeff_text, word_text = _split_coeff(part.strip())
        c = rf(1) if coeff_text is None else parse_ratfunc(coeff_text)
        add_term(terms, alphabet.parse_word(word_text), c)
    return NCPoly(alphabet, terms)


def _trailing_group(part):
    """Split 'coeff*( ... )' at the parenthesized payload that ends the term."""
    if not part.endswith(")"):
        raise ValueError("tensor term %r does not end in a slot group" % part)
    depth = 0
    for i in range(len(part) - 1, -1, -1):
        if part[i] == ")":
            depth += 1
        elif part[i] == "(":
            depth -= 1
            if depth == 0:
                if i == 0 or part[i - 1] != "*":
                    raise ValueError("tensor term %r lacks a coefficient" % part)
                return part[:i - 1], part[i + 1:-1]
    raise ValueError("unbalanced parentheses in %r" % part)


def parse_tensorpoly(text, alphabet, arity) -> TensorPoly:
    """Parse the canonical TensorPoly text form over the given alphabet."""
    text = text.strip()
    if text == "0":
        return TensorPoly.zero(alphabet, arity)
    terms = {}
    for part in _split_sum(text):
        coeff_text, slots_text = _trailing_group(part.strip())
        c = parse_ratfunc(coeff_text)
        slots = slots_text.split(" @ ")
        if len(slots) != arity:
            raise ValueError("expected %d slots, got %d in %r"
                             % (arity, len(slots), part))
        add_term(terms, tuple(alphabet.parse_word(s) for s in slots), c)
    return TensorPoly(alphabet, arity, terms)


def _parse_matrix(text) -> MatrixRF:
    rows = [[parse_ratfunc(e) for e in row.split(",")]
            for row in text.strip().split(";")]
    return MatrixRF(rows)


def _matrix_text(m: MatrixRF) -> str:
    return ";".join(",".join(str(c) for c in row) for row in m.rows)


# ---------------------------------------------------------------------------
# dumping
# ---------------------------------------------------------------------------


def dump_presentation(p: Presentation) -> str:
    lines = [
        "presentation %s" % p.name,
        "family %s" % p.family,
        "cartan %s" % p.cartan.name,
        "params %s" % (",".join(p.params) if p.params else "-"),
        "degree-bound %d" % p.degree_bound,
    ]
    if p.shift_element is not None:
        lines.append("shift %s" % p.shift_element)
    for s in p.alphabet.symbols:
        line = "gen %s weight=%s degree=%d parity=0" % (
            s.name, ",".join(str(x) for x in s.weight), s.loop_degree)
        if s.inv_name is not None:
            line += " inverse=%s" % s.inv_name
        lines.append(line)
    for rel in p.relations:
        lines.append("rel %s: %s => %s"
                     % (rel.label, p.alphabet.word_str(rel.lead), rel.repl))
    return "\n".join(lines) + "\n"


def dump_hopf(H: HopfData) -> str:
    """The Hopf appendix (generator maps in alphabet order)."""
    lines = []
    names = [s.name for s in H.presentation.alphabet.symbols]
    for name in names:
        lines.append("delta %s: %s" % (name, H.delta[name]))
    for name in names:
        lines.append("antipode %s: %s" % (name, H.antipode[name]))
    for name in names:
        lines.append("counit %s: %s" % (name, H.epsilon[name]))
    return "\n".join(lines) + "\n"


def dump_rep(r: Rep) -> str:
    lines = ["rep %s dim=%d" % (r.label, r.dimension)]
    for s in r.presentation.alphabet.symbols:
        lines.append("mat %s: %s" % (s.name, _matrix_text(r.images[s.name])))
    return "\n".join(lines) + "\n"


def dump_bundle(p: Presentation, hopf: HopfData = None, reps=()) -> str:
    text = dump_presentation(p)
    if hopf is not None:
        if hopf.presentation is not p:
            raise ValueError("Hopf data belongs to a different presentation")
        text += dump_hopf(hopf)
    for r in reps:
        if r.presentation is not p:
            raise ValueError("rep %s belongs to a different presentation"
                             % r.label)
        text += dump_rep(r)
    return text


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _int(lineno, text, what):
    """int(text), or a FormatError at lineno naming what was not one."""
    try:
        return int(text)
    except ValueError:
        raise FormatError(lineno, "%s %r is not an integer"
                          % (what, text)) from None


def _payload(lineno, parse, *args):
    """parse(*args), or a FormatError at lineno if it rejects its input: a
    letter the alphabet lacks, or a malformed element or matrix."""
    try:
        return parse(*args)
    except UnknownGeneratorError as exc:
        raise FormatError(lineno, "letter %s is not part of this family's "
                          "alphabet" % exc) from None
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(lineno, str(exc)) from None


def _expect_fields(lineno, line, key):
    if not line.startswith(key + " "):
        raise FormatError(lineno, "expected %r header, got %r" % (key, line))
    return line[len(key) + 1:].strip()


def _parse_gen_line(lineno, rest, letters):
    """Validate one `gen` line against its entry in the loaded alphabet."""
    fields = rest.split()
    if not fields:
        raise FormatError(lineno, "empty gen line")
    name, attrs = fields[0], {}
    for f in fields[1:]:
        if "=" not in f:
            raise FormatError(lineno, "malformed attribute %r" % f)
        k, v = f.split("=", 1)
        attrs[k] = v
    sym = letters.symbols[_payload(lineno, letters.id_of, name)]
    weight = tuple(_int(lineno, x, "weight")
                   for x in attrs.get("weight", "").split(","))
    if (weight != sym.weight
            or _int(lineno, attrs.get("degree", "0"), "degree")
            != sym.loop_degree
            or _int(lineno, attrs.get("parity", "0"), "parity") != 0
            or attrs.get("inverse") != sym.inv_name):
        raise FormatError(lineno, "gen %s does not match its catalogue entry"
                          % name)
    return name


def load_bundle(text):
    """Parse a document into (Presentation, HopfData or None, list of Rep).

    The presentation header must come first; `gen` lines are validated
    against the alphabet of the family's letter groups over the Cartan type,
    with the central pair when the document has `gen` lines for it; relations,
    Hopf maps, and representation blocks follow in any interleaving after
    their owners.  A malformed line is a FormatError at its line; a matrix
    image that breaks the relations is a RepValidationError."""
    lines = [(n + 1, raw.strip()) for n, raw in enumerate(text.splitlines())]
    lines = [(n, s) for n, s in lines if s and not s.startswith("#")]
    if not lines:
        raise FormatError(0, "empty document")
    pos = 0

    def take(key):
        nonlocal pos
        if pos == len(lines):
            raise FormatError(lines[-1][0], "expected %r header, got the end "
                              "of the document" % key)
        n, line = lines[pos]
        value = _expect_fields(n, line, key)
        pos += 1
        return n, value

    _, name = take("presentation")
    _, family = take("family")
    if family not in FAMILY_GROUPS:
        raise FormatError(lines[pos - 1][0], "unknown family %r" % family)
    _, cartan_name = take("cartan")
    try:
        cd = cartan_data(cartan_name)
    except UnsupportedAlgebraError as exc:
        raise FormatError(lines[pos - 1][0], str(exc)) from None
    _, params_text = take("params")
    params = () if params_text == "-" else tuple(params_text.split(","))
    n, bound_text = take("degree-bound")
    degree_bound = _int(n, bound_text, "degree bound")
    groups = set(FAMILY_GROUPS[family]) - {"kd"}
    if family in CENTRAL_FAMILIES and any(
            line.split()[:2] in (["gen", "kd+"], ["gen", "kd-"])
            for _, line in lines[pos:]):
        groups.add("kd")
    letters = alphabet(cd, groups)

    shift = None
    if pos < len(lines) and lines[pos][1].startswith("shift "):
        n, value = take("shift")
        shift = _payload(n, parse_ncpoly, value, letters)

    p = Presentation(name, family, cd, letters,
                     degree_bound=degree_bound, params=params,
                     shift_element=shift)

    seen_gens = set()
    delta, antipode, counit = {}, {}, {}
    # key of a Hopf appendix line -> (its map, the parser of its payload)
    hopf_lines = {
        "delta": (delta, lambda body: parse_tensorpoly(body, letters, 2)),
        "antipode": (antipode, lambda body: parse_ncpoly(body, letters)),
        "counit": (counit, parse_ratfunc),
    }
    reps = []
    current_rep = None  # (label, dim, images dict)

    def close_rep():
        nonlocal current_rep
        if current_rep is not None:
            label, _, images = current_rep
            reps.append(Rep(p, images, label))
            current_rep = None

    while pos < len(lines):
        n, line = lines[pos]
        pos += 1
        key, _, rest = line.partition(" ")
        if key == "gen":
            seen_gens.add(_parse_gen_line(n, rest, letters))
            continue
        if key == "rel":
            label, sep, body = rest.partition(": ")
            if not sep or " => " not in body:
                raise FormatError(n, "malformed rel line %r" % line)
            lead_text, _, repl_text = body.partition(" => ")
            # a rule lead is a raw pattern: parse it without the inverse-pair
            # contraction that element constructors apply (group-like rules
            # spell out exactly such pairs)
            lead = tuple(_payload(n, letters.id_of, x)
                         for x in lead_text.strip().split("."))
            repl = _payload(n, parse_ncpoly, repl_text, letters)
            # keep the written orientation rather than re-orienting, so a
            # dump/load round trip is the identity on rule lists
            p.add_rule(label, lead, repl, "loaded")
            continue
        if key in hopf_lines:
            gen, _, body = rest.partition(": ")
            _payload(n, letters.id_of, gen)
            images, parse = hopf_lines[key]
            images[gen] = _payload(n, parse, body)
            continue
        if key == "rep":
            close_rep()
            fields = rest.split()
            if len(fields) != 2 or not fields[1].startswith("dim="):
                raise FormatError(n, "malformed rep header %r" % line)
            current_rep = (fields[0], _int(n, fields[1][4:], "dim"), {})
            continue
        if key == "mat":
            if current_rep is None:
                raise FormatError(n, "mat line outside a rep block")
            gen, _, body = rest.partition(": ")
            _payload(n, letters.id_of, gen)
            m = _payload(n, _parse_matrix, body)
            if m.nrows != current_rep[1] or m.ncols != current_rep[1]:
                raise FormatError(n, "matrix for %s is not %dx%d"
                                  % (gen, current_rep[1], current_rep[1]))
            current_rep[2][gen] = m
            continue
        raise FormatError(n, "unrecognized line %r" % line)

    close_rep()
    missing = {s.name for s in letters.symbols} - seen_gens
    if missing:
        raise FormatError(0, "gen lines missing for %s"
                          % ", ".join(sorted(missing)))

    hopf = None
    if delta or antipode or counit:
        hopf = HopfData(p, delta, counit, antipode)
    return p, hopf, reps


def load_presentation(text) -> Presentation:
    return load_bundle(text)[0]
