"""Text-format round trips for presentations, Hopf appendices, and reps."""

import itertools
from fractions import Fraction

import pytest

from loopdeform.errors import (
    PoleError,
    RepValidationError,
    UnsupportedAlgebraError,
)
from loopdeform.hopf import build_hopf
from loopdeform.presentations import (
    ALGEBRA_BUILDERS,
    build_classical_sl2,
    build_drinfeldian,
    build_uq,
    build_yangian_sl2,
    get_presentation,
    specialize,
)
from loopdeform.ratfunc import rf
from loopdeform.repn import default_reps, solve_eval_correction
from loopdeform.serial import (
    FormatError,
    dump_bundle,
    dump_presentation,
    load_bundle,
    load_presentation,
    parse_ncpoly,
    parse_tensorpoly,
)


@pytest.mark.parametrize("build", [
    lambda: build_uq("sl2"),
    lambda: build_uq("sl3"),
    lambda: build_drinfeldian("sl2"),
    lambda: build_drinfeldian("sl3"),
    build_yangian_sl2,
], ids=["uq-sl2", "uq-sl3", "drinfeldian-sl2", "drinfeldian-sl3",
        "yangian-sl2"])
def test_presentation_round_trip(build):
    p = build()
    text = dump_presentation(p)
    q = load_presentation(text)
    assert q.name == p.name and q.family == p.family
    assert q.params == p.params and q.degree_bound == p.degree_bound
    assert q.alphabet == p.alphabet
    assert q.shift_element == p.shift_element
    assert len(q.relations) == len(p.relations)
    for a, b in zip(p.relations, q.relations):
        assert (a.label, a.lead, a.repl) == (b.label, b.lead, b.repl)
    # dumping the loaded presentation is byte-identical
    assert dump_presentation(q) == text


def _specializations():
    """(label, presentation) for each shipped algebra under each subset of
    {kdelta=1, eta=0, q=1} that specialize accepts, the empty one included."""
    values = {"kdelta": 1, "eta": 0, "q": 1}
    out = []
    for name in ALGEBRA_BUILDERS:
        for n in range(len(values) + 1):
            for keys in itertools.combinations(values, n):
                try:
                    p = specialize(get_presentation(name),
                                   {k: values[k] for k in keys})
                except (ValueError, PoleError):
                    continue
                out.append(("%s %s" % (name, ",".join(keys)), p))
    return out


def test_every_specialization_round_trips():
    cases = _specializations()
    # 6 shipped algebras and 22 limits of them
    assert len(cases) == 28
    assert sum(p.name in ALGEBRA_BUILDERS for _, p in cases) == 6
    for label, p in cases:
        text = dump_presentation(p)
        q = load_presentation(text)
        assert dump_presentation(q) == text, label
        assert ((q.family, q.params, q.degree_bound, q.shift_element)
                == (p.family, p.params, p.degree_bound, p.shift_element)), label
        assert q.alphabet == p.alphabet, label
        assert ([(r.label, r.lead, r.repl) for r in q.relations]
                == [(r.label, r.lead, r.repl) for r in p.relations]), label
        # with Hopf data, wherever build_hopf gives it: the bundle loads back
        # byte-identically, and so do the maps rebuilt on the loaded copy
        try:
            H = build_hopf(p)
        except UnsupportedAlgebraError:
            continue
        text = dump_bundle(p, H)
        q, Hq, _ = load_bundle(text)
        assert dump_bundle(q, Hq) == text, label
        assert dump_bundle(q, build_hopf(q)) == text, label


def test_drinfeldian_without_its_shift_loads_but_has_no_hopf_data():
    text = dump_presentation(build_drinfeldian("sl2"))
    lines = text.splitlines(keepends=True)
    assert sum(l.startswith("shift ") for l in lines) == 1
    q = load_presentation("".join(l for l in lines
                                  if not l.startswith("shift ")))
    assert q.shift_element is None
    with pytest.raises(UnsupportedAlgebraError, match="shift element"):
        build_hopf(q)


def test_no_specialization_is_classical_with_the_loop_letter():
    assert not [label for label, p in _specializations()
                if p.family == "classical" and "xi" in p.alphabet.index]


def test_loaded_rules_rewrite_identically():
    p = build_drinfeldian("sl2")
    q = load_presentation(dump_presentation(p))
    for rel in q.relations:
        assert q.normal_form(rel.zero_form(q.alphabet)).is_zero()
    probe = p.gen("e+a1") * p.gen("e-a1") * p.gen("k+a1")
    mirror = q.gen("e+a1") * q.gen("e-a1") * q.gen("k+a1")
    assert str(p.normal_form(probe)) == str(q.normal_form(mirror))


def test_bundle_round_trip_with_hopf_and_rep():
    p = build_yangian_sl2()
    H = build_hopf(p)
    r = solve_eval_correction(Fraction(1, 2), p)
    text = dump_bundle(p, H, [r])
    q, H2, reps = load_bundle(text)
    assert H2.delta == dict(H.delta)
    assert H2.antipode == dict(H.antipode)
    assert H2.epsilon == dict(H.epsilon)
    assert len(reps) == 1 and reps[0].label == r.label
    assert reps[0].images == r.images
    assert dump_bundle(q, H2, reps) == text


def test_q_deformed_bundle_round_trip():
    p = build_uq("sl2")
    text = dump_bundle(p, build_hopf(p), [default_reps(p)[0]])
    q, H2, reps = load_bundle(text)
    assert dump_bundle(q, H2, reps) == text


def test_element_parsers_invert_str():
    p = build_drinfeldian("sl2")
    x = (p.gen("e+a1") * p.gen("k-a1")).scale(rf("(q^2-1)/(q*eta)")) \
        + p.unit().scale(rf("-1/2"))
    assert parse_ncpoly(str(x), p.alphabet) == x
    t = x.tensor(p.gen("xi") - p.unit())
    assert parse_tensorpoly(str(t), p.alphabet, 2) == t
    assert parse_ncpoly("0", p.alphabet).is_zero()
    assert parse_tensorpoly("0", p.alphabet, 2).is_zero()


def test_malformed_documents_are_rejected():
    p = build_yangian_sl2()
    good = dump_presentation(p)
    with pytest.raises(FormatError):
        load_presentation("")
    with pytest.raises(FormatError):
        load_presentation(good.replace("family yangian", "family nosuch"))
    with pytest.raises(FormatError):
        load_presentation(good.replace("cartan sl2", "cartan e8"))
    # a gen line that disagrees with the rebuilt alphabet
    with pytest.raises(FormatError):
        load_presentation(good.replace("gen xi weight=-1 degree=1",
                                       "gen xi weight=7 degree=1"))
    # a missing gen line
    lines = [l for l in good.splitlines() if not l.startswith("gen ha1")]
    with pytest.raises(FormatError):
        load_presentation("\n".join(lines))
    # an unknown letter inside a relation
    with pytest.raises(FormatError):
        load_presentation(good.replace("xi.e-a1", "nope.e-a1"))
    # matrices outside a rep block
    with pytest.raises(FormatError):
        load_bundle(good + "mat ha1: 1,0;0,-1\n")


@pytest.mark.parametrize("build", [
    lambda: build_uq("sl2"),
    build_classical_sl2,
], ids=["uq", "classical"])
def test_central_pair_is_rejected_outside_the_loop_families(build):
    text = dump_presentation(build())
    # append the central pair to the gen lines
    last = [l for l in text.splitlines() if l.startswith("gen ")][-1]
    bad = text.replace(last + "\n", last + "\n"
                       "gen kd+ weight=0 degree=0 parity=0 inverse=kd-\n"
                       "gen kd- weight=0 degree=0 parity=0 inverse=kd+\n")
    assert bad != text
    with pytest.raises(FormatError):
        load_presentation(bad)


def test_half_a_central_pair_is_a_missing_gen_line():
    text = dump_presentation(build_drinfeldian("sl2"))
    lines = [l for l in text.splitlines() if not l.startswith("gen kd-")]
    with pytest.raises(FormatError):
        load_presentation("\n".join(lines))


_HEADER = "presentation x\nfamily uq\ncartan sl2\nparams -\ndegree-bound 12\n"


@pytest.mark.parametrize("text, lineno", [
    # the header block ends early: the error names the last line there is
    ("presentation x\nfamily uq", 2),
    ("presentation x\n\nfamily uq\n# no cartan line\n", 3),
    ("presentation x\nfamily uq\ncartan sl2\nparams -\ndegree-bound z\n", 5),
    ("presentation x\nfamily uq\ncartan sl2\nparams -\ndegree-bound 2.5\n", 5),
    # a gen or rep field that must be an integer is not one
    (_HEADER + "gen e-a1 weight=x degree=0 parity=0\n", 6),
    (_HEADER + "gen e-a1 weight=-1 degree=x parity=0\n", 6),
    (_HEADER + "gen e-a1 weight=-1 degree=0 parity=x\n", 6),
    (_HEADER + "rep r dim=x\n", 6),
], ids=["ends-at-family", "ends-at-comment", "bound-z", "bound-2.5",
        "weight-x", "degree-x", "parity-x", "dim-x"])
def test_malformed_header_is_a_format_error_at_its_line(text, lineno):
    with pytest.raises(FormatError) as info:
        load_bundle(text)
    assert info.value.lineno == lineno
    assert str(info.value).startswith("line %d: " % lineno)


def _yangian_bundle_lines():
    p = build_yangian_sl2()
    r = solve_eval_correction(Fraction(1, 2), p)
    return dump_bundle(p, build_hopf(p), [r]).splitlines()


@pytest.mark.parametrize("anchor, line, replace", [
    ("rel ", "rel x: foo.e-a1 => 0", True),
    ("degree-bound ", "shift foo", False),
    ("rel ", "rel x: e-a1 => (q^)*e+a1", True),
    ("counit xi:", "counit xi: q^^", True),
    ("counit xi:", "counit xi: 1/0", True),
    ("delta xi:", "delta xi: 1*(xi)", True),
    ("delta xi:", "delta nope: 1*(xi @ 1)", True),
    ("mat xi:", "mat xi: 1,0;0", True),
    # after the last matrix of a complete rep block
    ("mat ha1:", "mat foo: 1,0;0,1", False),
], ids=["rel-letter", "shift-letter", "rel-exponent", "counit-exponent",
        "counit-pole", "delta-one-slot", "delta-letter", "mat-ragged",
        "mat-letter"])
def test_malformed_payload_is_a_format_error_at_its_line(anchor, line,
                                                         replace):
    lines = _yangian_bundle_lines()
    i = next(i for i, l in enumerate(lines) if l.startswith(anchor))
    if replace:
        lines[i] = line
    else:
        i += 1
        lines.insert(i, line)
    with pytest.raises(FormatError) as info:
        load_bundle("\n".join(lines) + "\n")
    assert info.value.lineno == i + 1


def test_loaded_rep_is_revalidated():
    p = build_yangian_sl2()
    r = solve_eval_correction(Fraction(1, 2), p)
    text = dump_bundle(p, reps=[r])
    # corrupt one matrix entry: construction must replay the relation check
    bad = text.replace("mat ha1: 1,0;0,-1", "mat ha1: 1,0;0,1")
    assert bad != text
    with pytest.raises(RepValidationError):
        load_bundle(bad)


def test_comments_and_blank_lines_are_skipped():
    p = build_yangian_sl2()
    text = dump_presentation(p)
    noisy = "# header comment\n\n" + text.replace(
        "degree-bound", "# inline note\ndegree-bound")
    assert dump_presentation(load_presentation(noisy)) == text


# ---------------------------------------------------------------------------
# the parity attribute: written as 0, only 0 accepted
# ---------------------------------------------------------------------------


def test_dumps_write_parity_zero_on_every_gen_line():
    text = dump_presentation(build_drinfeldian("sl2"))
    gens = [l for l in text.splitlines() if l.startswith("gen ")]
    assert gens and all(" parity=0" in l for l in gens)


def test_gen_line_with_odd_parity_is_rejected():
    text = dump_presentation(build_yangian_sl2())
    bad = text.replace("gen xi weight=-1 degree=1 parity=0",
                       "gen xi weight=-1 degree=1 parity=1")
    assert bad != text
    with pytest.raises(FormatError):
        load_presentation(bad)


def test_gen_line_without_parity_loads():
    text = dump_presentation(build_yangian_sl2())
    bare = text.replace(" parity=0", "")
    assert "parity" not in bare
    q = load_presentation(bare)
    assert dump_presentation(q) == text
