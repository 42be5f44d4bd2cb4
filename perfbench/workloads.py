"""The four benchmark workloads, built from loopdeform's public functions.

Each workload is a function ``(seed, ctx) -> [Job]``.  Calling it is the
set-up: it builds every Presentation, HopfData and witness Rep the jobs take
as input (building a Rep runs its symbolic validation).  Running a job is one
public check call, one batch of ``is_zero_mod`` calls, or one CLI command,
and returns ``(items, extra)``: the verdict items ``[label, verdict,
payload]`` and anything else the expected answer constrains.

Why each workload was chosen is written in perfbench/README.md.  The seed
only feeds random-soundness; the other three have fixed inputs.
"""

import json
import os
import random
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial

from loopdeform import cli
from loopdeform import (
    HopfData,
    NCPoly,
    build_hopf,
    build_yangian_sl2,
    check_homomorphism,
    default_reps,
    get_presentation,
    loop_shift_coefficient,
    rf,
    solve_eval_correction,
    tensor,
    twisted_antipode,
    twisted_coproduct,
)
from loopdeform.twist import (
    check_cocycle,
    check_twist_counit,
    check_twisted_antipode,
    check_twisted_coassoc,
    check_twisted_homomorphism,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ALL_ALGEBRAS = ("uq-sl2", "uq-sl3", "drinfeldian-sl2", "drinfeldian-sl3",
                "yangian-sl2", "twisted-yangian-sl2")
#: elements per algebra in random-soundness; half are known zeros
SAMPLE_PER_ALGEBRA = 1500
#: twist --order 4 exceeds the default rewriting bound of 12
ORDER4_DEGREE_BOUND = 16

DECIDED = {"zero", "nonzero", "pass", "fail"}


#: run() -> (items, extra)
Job = namedtuple("Job", "name run")


class Context:
    """Where a pass may write, and the tracer of a traced pass."""

    def __init__(self, tmp, tracer):
        self.tmp = tmp
        self.tracer = tracer
        #: tracer records of the forked CLI commands
        self.cli_traces = []


def _rows(rows):
    return [[label, verdict, None if payload is None else str(payload)]
            for label, verdict, payload in rows], {}


# ---------------------------------------------------------------------------
# coproduct-hom
# ---------------------------------------------------------------------------


def _yangian_mutant(p, H):
    """Acceptance criterion 6, mutation 1: flipped sign on the eta-pairing
    term of the loop generator's undeformed coproduct."""
    xi, f, h = p.gen("xi"), p.gen("e-a1"), p.gen("ha1")
    one = p.unit()
    delta = dict(H.delta)
    delta["xi"] = (tensor(xi, one) + tensor(one, xi)
                   - tensor(f, h).scale(rf("eta")))
    return HopfData(p, delta, H.epsilon, H.antipode)


def _drinfeldian_mutant(p, H):
    """Acceptance criterion 6, mutation 2: flipped sign on the
    shift-coefficient correction of the loop generator's coproduct."""
    xi, f, k = p.gen("xi"), p.gen("e-a1"), p.gen("k+a1")
    one = p.unit()
    a = loop_shift_coefficient()
    kinv = p.normal_form(p.gen("kd-") * k)
    s = p.normal_form(f * k)
    ds = tensor(s, k * k) + tensor(k, s)
    delta = dict(H.delta)
    delta["xi"] = p.normal_form_tensor(
        tensor(xi, one) + tensor(kinv, xi)
        - (ds - tensor(s, one) - tensor(kinv, s)).scale(a))
    return HopfData(p, delta, H.epsilon, H.antipode)


def coproduct_hom(seed, ctx):
    jobs, built = [], {}
    for name in ("uq-sl3", "yangian-sl2", "drinfeldian-sl2",
                 "drinfeldian-sl3"):
        p = get_presentation(name)
        H = built[name] = build_hopf(p)
        jobs.append(Job("hom:" + name,
                        partial(_hom, H, default_reps(p))))
    for name, mutate in (("yangian-sl2", _yangian_mutant),
                         ("drinfeldian-sl2", _drinfeldian_mutant)):
        H = built[name]
        mutant = mutate(H.presentation, H)
        jobs.append(Job("mutant:" + name,
                        partial(_hom, mutant, default_reps(H.presentation))))
    return jobs


def _hom(H, reps):
    return _rows(check_homomorphism(H, reps=reps))


# ---------------------------------------------------------------------------
# twist-series
# ---------------------------------------------------------------------------


def twist_series(seed, ctx):
    jobs = []
    for order, bound in ((3, None), (4, ORDER4_DEGREE_BOUND)):
        p = build_yangian_sl2()
        if bound is not None:
            p.degree_bound = bound
        H = build_hopf(p)
        r = solve_eval_correction(Fraction(1, 2), p)
        tag = "order%d:" % order
        jobs += [
            Job(tag + "cocycle", partial(_call, check_cocycle, order,
                                         reps=(r, r, r), p=p)),
            Job(tag + "coassoc", partial(_call, check_twisted_coassoc, H,
                                         order)),
            Job(tag + "homomorphism", partial(
                _call, check_twisted_homomorphism, H, order)),
            Job(tag + "antipode", partial(_call, check_twisted_antipode, H,
                                          order)),
            Job(tag + "counit", partial(_call, check_twist_counit, order,
                                        p=p)),
        ]
        if order == 3:
            jobs.append(Job("zeta0:roundtrip", partial(_zeta_zero, H, order)))
    return jobs


def _call(fn, *args, **kwargs):
    return _rows(fn(*args, **kwargs))


def _zeta_zero(H, order):
    """Acceptance criterion 9's round trip: the order-0 coefficient of the
    twisted maps reproduces the untwisted ones byte for byte."""
    p = H.presentation
    items = []
    for name in H.delta:
        x = p.gen(name)
        same = (str(twisted_coproduct(x, H, order)[0])
                == str(p.normal_form_tensor(H.coproduct(x))))
        items.append(["delta:" + name, "zero" if same else "nonzero", None])
        same = (str(twisted_antipode(x, H, order)[0])
                == str(p.normal_form(H.antipode_of(x))))
        items.append(["antipode:" + name, "zero" if same else "nonzero",
                      None])
    return items, {}


# ---------------------------------------------------------------------------
# random-soundness
# ---------------------------------------------------------------------------


def _coefficient(rng):
    return rf(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                       rng.choice((1, 2, 3))))


def sample(p, rng, count):
    """[(kind, element)], alternating two kinds:

    * a known zero: a relation zero form, scaled by a random rational, times
      0, 1 or 2 random generators on random sides;
    * a random word of degree 0 to 6 with a random rational coefficient.

    The relation, the number of generators and the word length cycle through
    all their values instead of being drawn, so every seed has the same mix
    and seeds differ only in the drawn letters, sides and coefficients."""
    A = p.alphabet
    names = [s.name for s in A.symbols]
    zero_forms = [rel.zero_form(A) for rel in p.relations]
    out = []
    for i in range(count):
        j = i // 2
        if i % 2 == 0:
            x = zero_forms[j % len(zero_forms)].scale(_coefficient(rng))
            for _ in range(j // len(zero_forms) % 3):
                g = p.gen(rng.choice(names))
                x = g * x if rng.random() < 0.5 else x * g
            out.append(("known-zero", x))
        else:
            word = [rng.choice(names) for _ in range(j % 7)]
            x = NCPoly.word(A, word).scale(_coefficient(rng))
            out.append(("random", x))
    return out


def random_soundness(seed, ctx):
    rng = random.Random(seed)
    jobs = []
    for name in ALL_ALGEBRAS:
        p = get_presentation(name)
        reps = default_reps(p)
        jobs.append(Job("zero-mod:" + name, partial(
            _decide, p, reps, sample(p, rng, SAMPLE_PER_ALGEBRA))))
    return jobs


def _decide(p, reps, elements):
    items = []
    for i, (kind, x) in enumerate(elements):
        verdict = p.is_zero_mod(x, reps=reps)
        if verdict == "zero":
            for r in reps:
                if not r.evaluate(x).is_zero():
                    raise AssertionError(
                        "%s %s:%d: rewriting zero contradicted by %s"
                        % (p.name, kind, i, r.label))
        items.append(["%s:%d" % (kind, i), verdict, None])
    return items, {}


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------

#: the README's example commands except twist, then `verify <algebra> all`
#: for the five algebras the examples do not already verify
CLI_COMMANDS = (
    ("verify yangian-sl2 all", ["verify", "yangian-sl2", "all"]),
    ("limit drinfeldian-sl2 q->1 kdelta=1",
     ["limit", "drinfeldian-sl2", "q->1", "kdelta=1"]),
    ("limit drinfeldian-sl2 eta=0", ["limit", "drinfeldian-sl2", "eta=0"]),
    ("limit uq-sl2 q=1", ["limit", "uq-sl2", "q=1"]),
    ("cybe twisted-yangian", ["cybe", "--r", "twisted-yangian"]),
    ("cybe sum:rational+dj_constant",
     ["cybe", "--r", "sum:rational+dj_constant"]),
) + tuple(("verify %s all" % a, ["verify", a, "all"])
          for a in ALL_ALGEBRAS if a != "yangian-sl2")


def cli_sweep(seed, ctx):
    return [Job(label, partial(_cli, ctx, i, argv))
            for i, (label, argv) in enumerate(CLI_COMMANDS)]


def _cli(ctx, index, argv):
    """One command, run by the entry point of ``python -m loopdeform`` in a
    forked copy of this interpreter, so no state carries from one command
    to the next.  Interpreter start and ``import loopdeform`` are part of
    set-up instead: in the VM's slow mode (see speed.py) they slow down less
    than Python code does, which the rescaling in speed.py cannot follow."""
    report = os.path.join(ctx.tmp, "report-%d.json" % index)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        _forked_command(write_end, argv + ["--json", report], ctx.tracer)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        raw = fh.read()
    os.waitpid(pid, 0)
    done = json.loads(raw) if raw else {"error": "no result from the fork"}
    if done.get("error"):
        raise RuntimeError(done["error"])
    if done["trace"] is not None:
        ctx.cli_traces.append(done["trace"])
    try:
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError:
        raise RuntimeError("exit %s without a report" % done["exit"]) from None
    os.remove(report)
    del doc["elapsed_ms"]
    items = [[i["label"], i["verdict"], i.get("residual")]
             for i in doc.pop("items")]
    doc["exit"] = done["exit"]
    return items, doc


def _forked_command(fd, argv, tracer):
    """Body of the forked process: never returns."""
    try:
        if tracer is not None:
            tracer.reset()
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        done = {"error": None}
        try:
            done["exit"] = cli.main(argv)
        except SystemExit as exc:
            done["exit"] = exc.code
        except Exception as exc:  # a traceback where the CLI gives a verdict
            done["error"] = "%s: %s" % (type(exc).__name__, exc)
        done["trace"] = tracer.raw() if tracer is not None else None
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(done, fh)
    finally:
        os._exit(0)


WORKLOADS = {
    "coproduct-hom": coproduct_hom,
    "twist-series": twist_series,
    "random-soundness": random_soundness,
    "cli-sweep": cli_sweep,
}


# ---------------------------------------------------------------------------
# expected answers
# ---------------------------------------------------------------------------


def load_expected(workload):
    with open(os.path.join(HERE, "expected", workload + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def check(expect, items, extra):
    """Mismatches between one job's output and its expected answer.

    Keys of an expectation: ``all`` (every verdict), ``labels`` (the item
    labels in order), ``require`` (label -> verdict), ``forbid`` (label
    prefix -> verdict no such item may have), ``exit`` (CLI exit code)."""
    if expect is None:
        return ["no expected answer"]
    errors = []
    if not items:
        errors.append("no verdict items")
    verdicts = {label: v for label, v, _ in items}
    if "all" in expect:
        bad = [l for l, v, _ in items if v != expect["all"]]
        if bad:
            errors.append("not %s: %s" % (expect["all"], bad[:5]))
    if "labels" in expect and [l for l, _, _ in items] != expect["labels"]:
        errors.append("labels %s" % [l for l, _, _ in items])
    for label, want in expect.get("require", {}).items():
        if verdicts.get(label) != want:
            errors.append("%s is %s, expected %s"
                          % (label, verdicts.get(label), want))
    for prefix, banned in expect.get("forbid", {}).items():
        bad = [l for l, v, _ in items if l.startswith(prefix) and v == banned]
        if bad:
            errors.append("%s: %s" % (banned, bad[:5]))
    if "exit" in expect and extra.get("exit") != expect["exit"]:
        errors.append("exit %s, expected %s" % (extra.get("exit"),
                                                expect["exit"]))
    return errors
