"""Batch verification driver and report emitter.

Four subcommands run the symbolic suites against named algebras and emit a
stable, machine-readable report:

    loopdeform verify <algebra> [relations|hopf|all] [--rep spin:<j>]...
    loopdeform limit  <algebra> <var->value | var=value> ...
    loopdeform twist  [--order N]
        [--check cocycle|coassoc|homomorphism|antipode|counit|all]
    loopdeform cybe   --r <kind>

A command's positionals, flags and config keys are declared in one place,
its row of COMMANDS; every command also takes --json PATH and --config PATH,
and -h/--help prints the usage (USAGE).  getopt splits the arguments: a flag's
value follows it or is joined with '=' (--json=PATH), options may come
before or after the positionals, a unique prefix names a flag (--deg 10), and
a repeated single-value flag keeps its last value.  A variable may be
assigned only once in limit.

Reports carry one verdict per check item (pass / fail / unknown); the overall
status is pass only when nothing failed and nothing stayed unknown, and the
exit code is 0 (pass), 1 (fail), 2 (inconclusive), 64 (usage error, bad
arguments included: one 'loopdeform: error:' line on stderr), or 70
(internal error).  A check that outgrows the rewriting degree bound ends in
an unknown item naming the bound, never in a traceback.
JSON output is schema-versioned and byte-deterministic apart from the
elapsed-time field.
"""

import getopt
import json
import sys
import time
from fractions import Fraction

from .errors import DegreeBoundExceeded, PoleError, UnsupportedAlgebraError
from .hopf import (
    build_hopf,
    check_antipode,
    check_coassoc,
    check_counit,
)
from .presentations import (
    ALGEBRA_BUILDERS,
    Q1_LIMITS,
    build_yangian_sl2,
    check_row,
    compare_presentations,
    get_presentation,
    specialize,
)
from .repn import default_reps, solve_eval_correction
from .rmatrix import R_KINDS, build_r, cybe_residual
from .serial import dump_presentation
from .twist import (
    DEFAULT_ORDER,
    check_cocycle,
    check_twist_counit,
    check_twisted_antipode,
    check_twisted_coassoc,
    check_twisted_homomorphism,
)

ALGEBRAS = tuple(ALGEBRA_BUILDERS)
SUITES = ("relations", "hopf", "all")
TWIST_CHECKS = ("cocycle", "coassoc", "homomorphism", "antipode", "counit",
                "all")
MAX_TWIST_ORDER = 4

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 64
EXIT_INTERNAL = 70  # EX_SOFTWARE: a defect, not a verdict


class UsageError(ValueError):
    """Bad arguments or configuration; maps to exit code 64."""


class VerificationReport:
    """A stable, ordered list of (label, verdict, residual) check items.

    Verdicts are 'pass', 'fail', or 'unknown'; the overall status is pass
    only when no item failed and none stayed unknown (unknown surfaces as
    'inconclusive', never as a silent pass)."""

    def __init__(self, algebra, suite, items, config, notes=()):
        self.algebra = algebra
        self.suite = suite
        self.items = list(items)
        self.config = dict(config)
        self.notes = list(notes)
        self.elapsed_ms = 0

    @property
    def status(self):
        verdicts = {v for _, v, _ in self.items}
        if "fail" in verdicts:
            return "fail"
        if "unknown" in verdicts:
            return "inconclusive"
        return "pass"

    @property
    def exit_code(self):
        return {"pass": EXIT_PASS, "fail": EXIT_FAIL,
                "inconclusive": EXIT_INCONCLUSIVE}[self.status]

    def to_dict(self):
        items = []
        for label, verdict, residual in self.items:
            entry = {"label": label, "verdict": verdict}
            if residual is not None:
                entry["residual"] = residual
            items.append(entry)
        return {
            "schema": 1,
            "algebra": self.algebra,
            "suite": self.suite,
            "items": items,
            "config": self.config,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self):
        lines = ["%s %s: %s (%d items, %d ms)"
                 % (self.algebra, self.suite, self.status, len(self.items),
                    self.elapsed_ms)]
        for label, verdict, residual in self.items:
            lines.append("  [%-7s] %s" % (verdict, label))
            if residual is not None and verdict != "pass":
                for row in str(residual).splitlines():
                    lines.append("            %s" % row)
        lines.extend(self.notes)
        return "\n".join(lines) + "\n"


#: check verdicts (see presentations.check_row) -> report verdicts
REPORT_VERDICTS = {"zero": "pass", "nonzero": "fail", "unknown": "unknown"}


def _item(label, verdict, residual=None):
    """Report item of a check verdict ('zero', 'nonzero' or 'unknown'): a
    pass carries no residual, any other item the text of its residual, or
    '<Type>: <message>' for the exception that stopped the check."""
    if verdict == "zero" or residual is None:
        return (label, REPORT_VERDICTS[verdict], None)
    if isinstance(residual, Exception):
        residual = "%s: %s" % (type(residual).__name__, residual)
    return (label, REPORT_VERDICTS[verdict], str(residual))


def _check_items(prefix, run_check):
    """Items of the check run_check() returns rows of; a degree-bound hit
    anywhere in it becomes a single unknown item that names the check and
    the bound."""
    try:
        return [_item("%s:%s" % (prefix, label), verdict, residual)
                for label, verdict, residual in run_check()]
    except DegreeBoundExceeded as exc:
        return [_item(prefix, "unknown", exc)]


def _zero_item(label, verdict, evidence):
    """Item for a verdict and evidence of Presentation.decide_zero; a
    nonzero names its witness."""
    if verdict == "nonzero":
        evidence = "nonzero in %s" % evidence.label
    return _item(label, verdict, evidence)


def _compare_items(p, target):
    """Items for the rows of compare_presentations(p, target), with the
    target's shipped witnesses."""
    rows = compare_presentations(p, target, reps2=default_reps(target))
    return [_zero_item("compare-%s:%s" % row[:2], *row[2:]) for row in rows]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(algebra, suite="all", degree_bound=None, reps=None):
    """Relation self-reduction and Hopf-axiom suites for one algebra."""
    if suite not in SUITES:
        raise UsageError("unknown suite %r (have: %s)"
                         % (suite, ", ".join(SUITES)))
    p = get_presentation(algebra)
    if degree_bound is not None:
        p.degree_bound = degree_bound
    witnesses = default_reps(p) if reps is None else [
        _named_rep(spec, p) for spec in reps]
    items = []
    if suite in ("relations", "all"):
        items.extend(_zero_item("relation:%s" % rel.label, *p.decide_zero(
                         rel.zero_form(p.alphabet), witnesses))
                     for rel in p.relations)
    if suite in ("hopf", "all"):
        try:
            H = build_hopf(p)
        except DegreeBoundExceeded as exc:
            items.append(_item("hopf", "unknown", exc))
        else:
            for fn, tag in ((check_coassoc, "coassoc"),
                            (check_counit, "counit"),
                            (check_antipode, "antipode")):
                items.extend(_check_items(tag, lambda: fn(H)))
    config = {"algebra": algebra, "suite": suite,
              "degree_bound": p.degree_bound,
              "reps": [r.label for r in witnesses]}
    return VerificationReport(algebra, suite, items, config)


def _parse_assignments(assignments):
    parsed = {}
    for text in assignments:
        if "->" in text:
            key, _, val = text.partition("->")
        elif "=" in text:
            key, _, val = text.partition("=")
        else:
            raise UsageError("assignment %r is neither var=value nor "
                             "var->value" % text)
        key = key.strip()
        if key in parsed:
            raise UsageError("%s is assigned more than once" % key)
        try:
            parsed[key] = int(val)
        except ValueError:
            raise UsageError("assignment value %r is not an integer"
                             % val) from None
    return parsed


def cmd_limit(algebra, assignments, degree_bound=None):
    """Exact specialization of one algebra.  At q=1 and kdelta=1 it is
    compared with the shipped algebra that Q1_LIMITS names, if any, itself
    taken at eta=0 when that is assigned too."""
    p = get_presentation(algebra)
    if degree_bound is not None:
        p.degree_bound = degree_bound
    parsed = _parse_assignments(assignments)
    config = {"algebra": algebra,
              "assignments": {k: v for k, v in sorted(parsed.items())},
              "degree_bound": p.degree_bound}
    notes = []
    try:
        sp = specialize(p, parsed)
    except (PoleError, DegreeBoundExceeded) as exc:
        items = [_item("specialize", "unknown", exc)]
        return VerificationReport(algebra, "limit", items, config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    items = []
    if (algebra in Q1_LIMITS and parsed.get("q") == 1
            and parsed.get("kdelta") == 1):
        target = get_presentation(Q1_LIMITS[algebra])
        target.degree_bound = p.degree_bound
        if "eta" in parsed:
            target = specialize(target, {"eta": parsed["eta"]})
        items.extend(_compare_items(sp, target))
    else:
        items.extend(_zero_item("self-check:%s" % rel.label,
                                *sp.decide_zero(rel.zero_form(sp.alphabet)))
                     for rel in sp.relations)
        if parsed.get("eta") == 0:
            for rel in sp.relations:
                free = all(c.var_degree_range("eta") == (0, 0)
                           for c in rel.repl.terms.values())
                items.append(_item(*check_row("eta-free:%s" % rel.label,
                                              None if free else rel.repl)))
            notes.append("specialized presentation:")
            notes.extend(dump_presentation(sp).rstrip("\n").splitlines())
    return VerificationReport(algebra, "limit", items, config, notes)


def cmd_twist(order=DEFAULT_ORDER, check="all", degree_bound=None):
    """Twist suites for the eta-deformation at the given truncation order."""
    if check not in TWIST_CHECKS:
        raise UsageError("unknown twist check %r (have: %s)"
                         % (check, ", ".join(TWIST_CHECKS)))
    if not 0 <= order <= MAX_TWIST_ORDER:
        raise UsageError("twist order %d outside [0, %d]"
                         % (order, MAX_TWIST_ORDER))
    p = build_yangian_sl2()
    # orders 0-4 need bounds 4, 5, 6, 8 and 10: the default 12 covers them
    if degree_bound is not None:
        p.degree_bound = degree_bound
    H = build_hopf(p)
    suites = (("cocycle", lambda: check_cocycle(order, p=p)),
              ("coassoc", lambda: check_twisted_coassoc(H, order)),
              ("homomorphism", lambda: check_twisted_homomorphism(H, order)),
              ("antipode", lambda: check_twisted_antipode(H, order)),
              ("counit", lambda: check_twist_counit(order, p=p)))
    items = []
    for name, run_check in suites:
        if check in (name, "all"):
            items.extend(_check_items(name, run_check))
    config = {"order": order, "check": check, "max_order": MAX_TWIST_ORDER,
              "degree_bound": p.degree_bound}
    return VerificationReport("twisted-yangian-sl2", "twist", items, config)


def cmd_cybe(kind):
    """Classical Yang-Baxter residual for a named r-matrix."""
    # kinds are canonically underscored; accept hyphens on the command line
    kind = kind.replace("-", "_")
    try:
        r = build_r(kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    entries = "; ".join("(%d,%d)=%s" % (i, j, c)
                        for i, j, c in cybe_residual(r).nonzero_entries())
    items = [_item(*check_row("cybe-residual:%s" % kind, entries or None))]
    config = {"r": kind}
    return VerificationReport("classical-sl2", "cybe", items, config)


# ---------------------------------------------------------------------------
# configuration and argument handling
# ---------------------------------------------------------------------------


def _named_rep(spec, p):
    """Build a representation from a `spin:<j>` selector for the
    eta-deformed family; usage error otherwise."""
    if not spec.startswith("spin:"):
        raise UsageError("unknown rep selector %r (expected spin:<j>)" % spec)
    try:
        j = Fraction(spec[len("spin:"):])
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad spin value in %r" % spec) from None
    if j < 0 or j.denominator > 2:
        raise UsageError("spin in %r is not a non-negative half-integer"
                         % spec)
    if p.family == "yangian":
        return solve_eval_correction(j, p)
    raise UsageError("spin:<j> reps exist for the eta-deformed family, "
                     "not %r" % p.family)


def _config_keys(settings):
    return {name for name, _, _, sources in settings if "config" in sources}


def load_config_file(path):
    """The (key, value) lines of a config file (UTF-8, a leading BOM
    ignored), in order; '#' comments and blank lines are ignored, and a key
    no command reads is a usage error."""
    known = set().union(*(_config_keys(settings)
                          for _, settings in COMMANDS.values()))
    pairs = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError("%s: not UTF-8 text: %s" % (path, exc)) from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key=value, got %r"
                             % (path, lineno, line))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise UsageError("%s:%d: unknown config key %r"
                             % (path, lineno, key))
        pairs.append((key, value.strip()))
    return pairs


#: the setting of every command that rewrites
DEGREE_BOUND = ("degree-bound", "degree_bound", int, ("flag", "config"))

#: One row per command, the one place its arguments are declared: the cmd_*
#: keywords its positionals feed ("suite?" optional, "assignments+" one or
#: more), then its settings (name, keyword, kind, sources): --name and config
#: key name feed keyword as an int, a list (one value per use) or a str, from
#: the sources "flag", "config" (on the command line by the positional of
#: the same keyword) and "required" (a flag that must be given).  The
#: defaults are those of the cmd_* signatures.
COMMANDS = {
    "verify": (("algebra", "suite?"),
               (DEGREE_BOUND,
                ("suite", "suite", str, ("config",)),
                ("rep", "reps", list, ("flag", "config")))),
    "limit": (("algebra", "assignments+"), (DEGREE_BOUND,)),
    "twist": ((), (DEGREE_BOUND,
                   ("order", "order", int, ("flag", "config")),
                   ("check", "check", str, ("flag", "config")))),
    "cybe": ((), (("r", "kind", str, ("flag", "required")),)),
}

USAGE = """\
usage: loopdeform verify <algebra> [relations|hopf|all] [--rep spin:<j>]...
       loopdeform limit  <algebra> <var->value | var=value> ...
       loopdeform twist  [--order N]
           [--check cocycle|coassoc|homomorphism|antipode|counit|all]
       loopdeform cybe   --r <kind>

Every command also takes --json PATH (write the report as JSON too) and
--config PATH (key=value defaults; flags win); verify, limit and twist
also take --degree-bound N.
algebras: %s
kinds: %s, or sum:<a>+<b>
""" % (", ".join(ALGEBRAS), ", ".join(R_KINDS))


def _keywords(pairs, settings, label):
    """The cmd_* keywords of (name, text) pairs, by the command's settings:
    an int setting converted (a usage error shows label, name and text), a
    list setting collected, any other the last text given."""
    kinds = {name: (keyword, kind) for name, keyword, kind, _ in settings}
    out = {}
    for name, text in pairs:
        keyword, kind = kinds[name]
        if kind is list:
            out.setdefault(keyword, []).append(text)
        elif kind is int:
            try:
                out[keyword] = int(text)
            except ValueError:
                raise UsageError("%s%s=%r is not an integer"
                                 % (label, name, text)) from None
        else:
            out[keyword] = text
    return out


def parse_args(argv):
    """(command, cmd_* keywords from the command line, config path, JSON
    path) as getopt splits argv (the command first) by the command's row of
    COMMANDS, or None when -h/--help asks for USAGE.  Only integers are
    checked here; cmd_* checks the other values, from a config file too."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv:
        raise UsageError("no command given (have: %s)" % ", ".join(COMMANDS))
    command = argv[0]
    if command not in COMMANDS:
        raise UsageError("unknown command %r (have: %s)"
                         % (command, ", ".join(COMMANDS)))
    positionals, settings = COMMANDS[command]
    flags = [s for s in settings if "flag" in s[3]]
    try:
        opts, rest = getopt.gnu_getopt(
            argv[1:], "h",
            ["json=", "config=", "help"] + [s[0] + "=" for s in flags])
    except getopt.GetoptError as exc:
        raise UsageError("%s: %s" % (command, exc)) from None
    if any(flag in ("-h", "--help") for flag, _ in opts):
        return None
    paths = dict(opts)  # the last --json and --config
    given = _keywords([(flag[2:], value) for flag, value in opts
                       if flag not in ("--json", "--config")], settings, "--")
    for spec in positionals:
        name = spec.rstrip("?+")
        if not rest and not spec.endswith("?"):
            raise UsageError("%s: missing %s" % (command, name))
        if spec.endswith("+"):
            given[name], rest = rest, []
        elif rest:
            given[name] = rest.pop(0)
    if rest:
        raise UsageError("%s: unexpected argument %r" % (command, rest[0]))
    for name, keyword, _, sources in flags:
        if "required" in sources and keyword not in given:
            raise UsageError("%s: --%s is required" % (command, name))
    return command, given, paths.get("--config"), paths.get("--json")


def run(command, given, config=None):
    """cmd_<command> called with the keywords given on the command line over
    those of the config file at path config, if any; a config key it does
    not read, or a degree bound below 1, is a usage error."""
    settings = COMMANDS[command][1]
    keywords = {}
    if config is not None:
        pairs = load_config_file(config)
        unread = sorted({key for key, _ in pairs} - _config_keys(settings))
        if unread:
            raise UsageError("%s: %s does not read config key(s) %s"
                             % (config, command, ", ".join(unread)))
        keywords = _keywords(pairs, settings, "%s: config key " % config)
    keywords.update(given)
    degree_bound = keywords.get("degree_bound")
    if degree_bound is not None and degree_bound < 1:
        raise UsageError("degree bound %d is not positive" % degree_bound)
    # looked up per call, so the module's cmd_* function is the one run
    return globals()["cmd_" + command](**keywords)


def main(argv=None):
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(USAGE)
            return EXIT_PASS
        command, given, config, json_path = parsed
        started = time.monotonic()
        report = run(command, given, config)
        report.elapsed_ms = int((time.monotonic() - started) * 1000)
        # the file first: a path that cannot be written is a usage error,
        # reported before anything reaches stdout
        if json_path is not None:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
    except (UsageError, UnsupportedAlgebraError, OSError) as exc:
        print("loopdeform: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print("loopdeform: internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
