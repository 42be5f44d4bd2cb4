"""Batch verification driver and report emitter.

Four subcommands run the symbolic suites against named algebras and emit a
stable, machine-readable report:

    loopdeform verify <algebra> [relations|hopf|all] [--rep spin:<j>]...
    loopdeform limit  <algebra> <var->value | var=value> ...
    loopdeform twist  [--order N] [--check cocycle|coassoc|homomorphism|all]
    loopdeform cybe   --r <kind>

Every command also takes --json PATH, --config PATH and --degree-bound N, and
-h/--help prints the usage (USAGE).  getopt splits the arguments: a flag's
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
import types
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
    DEFAULT_DEGREE_BOUND,
    Q1_LIMITS,
    build_yangian_sl2,
    check_row,
    comparison_cases,
    get_presentation,
    specialize,
)
from .repn import default_reps, solve_eval_correction, spin_rep
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
TWIST_CHECKS = ("cocycle", "coassoc", "homomorphism", "all")
MAX_TWIST_ORDER = 4

#: the config-file keys each subcommand reads; any other key is a usage error
CONFIG_KEYS = {
    "verify": ("degree-bound", "suite", "rep"),
    "limit": ("degree-bound",),
    "twist": ("degree-bound", "order", "check"),
    "cybe": (),
}

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


def _zero_item(label, p, z, witnesses=()):
    """Item for 'z vanishes in p', decided by Presentation.decide_zero."""
    verdict, evidence = p.decide_zero(z, witnesses)
    if verdict == "nonzero":
        evidence = "nonzero in %s" % evidence.label
    return _item(label, verdict, evidence)


def _compare_items(p, target):
    """Items for the relations of p decided in target and back, with the
    target's shipped witnesses; a relation using a letter the other side
    lacks is unknown and names it."""
    items = []
    for direction, label, other, z, reps in comparison_cases(
            p, target, reps2=default_reps(target)):
        label = "compare-%s:%s" % (direction, label)
        if isinstance(z, str):
            items.append(_item(label, "unknown", "missing generator %s in %s"
                               % (z, other.name)))
        else:
            items.append(_zero_item(label, other, z, reps))
    return items


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
        items.extend(_zero_item("relation:%s" % rel.label, p,
                                rel.zero_form(p.alphabet), witnesses)
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
    compared with the shipped algebra that Q1_LIMITS names, if any."""
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
        items.extend(_compare_items(sp, target))
    else:
        items.extend(_zero_item("self-check:%s" % rel.label, sp,
                                rel.zero_form(sp.alphabet))
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
    # twisted words grow with the order: orders 0-4 need bounds 4, 5, 7, 10, 13
    p.degree_bound = (max(DEFAULT_DEGREE_BOUND, 4 * order)
                      if degree_bound is None else degree_bound)
    H = build_hopf(p)
    items = []
    if check in ("cocycle", "all"):
        items.extend(_check_items(
            "cocycle", lambda: check_cocycle(order, p=p)))
    if check in ("coassoc", "all"):
        items.extend(_check_items(
            "coassoc", lambda: check_twisted_coassoc(H, order)))
    if check in ("homomorphism", "all"):
        items.extend(_check_items(
            "homomorphism", lambda: check_twisted_homomorphism(H, order)))
    if check == "all":
        items.extend(_check_items(
            "antipode", lambda: check_twisted_antipode(H, order)))
        items.extend(_check_items(
            "counit", lambda: check_twist_counit(order, p=p)))
    config = {"order": order, "check": check, "max_order": MAX_TWIST_ORDER}
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
    """Build a representation from a `spin:<j>` selector for families that
    support spin ladders; usage error otherwise."""
    if not spec.startswith("spin:"):
        raise UsageError("unknown rep selector %r (expected spin:<j>)" % spec)
    try:
        j = Fraction(spec[len("spin:"):])
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad spin value in %r" % spec) from None
    if j < 0 or j.denominator > 2:
        raise UsageError("spin in %r is not a non-negative half-integer"
                         % spec)
    if p.family == "classical":
        return spin_rep(j, p)
    if p.family == "yangian":
        return solve_eval_correction(j, p)
    raise UsageError("spin:<j> reps exist for the classical and "
                     "eta-deformed families, not %r" % p.family)


def load_config_file(path):
    """key=value lines (UTF-8); '#' comments and blank lines ignored."""
    known = {key for keys in CONFIG_KEYS.values() for key in keys}
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
        if key == "rep":
            out.setdefault("rep", []).append(value.strip())
        else:
            out[key] = value.strip()
    return out


#: each command's positionals ("suite?" may be left out, "assignments+"
#: takes every remaining one, at least one) and its own long options, in
#: getopt's spelling ("=" after a flag that takes a value)
COMMANDS = {
    "verify": (("algebra", "suite?"), ("rep=",)),
    "limit": (("algebra", "assignments+"), ()),
    "twist": ((), ("order=", "check=")),
    "cybe": ((), ("r=",)),
}
COMMON_OPTIONS = ("json=", "config=", "degree-bound=", "help")

USAGE = """\
usage: loopdeform verify <algebra> [relations|hopf|all] [--rep spin:<j>]...
       loopdeform limit  <algebra> <var->value | var=value> ...
       loopdeform twist  [--order N] [--check cocycle|coassoc|homomorphism|all]
       loopdeform cybe   --r <kind>

Every command also takes --json PATH (write the report as JSON too),
--config PATH (key=value defaults; flags win) and --degree-bound N.
algebras: %s
kinds: %s, or sum:<a>+<b>
""" % (", ".join(ALGEBRAS), ", ".join(R_KINDS))


def parse_args(argv):
    """The attributes run() reads, split from argv (the command first) by
    getopt, or None when -h/--help asks for USAGE.  Values are not checked
    here but where the same values from a config file are."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv:
        raise UsageError("no command given (have: %s)" % ", ".join(COMMANDS))
    command = argv[0]
    if command not in COMMANDS:
        raise UsageError("unknown command %r (have: %s)"
                         % (command, ", ".join(COMMANDS)))
    positionals, own = COMMANDS[command]
    try:
        opts, rest = getopt.gnu_getopt(argv[1:], "h", own + COMMON_OPTIONS)
    except getopt.GetoptError as exc:
        raise UsageError("%s: %s" % (command, exc)) from None
    if any(flag in ("-h", "--help") for flag, _ in opts):
        return None
    args = types.SimpleNamespace(
        command=command, algebra=None, suite=None, assignments=None,
        rep=None, order=None, check=None, rkind=None, json=None, config=None,
        degree_bound=None)
    for flag, value in opts:
        if flag == "--rep":
            args.rep = (args.rep or []) + [value]
        elif flag in ("--order", "--degree-bound"):
            setattr(args, flag[2:].replace("-", "_"), _integer(value, flag))
        else:
            setattr(args, "rkind" if flag == "--r" else flag[2:], value)
    for spec in positionals:
        name = spec.rstrip("?+")
        if not rest and not spec.endswith("?"):
            raise UsageError("%s: missing %s" % (command, name))
        if spec.endswith("+"):
            value, rest = rest, []
        else:
            value = rest.pop(0) if rest else None
        setattr(args, name, value)
    if rest:
        raise UsageError("%s: unexpected argument %r" % (command, rest[0]))
    if command == "cybe" and args.rkind is None:
        raise UsageError("cybe: --r is required")
    return args


def _integer(value, name):
    """int(value), or a usage error that shows name=value."""
    try:
        return int(value)
    except ValueError:
        raise UsageError("%s=%r is not an integer" % (name, value)) from None


def _merged(args):
    """File config with CLI overrides applied; a key the subcommand does not
    read, a non-integer bound or order, or a degree bound below 1, is a
    usage error."""
    cfg = load_config_file(args.config) if args.config else {}
    unread = sorted(set(cfg) - set(CONFIG_KEYS[args.command]))
    if unread:
        raise UsageError("%s: %s does not read config key(s) %s"
                         % (args.config, args.command, ", ".join(unread)))
    for key in ("degree-bound", "order"):
        if key in cfg:
            cfg[key] = _integer(cfg[key], "%s: config key %s"
                                % (args.config, key))
    degree_bound = args.degree_bound
    if degree_bound is None:
        degree_bound = cfg.get("degree-bound")
    if degree_bound is not None and degree_bound < 1:
        raise UsageError("degree bound %d is not positive" % degree_bound)
    return cfg, degree_bound


def run(args):
    cfg, degree_bound = _merged(args)
    if args.command == "verify":
        suite = args.suite or cfg.get("suite", "all")
        reps = args.rep if args.rep is not None else cfg.get("rep")
        return cmd_verify(args.algebra, suite, degree_bound=degree_bound,
                          reps=reps)
    if args.command == "limit":
        return cmd_limit(args.algebra, args.assignments,
                         degree_bound=degree_bound)
    if args.command == "twist":
        order = args.order
        if order is None:
            order = cfg.get("order", DEFAULT_ORDER)
        check = args.check or cfg.get("check", "all")
        return cmd_twist(order, check, degree_bound=degree_bound)
    if args.command == "cybe":
        if degree_bound is not None:
            raise UsageError("cybe does no rewriting; --degree-bound does "
                             "not apply")
        return cmd_cybe(args.rkind)
    raise UsageError("unknown command %r" % args.command)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(USAGE)
            return EXIT_PASS
        started = time.monotonic()
        report = run(args)
        report.elapsed_ms = int((time.monotonic() - started) * 1000)
        # the file first: a path that cannot be written is a usage error,
        # reported before anything reaches stdout
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
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
