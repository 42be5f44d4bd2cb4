"""Command-line driver: exit codes, report schema, determinism, config."""

import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from loopdeform import cli
from loopdeform.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    UsageError,
    VerificationReport,
    cmd_cybe,
    cmd_limit,
    cmd_twist,
    cmd_verify,
    load_config_file,
    main,
)
from loopdeform.presentations import (
    Relation,
    build_yangian_sl2,
    get_presentation,
)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
ALL_ALGEBRAS = ("uq-sl2", "uq-sl3", "drinfeldian-sl2", "drinfeldian-sl3",
                "yangian-sl2", "twisted-yangian-sl2")


# ---------------------------------------------------------------------------
# report object invariants
# ---------------------------------------------------------------------------


def test_report_status_rules():
    mk = lambda items: VerificationReport("a", "s", items, {})
    assert mk([("x", "pass", None)]).status == "pass"
    assert mk([("x", "pass", None), ("y", "unknown", "?")]).status == "inconclusive"
    # fail dominates unknown: a hard counterexample is never softened
    assert mk([("x", "unknown", None), ("y", "fail", "w")]).status == "fail"
    assert mk([]).status == "pass"
    assert mk([("x", "pass", None)]).exit_code == EXIT_PASS
    assert mk([("x", "unknown", None)]).exit_code == EXIT_INCONCLUSIVE
    assert mk([("x", "fail", None)]).exit_code == EXIT_FAIL


def test_report_json_shape():
    rep = VerificationReport("yangian-sl2", "relations",
                             [("a", "pass", None), ("b", "fail", "entry")],
                             {"k": 1})
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert doc["algebra"] == "yangian-sl2"
    assert doc["suite"] == "relations"
    assert doc["config"] == {"k": 1}
    assert doc["items"] == [{"label": "a", "verdict": "pass"},
                            {"label": "b", "verdict": "fail",
                             "residual": "entry"}]
    assert "elapsed_ms" in doc


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_verify_all_passes_each_algebra(algebra):
    rep = cmd_verify(algebra, "all")
    assert rep.status == "pass"
    labels = [l for l, _, _ in rep.items]
    assert any(l.startswith("relation:") for l in labels)
    assert any(l.startswith("coassoc:") for l in labels)
    assert any(l.startswith("counit:") for l in labels)
    assert any(l.startswith("antipode:") for l in labels)


def test_verify_hopf_suite_is_three_by_generators():
    rep = cmd_verify("yangian-sl2", "hopf")
    assert rep.status == "pass"
    assert len(rep.items) == 3 * 4  # three axioms x four generators
    assert not any(l.startswith("relation:") for l, _, _ in rep.items)


def test_verify_relations_suite_lists_every_relation():
    rep = cmd_verify("yangian-sl2", "relations")
    from loopdeform.presentations import build_yangian_sl2
    assert len(rep.items) == len(build_yangian_sl2().relations)
    assert all(v == "pass" for _, v, _ in rep.items)


def test_verify_rep_selector():
    rep = cmd_verify("yangian-sl2", "relations", reps=["spin:1/2", "spin:1"])
    assert rep.status == "pass"
    assert rep.config["reps"] == ["eval-spin(1/2)", "eval-spin(1)"]
    with pytest.raises(UsageError):
        cmd_verify("uq-sl2", "relations", reps=["spin:1/2"])
    with pytest.raises(UsageError):
        cmd_verify("yangian-sl2", "relations", reps=["dim:2"])
    with pytest.raises(UsageError):
        cmd_verify("yangian-sl2", "relations", reps=["spin:w"])


class _Separating:
    """A stand-in witness that sees every element as nonzero."""

    label = "separating"

    def evaluate(self, x):
        return self

    def is_zero(self):
        return False


def _add_shadow_rule(p):
    """Append a rule that shadows p's first one: same lead, replacement
    shifted by the unit, so its zero form reduces to the nonzero scalar -1
    through the rule listed before it."""
    first = p.relations[0]
    p.relations += (Relation("shadow", first.lead, first.repl + p.unit(),
                             "test"),)
    return p


def _with_shadow_rule(monkeypatch, witnesses):
    """Make cmd_verify see its algebra plus a shadow rule, with the given
    witnesses in place of the shipped ones."""
    real = cli.get_presentation
    monkeypatch.setattr(cli, "get_presentation",
                        lambda name: _add_shadow_rule(real(name)))
    monkeypatch.setattr(cli, "default_reps", lambda p: witnesses)


def test_verify_relation_witness_payload(monkeypatch):
    _with_shadow_rule(monkeypatch, [_Separating()])
    rep = cmd_verify("yangian-sl2", "relations")
    assert rep.items[-1] == ("relation:shadow", "fail",
                             "nonzero in separating")
    assert rep.exit_code == EXIT_FAIL


def test_verify_relation_unknown_payload_is_normal_form(monkeypatch):
    _with_shadow_rule(monkeypatch, [])
    rep = cmd_verify("yangian-sl2", "relations")
    assert rep.items[-1] == ("relation:shadow", "unknown", "-1*1")
    assert rep.exit_code == EXIT_INCONCLUSIVE


def test_verify_bad_suite_is_usage_error():
    with pytest.raises(UsageError):
        cmd_verify("yangian-sl2", "nosuch")


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def test_limit_degeneration_matches_undeformed_target():
    rep = cmd_limit("drinfeldian-sl2", ["q->1", "kdelta=1"])
    assert rep.status == "pass"
    directions = {l.split(":", 1)[0] for l, _, _ in rep.items}
    assert directions == {"compare-forward", "compare-backward"}


def test_limit_assignment_spellings_agree():
    a = cmd_limit("drinfeldian-sl2", ["q->1", "kdelta->1"])
    b = cmd_limit("drinfeldian-sl2", ["q=1", "kdelta=1"])
    assert [i[:2] for i in a.items] == [i[:2] for i in b.items]


def test_limit_eta_zero_reports_eta_free_relations():
    rep = cmd_limit("drinfeldian-sl2", ["eta=0"])
    assert rep.status == "pass"
    eta_rows = [l for l, _, _ in rep.items if l.startswith("eta-free:")]
    assert eta_rows  # one per surviving relation
    # the text report appends the full specialized presentation
    text = rep.to_text()
    assert "specialized presentation:" in text
    assert "presentation drinfeldian-sl2[eta->0]" in text
    # the limit carries the shift element that its loop coproduct needs
    assert "shift 1*e-a1.k+a1" in text.splitlines()


@pytest.mark.parametrize("assignments", [["kdelta=1", "eta=0", "q=1"],
                                         ["q->1", "eta->0", "kdelta->1"]])
def test_limit_q1_at_eta_zero_compares_with_the_target_at_eta_zero(
        assignments):
    # the eta-deformed target is taken at eta=0 too, so nothing fails
    rep = cmd_limit("drinfeldian-sl2", assignments)
    assert rep.exit_code == EXIT_PASS
    assert len(rep.items) == 14
    assert all(l.startswith("compare-") and v == "pass"
               for l, v, _ in rep.items)
    assert rep.config["assignments"] == {"eta": 0, "kdelta": 1, "q": 1}


def test_limit_pole_is_reported_not_crashed():
    rep = cmd_limit("uq-sl2", ["q=1"])
    assert rep.status == "inconclusive"
    assert rep.exit_code == EXIT_INCONCLUSIVE
    label, verdict, payload = rep.items[0]
    assert verdict == "unknown"
    assert "PoleError" in payload
    # the offending relation is named in the diagnostic
    assert "cross:e+a1,e-a1" in payload


def test_limit_self_check_unknown_payload_is_normal_form(monkeypatch):
    real = cli.specialize
    monkeypatch.setattr(cli, "specialize",
                        lambda p, a: _add_shadow_rule(real(p, a)))
    rep = cmd_limit("drinfeldian-sl2", ["eta=0"])
    assert ("self-check:shadow", "unknown", "-1*1") in rep.items
    assert rep.exit_code == EXIT_INCONCLUSIVE


def test_limit_compare_unknown_names_the_bound(monkeypatch):
    real = cli._compare_items

    def bounded(p, target):
        target.degree_bound = 3
        return real(p, target)

    monkeypatch.setattr(cli, "_compare_items", bounded)
    rep = cmd_limit("drinfeldian-sl2", ["q->1", "kdelta=1"])
    bound_hit = ("DegreeBoundExceeded: word of length 4 exceeds bound 3 "
                 "during rewriting")
    serre = [i for i in rep.items
             if i[0].startswith("compare-forward:loop-serre-")]
    assert [i[0] for i in serre] == ["compare-forward:loop-serre-e:e+a1",
                                     "compare-forward:loop-serre-xi:e+a1"]
    assert all(i[1:] == ("unknown", bound_hit) for i in serre)
    assert all(i[2] is None for i in rep.items if i[1] == "pass")
    assert rep.exit_code == EXIT_INCONCLUSIVE


def test_compare_item_names_the_missing_generator():
    items = cli._compare_items(get_presentation("uq-sl2"),
                               build_yangian_sl2())
    assert ("compare-forward:conj:k+a1,e-a1", "unknown",
            "missing generator k+a1 in yangian-sl2") in items
    assert ("compare-backward:loop-comm:e-a1", "unknown",
            "missing generator xi in uq-sl2") in items


def test_limit_rejects_bad_assignments():
    with pytest.raises(UsageError):
        cmd_limit("drinfeldian-sl2", ["q"])
    with pytest.raises(UsageError):
        cmd_limit("drinfeldian-sl2", ["q=one"])
    with pytest.raises(UsageError):
        cmd_limit("drinfeldian-sl2", ["zeta=0"])  # unsupported key
    with pytest.raises(UsageError):
        cmd_limit("drinfeldian-sl2", ["q=2"])  # only q -> 1 is defined


# ---------------------------------------------------------------------------
# twist
# ---------------------------------------------------------------------------


def test_twist_all_passes_and_labels():
    rep = cmd_twist(order=2, check="all")
    assert rep.status == "pass"
    prefixes = {l.split(":", 1)[0] for l, _, _ in rep.items}
    assert prefixes == {"cocycle", "coassoc", "homomorphism", "antipode",
                        "counit"}


def test_twist_single_check_is_scoped():
    rep = cmd_twist(order=2, check="cocycle")
    assert rep.status == "pass"
    assert all(l.startswith("cocycle:") for l, _, _ in rep.items)


@pytest.mark.parametrize("check", ["antipode", "counit"])
def test_twist_antipode_and_counit_run_alone(tmp_path, capsys, check):
    # both suites ran only inside --check all, and either name alone was an
    # unknown twist check (exit 64)
    out = tmp_path / "r.json"
    assert main(["twist", "--order", "2", "--check", check,
                 "--json", str(out)]) == EXIT_PASS
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["config"]["check"] == check
    every = cmd_twist(order=2, check="all").items
    want = [[l, v] for l, v, _ in every if l.startswith(check + ":")]
    assert want and [[i["label"], i["verdict"]] for i in doc["items"]] == want


def test_twist_order_bounds():
    with pytest.raises(UsageError):
        cmd_twist(order=5)
    with pytest.raises(UsageError):
        cmd_twist(order=-1)
    with pytest.raises(UsageError):
        cmd_twist(order=2, check="nosuch")


# ---------------------------------------------------------------------------
# cybe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["rational", "jordanian", "twisted-yangian",
                                  "twisted_yangian", "dj_constant",
                                  "trigonometric", "drinfeldian"])
def test_cybe_solutions_pass(kind):
    rep = cmd_cybe(kind)
    assert rep.status == "pass"
    assert rep.exit_code == EXIT_PASS


def test_cybe_mixed_sum_verdict_is_reported():
    rep = cmd_cybe("sum:rational+dj_constant")
    assert rep.status == "fail"
    assert rep.exit_code == EXIT_FAIL
    label, verdict, payload = rep.items[0]
    assert verdict == "fail"
    # the residual entries are listed, not hidden
    assert "(u - w)" in payload and "eta" in payload


def test_cybe_unknown_kind():
    # the error lists every kind, the paper's r-matrices included
    with pytest.raises(UsageError, match="trigonometric, drinfeldian"):
        cmd_cybe("nosuch")


# ---------------------------------------------------------------------------
# argument/config plumbing through main()
# ---------------------------------------------------------------------------


def test_main_exit_codes(capsys):
    assert main(["verify", "yangian-sl2", "relations"]) == EXIT_PASS
    assert main(["limit", "uq-sl2", "q=1"]) == EXIT_INCONCLUSIVE
    assert main(["cybe", "--r", "sum:rational+dj_constant"]) == EXIT_FAIL
    assert main(["cybe", "--r", "drinfeldian"]) == EXIT_PASS
    capsys.readouterr()


def test_main_usage_errors(capsys):
    assert main(["verify", "nosuch-algebra"]) == EXIT_USAGE
    _usage_error_line(capsys)
    assert main(["nosuch-command"]) == EXIT_USAGE
    _usage_error_line(capsys)
    assert main(["twist", "--order", "9"]) == EXIT_USAGE
    assert main(["cybe", "--r", "nosuch"]) == EXIT_USAGE
    capsys.readouterr()


def test_main_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "yangian-sl2", "relations", "--json", str(out)])
    capsys.readouterr()
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["algebra"] == "yangian-sl2"
    assert all(i["verdict"] == "pass" for i in doc["items"])


def test_json_reports_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        main(["verify", "uq-sl2", "all", "--json", str(p)])
    capsys.readouterr()
    docs = [json.loads(p.read_text()) for p in paths]
    for d in docs:
        d.pop("elapsed_ms")
    assert docs[0] == docs[1]
    # and the text reports agree apart from the timing figure
    texts = []
    for p in paths:
        main(["verify", "uq-sl2", "all"])
        texts.append(capsys.readouterr().out)
    normalize = lambda t: re.sub(r"\d+ ms", "? ms", t)
    assert normalize(texts[0]) == normalize(texts[1])


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("# comment\nsuite=relations\nrep=spin:1/2\nrep=spin:1\n")
    out = tmp_path / "r.json"
    code = main(["verify", "yangian-sl2", "--config", str(cfg),
                 "--json", str(out)])
    capsys.readouterr()
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["suite"] == "relations"
    assert doc["config"]["reps"] == ["eval-spin(1/2)", "eval-spin(1)"]


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("suite=relations\n")
    out = tmp_path / "r.json"
    main(["verify", "yangian-sl2", "hopf", "--config", str(cfg),
          "--json", str(out)])
    capsys.readouterr()
    assert json.loads(out.read_text())["suite"] == "hopf"


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    with pytest.raises(UsageError):
        load_config_file(str(bad))
    bad.write_text("color=blue\n")
    with pytest.raises(UsageError):
        load_config_file(str(bad))
    assert main(["verify", "yangian-sl2", "--config",
                 str(tmp_path / "missing.cfg")]) == EXIT_USAGE
    capsys.readouterr()


def _usage_error_line(capsys):
    """The single stderr line of a usage error (nothing on stdout)."""
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("loopdeform: error: ")
    return lines[0]


BAD_ARGV = {
    "no-command": [],
    "unknown-command": ["nosuch-command"],
    "unknown-flag": ["verify", "uq-sl2", "--nosuch"],
    "flag-without-value": ["verify", "uq-sl2", "--json"],
    "ambiguous-prefix": ["twist", "--c", "all"],
    "missing-algebra": ["verify"],
    "limit-without-assignment": ["limit", "uq-sl2"],
    "extra-positional": ["verify", "uq-sl2", "all", "extra"],
    "cybe-without-r": ["cybe"],
    "non-integer-order": ["twist", "--order", "three"],
    "non-integer-degree-bound": ["verify", "uq-sl2", "--degree-bound=ten"],
    "empty-suite": ["verify", "uq-sl2", ""],
    "empty-check": ["twist", "--order", "0", "--check", ""],
    "empty-json-path": ["limit", "uq-sl2", "q=1", "--json", ""],
    "empty-config-path": ["verify", "uq-sl2", "relations", "--config", ""],
}


@pytest.mark.parametrize("argv", BAD_ARGV.values(), ids=BAD_ARGV.keys())
def test_argument_errors_are_usage_errors(capsys, argv):
    assert main(argv) == EXIT_USAGE
    _usage_error_line(capsys)


@pytest.mark.parametrize("argv", [["q=1", "q=2"], ["q=2", "q=1"],
                                  ["q=1", "q->1"]])
def test_limit_variable_assigned_twice_is_usage_error(capsys, argv):
    assert main(["limit", "uq-sl2"] + argv) == EXIT_USAGE
    assert "q is assigned more than once" in _usage_error_line(capsys)


def _report_bytes(path):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', path.read_text())


def test_json_flag_spellings_write_the_same_report(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert main(["limit", "uq-sl2", "q=1", "--json", str(spaced)]) \
        == EXIT_INCONCLUSIVE
    assert main(["limit", "uq-sl2", "q=1", "--json=%s" % joined]) \
        == EXIT_INCONCLUSIVE
    capsys.readouterr()
    assert _report_bytes(spaced) == _report_bytes(joined)


FLAG_PARITY = {
    "options-first": (["limit", "--degree-bound", "10", "--json", "{out}",
                       "uq-sl2", "q=1"], {"degree_bound": 10}),
    "unique-prefix": (["limit", "uq-sl2", "q=1", "--deg", "10",
                       "--json", "{out}"], {"degree_bound": 10}),
    "last-value-wins": (["limit", "uq-sl2", "q=1", "--degree-bound", "5",
                         "--degree-bound=10", "--json", "{out}"],
                        {"degree_bound": 10}),
    "rep-twice": (["verify", "yangian-sl2", "relations", "--rep", "spin:1/2",
                   "--rep", "spin:1", "--json", "{out}"],
                  {"reps": ["eval-spin(1/2)", "eval-spin(1)"]}),
}


@pytest.mark.parametrize("argv, config", FLAG_PARITY.values(),
                         ids=FLAG_PARITY.keys())
def test_flag_placement_and_spelling(tmp_path, capsys, argv, config):
    out = tmp_path / "r.json"
    main([str(out) if a == "{out}" else a for a in argv])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert {k: doc["config"][k] for k in config} == config


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "--help"],
                                  ["cybe", "-h"]])
def test_help_prints_usage(capsys, argv):
    assert main(argv) == EXIT_PASS
    out, err = capsys.readouterr()
    assert out == cli.USAGE and err == ""
    assert out.startswith("usage: loopdeform verify <algebra>")


def test_usage_names_the_commands_that_take_degree_bound():
    text = " ".join(cli.USAGE.split())
    said = re.search(r"; ([a-z, ]+) also take --degree-bound N", text)
    assert said is not None
    assert re.split(r", | and ", said.group(1)) == [
        name for name, (_, settings) in cli.COMMANDS.items()
        if cli.DEGREE_BOUND in settings]


def test_cli_start_up_imports_nothing_per_command(tmp_path):
    # before/after in one interpreter, so start-up imports do not matter;
    # start-up itself loads neither argparse nor dataclasses and the
    # inspect machinery that dataclasses pulls in
    probe = (
        "import json, sys\n"
        "import loopdeform.cli as cli\n"
        "heavy = [m for m in ('argparse', 'dataclasses', 'inspect')\n"
        "         if m in sys.modules]\n"
        "before = set(sys.modules)\n"
        "code = cli.main(['limit', 'uq-sl2', 'q=1', '--json', sys.argv[1]])\n"
        "print(json.dumps([heavy, code,\n"
        "                  sorted(set(sys.modules) - before)]))\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "r.json")],
        capture_output=True, text=True, env=env, check=True)
    heavy, code, imported = json.loads(proc.stdout.splitlines()[-1])
    assert heavy == []
    assert code == EXIT_INCONCLUSIVE
    assert imported == []


@pytest.mark.parametrize("algebra", ["uq-sl2", "uq-sl3", "yangian-sl2",
                                     "twisted-yangian-sl2"])
def test_limit_kdelta_without_central_letter_is_usage_error(algebra, capsys):
    assert main(["limit", algebra, "kdelta=1"]) == EXIT_USAGE
    line = _usage_error_line(capsys)
    assert "kdelta" in line and algebra in line


@pytest.mark.parametrize("key", ["order", "degree-bound"])
def test_non_integer_config_value_is_usage_error(tmp_path, capsys, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("%s=three\n" % key)
    assert main(["twist", "--config", str(cfg)]) == EXIT_USAGE
    line = _usage_error_line(capsys)
    assert str(cfg) in line and "%s='three'" % key in line


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfeorder=3\n")
    with pytest.raises(UsageError):
        load_config_file(str(cfg))
    assert main(["verify", "uq-sl2", "relations", "--config", str(cfg)]) \
        == EXIT_USAGE
    line = _usage_error_line(capsys)
    assert line.startswith("loopdeform: error: %s: " % cfg)
    assert "UnicodeDecodeError" not in line


def test_config_file_with_a_byte_order_mark_is_read(tmp_path, capsys):
    # an editor that saves UTF-8 with a BOM put it in front of the first key
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfdegree-bound=10\n")
    assert load_config_file(str(cfg)) == [("degree-bound", "10")]
    out = tmp_path / "r.json"
    assert main(["verify", "uq-sl2", "relations", "--config", str(cfg),
                 "--json", str(out)]) == EXIT_PASS
    capsys.readouterr()
    assert json.loads(out.read_text())["config"]["degree_bound"] == 10


@pytest.mark.parametrize("spin", ["-1", "1/3"])
def test_spin_rep_that_is_not_a_half_integer_is_usage_error(capsys, spin):
    assert main(["verify", "yangian-sl2", "--rep", "spin:" + spin]) \
        == EXIT_USAGE
    assert "'spin:%s'" % spin in _usage_error_line(capsys)


def _config_keys(command):
    """The config keys of the command's row of cli.COMMANDS, in order."""
    return [name for name, _, _, sources in cli.COMMANDS[command][1]
            if "config" in sources]


def test_config_keys_are_the_readme_list():
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"the keys its subcommand reads \((.*?)\)\.", text)
    readme = {}
    for part in listed.group(1).split("; "):
        command, _, keys = part.partition(": ")
        readme[command.strip("`")] = re.findall(r"`([^`]+)`", keys)
    assert readme == {command: _config_keys(command)
                      for command in cli.COMMANDS}


def test_every_setting_feeds_a_parameter_of_its_command():
    for command, (positionals, settings) in cli.COMMANDS.items():
        params = inspect.signature(getattr(cli, "cmd_" + command)).parameters
        keywords = [spec.rstrip("?+") for spec in positionals]
        keywords += [keyword for _, keyword, _, _ in settings]
        assert keywords and set(keywords) <= set(params), command
        for _, _, kind, sources in settings:
            assert kind in (int, list, str)
            assert set(sources) <= {"flag", "config", "required"}


def test_config_keys_a_subcommand_does_not_read_are_rejected(tmp_path,
                                                             capsys):
    argv = {"verify": ["verify", "uq-sl2", "relations"],
            "limit": ["limit", "uq-sl2", "q=1"],
            "twist": ["twist", "--order", "0"],
            "cybe": ["cybe", "--r", "jordanian"]}
    values = {"degree-bound": "12", "order": "3", "check": "all",
              "suite": "all", "rep": "spin:1"}
    cfg = tmp_path / "c.cfg"
    for command, args in argv.items():
        for key, value in values.items():
            if key in _config_keys(command):
                continue
            cfg.write_text("%s=%s\n" % (key, value))
            assert main(args + ["--config", str(cfg)]) == EXIT_USAGE
            line = _usage_error_line(capsys)
            assert command in line and key in line and str(cfg) in line
    # the one key limit reads is accepted
    cfg.write_text("degree-bound=12\n")
    assert main(argv["limit"] + ["--config", str(cfg)]) == EXIT_INCONCLUSIVE
    capsys.readouterr()


def test_degree_bound_flag_lands_in_config(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["verify", "yangian-sl2", "relations", "--degree-bound", "10",
          "--json", str(out)])
    capsys.readouterr()
    assert json.loads(out.read_text())["config"]["degree_bound"] == 10


# ---------------------------------------------------------------------------
# degree bounds and internal errors
# ---------------------------------------------------------------------------


def test_twist_order_four_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["twist", "--order", "4", "--json", str(out)]) == EXIT_PASS
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert len(doc["items"]) == 27
    assert all(i["verdict"] == "pass" for i in doc["items"])
    # the bound is derived from the order and recorded in the config
    assert doc["config"] == {"order": 4, "check": "all", "max_order": 4,
                             "degree_bound": 16}


def test_twist_honours_degree_bound(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["twist", "--order", "3", "--degree-bound", "8",
                 "--json", str(out)])
    capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out.read_text())
    assert doc["config"]["degree_bound"] == 8
    unknown = [i for i in doc["items"] if i["verdict"] == "unknown"]
    # one item for the whole check, naming the check and the bound
    assert [i["label"] for i in unknown] == ["antipode"]
    assert unknown[0]["residual"].startswith("DegreeBoundExceeded: ")
    assert "bound 8" in unknown[0]["residual"]
    # the config key reaches twist too
    cfg = tmp_path / "twist.cfg"
    cfg.write_text("order=3\ndegree-bound=8\n")
    assert main(["twist", "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    capsys.readouterr()


def test_verify_degree_bound_hit_is_inconclusive(capsys):
    code = main(["verify", "drinfeldian-sl2", "relations",
                 "--degree-bound", "3"])
    out, err = capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE
    assert "Traceback" not in out + err
    assert "DegreeBoundExceeded: " in out and "bound 3" in out


def test_verify_hopf_degree_bound_hit_is_one_item():
    rep = cmd_verify("drinfeldian-sl2", "hopf", degree_bound=3)
    assert rep.items == [("hopf", "unknown", "DegreeBoundExceeded: word of "
                          "length 4 exceeds bound 3 during rewriting")]


def test_limit_degree_bound_hit_is_inconclusive():
    rep = cmd_limit("drinfeldian-sl2", ["q->1", "kdelta=1"], degree_bound=3)
    assert rep.exit_code == EXIT_INCONCLUSIVE
    label, verdict, payload = rep.items[0]
    assert (label, verdict) == ("specialize", "unknown")
    assert payload.startswith("DegreeBoundExceeded: ")


NON_POSITIVE_BOUND_ARGV = [["verify", "uq-sl2", "relations"],
                           ["limit", "uq-sl2", "q=1"],
                           ["twist", "--order", "0"]]


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("argv", NON_POSITIVE_BOUND_ARGV,
                         ids=lambda argv: argv[0])
def test_non_positive_degree_bound_flag_is_usage_error(capsys, argv, bound):
    assert main(argv + ["--degree-bound", bound]) == EXIT_USAGE
    assert "degree bound %s" % bound in _usage_error_line(capsys)


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("argv", NON_POSITIVE_BOUND_ARGV,
                         ids=lambda argv: argv[0])
def test_non_positive_degree_bound_config_key_is_usage_error(
        tmp_path, capsys, argv, bound):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("degree-bound=%s\n" % bound)
    assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
    assert "degree bound %s" % bound in _usage_error_line(capsys)


def test_cybe_rejects_degree_bound(tmp_path, capsys):
    assert main(["cybe", "--r", "rational", "--degree-bound", "3"]) \
        == EXIT_USAGE
    cfg = tmp_path / "c.cfg"
    cfg.write_text("degree-bound=3\n")
    assert main(["cybe", "--r", "rational", "--config", str(cfg)]) \
        == EXIT_USAGE
    capsys.readouterr()


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(kind):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_cybe", broken)
    assert main(["cybe", "--r", "rational"]) == EXIT_INTERNAL == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "loopdeform: internal error: RuntimeError: boom\n"


def test_unwritable_json_path_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert main(["cybe", "--r", "rational", "--json", str(path)]) \
        == EXIT_USAGE
    assert str(path) in _usage_error_line(capsys)
    assert not path.exists()


def test_console_entry_point_runs():
    # the child imports the package this suite imported, installed or not
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "loopdeform", "cybe", "--r", "jordanian"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_PASS
    assert "pass" in proc.stdout
