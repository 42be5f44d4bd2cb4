"""Tooling guard: rules reach a presentation only through Presentation.add_rule.

The word-normal-form memo of a Presentation is keyed to ``_rules_version``;
a rule appended to ``relations`` anywhere else would leave stale normal
forms behind.  This test parses ``src/loopdeform/*.py`` and fails on any code
outside ``Presentation.__init__`` and ``Presentation.add_rule`` that calls
``append``/``extend``/``insert`` on ``.relations``, assigns or deletes
``.relations`` or an item of it, or writes ``_rules_version``.  Tests are not
scanned: some edit ``relations`` in place on purpose and bump the counter
themselves.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loopdeform"
ALLOWED = {"Presentation.__init__", "Presentation.add_rule"}
GROWERS = {"append", "extend", "insert"}


def _is_relations(node):
    return isinstance(node, ast.Attribute) and node.attr == "relations"


def _writes_rules(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_rules(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_rules(target.value)
    if isinstance(target, ast.Attribute):
        return target.attr in ("relations", "_rules_version")
    if isinstance(target, ast.Subscript):
        return _is_relations(target.value)
    return False


class _RuleWriteFinder(ast.NodeVisitor):
    def __init__(self, filename):
        self.filename = filename
        self.scope = []
        self.sites = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _flag(self, node):
        where = ".".join(self.scope)
        if where not in ALLOWED:
            self.sites.append("%s:%d (%s)" % (self.filename, node.lineno,
                                              where or "<module>"))

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in GROWERS
                and _is_relations(func.value)):
            self._flag(node)
        self.generic_visit(node)

    def _targets(self, node, targets):
        if any(_writes_rules(t) for t in targets):
            self._flag(node)
        self.generic_visit(node)

    def visit_Assign(self, node):
        self._targets(node, node.targets)

    def visit_AugAssign(self, node):
        self._targets(node, [node.target])

    def visit_AnnAssign(self, node):
        self._targets(node, [node.target])

    def visit_Delete(self, node):
        self._targets(node, node.targets)


def rule_write_sites(paths):
    sites = []
    for path in paths:
        finder = _RuleWriteFinder(path.name)
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        sites.extend(finder.sites)
    return sites


def test_rules_are_installed_only_through_add_rule():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert rule_write_sites(paths) == []


def test_guard_flags_every_kind_of_rule_write(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "class Presentation:\n"
        "    def __init__(self, rules):\n"
        "        self.relations = list(rules)\n"
        "        self._rules_version = 0\n"
        "    def add_rule(self, rel):\n"
        "        self.relations.append(rel)\n"
        "        self._rules_version += 1\n"
        "def elsewhere(p, rel):\n"
        "    p.relations.append(rel)\n"
        "    p.relations.extend([rel])\n"
        "    p.relations.insert(0, rel)\n"
        "    p.relations = []\n"
        "    p.relations[0] = rel\n"
        "    p.relations[1:] = []\n"
        "    del p.relations[0]\n"
        "    p._rules_version += 1\n"
        "    p.a, p._rules_version = 1, 2\n"
        "    p.relations.index(rel)\n"
        "    for r in p.relations:\n"
        "        r.label = 'x'\n",
        encoding="utf-8")
    sites = rule_write_sites([src])
    assert [int(s.split(":")[1].split()[0]) for s in sites] == list(range(9, 18))
    assert all("(elsewhere)" in s for s in sites)
