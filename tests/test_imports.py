"""Every name a library module, a test or a demo imports must be used in
that file, and every public definition, constants included, must have a
caller outside the tests: no exception is allowed.  What only the tests
call lives in tests/oracles.py, every public name of which another test
must take from it, and no package module imports from tests/.

The package's __init__ re-exports names by importing them, so it is exempt
from the import check, and its imports are not callers.  A string that
spells a name is a caller only in perfbench/ and demos/, where the tracer
names its targets that way; in the package it is data, a dict key say.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cfspectra"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
USERS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
TESTS = sorted((ROOT / "tests").glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"
IMPORTERS = MODULES + sorted([*TESTS, *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def public_definitions(tree):
    """(qualified name, node) of each public top-level function, class and
    constant and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def references(tree, strings: bool) -> Counter:
    """Names used by a syntax tree: plain names, attributes and, with
    ``strings``, the parts of a string that is a dotted name (the benchmark's
    tracer names its targets that way).  Docstrings and other bare strings
    do not count."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings
              and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)):
            counts.update(node.value.split("."))
    return counts


def dead_definitions(modules: dict[str, str], users: list[str]) -> list[str]:
    """Public definitions of the modules (name -> source) that no code
    outside their own body references."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = Counter()
    for tree in trees.values():
        total += references(tree, strings=False)
    for source in users:
        total += references(ast.parse(source), strings=True)
    dead = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if total[name] == references(node, strings=False)[name]:
                dead.append(f"{module}.{qualname}")
    return sorted(dead)


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in MODULES}


def user_sources() -> list[str]:
    return [p.read_text() for p in USERS]


def oracle_callers(sources: list[str]) -> set[str]:
    """Names the sources take from the oracle module: imported from it, or
    read off it as an attribute."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "oracles"):
                names.add(node.attr)
    return names


def uncalled_oracles(oracles: str, tests: list[str]) -> list[str]:
    """Public top-level definitions of the oracle module (its source) that
    none of the tests takes from it."""
    called = oracle_callers(tests)
    return sorted(name for name, _ in public_definitions(ast.parse(oracles))
                  if "." not in name and name not in called)


def other_test_sources() -> list[str]:
    return [p.read_text() for p in TESTS if p != ORACLES]


def imports_from_tests(modules: dict[str, str]) -> list[str]:
    """'module: imported' for each import of a tests/ module (or of tests
    itself) by the modules (name -> source)."""
    test_modules = {"tests", *(p.stem for p in TESTS)}
    found = []
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{module}: {root}" for root in roots if root in test_modules]
    return sorted(found)


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(2, 3)\n") == [
        "gcd (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_public_definition_has_a_caller():
    assert dead_definitions(package_sources(), user_sources()) == []


def test_guard_flags_a_readded_dead_definition():
    # calls from a definition's own body and names in docstrings are no callers
    modules = package_sources()
    modules["cocycle_engine"] += (
        "\n\nORPHAN_CONSTANT = 7\n"
        "\n\ndef orphan_function(word):\n"
        "    return orphan_function(word) if word else 0\n"
        "\n\nclass OrphanHolder:\n"
        "    def orphan_method(self):\n"
        "        \"\"\"OrphanHolder.orphan_method\"\"\"\n"
        "        return self.orphan_method\n")
    assert dead_definitions(modules, user_sources()) == [
        "cocycle_engine.ORPHAN_CONSTANT",
        "cocycle_engine.OrphanHolder",
        "cocycle_engine.OrphanHolder.orphan_method",
        "cocycle_engine.orphan_function",
    ]


def test_guard_counts_strings_only_outside_the_package():
    # a dict key in a package module is no caller; the tracer's dotted target is
    modules = package_sources()
    modules["cocycle_engine"] += (
        "\n\ndef orphan_function(word):\n"
        "    return word\n"
        "\n\nORPHAN_DOC = {'orphan_function': 1}\n")
    dead = dead_definitions(modules, user_sources())
    assert "cocycle_engine.orphan_function" in dead
    traced = user_sources() + ["TARGETS = ('cocycle_engine.orphan_function',)\n"]
    assert "cocycle_engine.orphan_function" not in dead_definitions(modules, traced)


def test_guard_flags_an_oracle_put_back_into_the_package():
    # the tests' callers of an oracle are no callers of a package copy of it
    oracles = ORACLES.read_text()
    tree = ast.parse(oracles)
    moved = [ast.get_source_segment(oracles, node) for node in tree.body
             if isinstance(node, ast.FunctionDef)
             and node.name in ("word_product", "transition_values")]
    modules = package_sources()
    modules["cocycle_engine"] += "".join(f"\n\n{body}\n" for body in moved)
    assert dead_definitions(modules, user_sources()) == [
        "cocycle_engine.transition_values", "cocycle_engine.word_product"]


def test_every_oracle_has_a_caller_in_another_test():
    assert uncalled_oracles(ORACLES.read_text(), other_test_sources()) == []


def test_oracle_guard_flags_an_uncalled_oracle():
    # a name the oracle module itself calls, or a private one, needs no
    # caller; a public one does, until a test imports it or reads it off
    # the module
    oracles = ORACLES.read_text() + (
        "\n\ndef orphan_oracle(x):\n"
        "    return orphan_oracle(x - 1) if x else _helper()\n"
        "\n\ndef _helper():\n"
        "    return 0\n")
    tests = other_test_sources()
    assert uncalled_oracles(oracles, tests) == ["orphan_oracle"]
    assert uncalled_oracles(oracles, tests + ["from oracles import orphan_oracle\n"]) == []
    assert uncalled_oracles(oracles, tests + ["import oracles\noracles.orphan_oracle(2)\n"]) == []


def test_no_package_module_imports_from_the_tests():
    assert imports_from_tests({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_test_import_guard_flags_every_form():
    modules = {
        "cocycle_engine": "from oracles import act\n",
        "koopman_lab": "import test_finite_algebra as fa, numpy\n",
        "session": "from tests.oracles import act\nfrom .errors import ConfigError\n",
    }
    assert imports_from_tests(modules) == [
        "cocycle_engine: oracles", "koopman_lab: test_finite_algebra", "session: tests"]
