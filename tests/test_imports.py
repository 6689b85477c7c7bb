"""Every name a library module, a test or a demo imports must be used in
that file, and every public definition, constants included, must have a
caller outside the tests.

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
IMPORTERS = MODULES + sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])

# definitions kept although nothing in src/, demos/ or perfbench/ calls them
KEPT = {
    "cocycle_engine.word_product":
        "scalar oracle for the TowerModel word-product arrays",
    "cocycle_engine.transition_values":
        "scalar oracle for TowerModel.step_values",
    "cocycle_engine.TowerModel.cocycle_between":
        "the cocycle-identity acceptance criterion reads the model through it",
    "finite_algebra.Character.compose_action":
        "the certificate oracles twist by it, one power at a time, apart from "
        "conjugate_exponents' one product",
    "finite_algebra.GroupAutomorphism.compose":
        "the binary-powering oracle of ModuleAction.matrices multiplies with it",
    "finite_algebra.GroupAutomorphism.is_identity":
        "the order tests read the binary powers with it",
    "finite_algebra.identity_automorphism":
        "the binary-powering oracle starts from it; the trivial actions of "
        "the orbit tests act by it",
    "finite_algebra.subgroup_from_generators":
        "generates the subgroups of the verify_subgroup property test",
    "koopman_lab.simplicity_probe":
        "the joint-cyclicity acceptance criterion runs it",
    "koopman_lab.SimplicityReport.max_residual":
        "the joint-cyclicity acceptance criterion reads it",
}


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


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(2, 3)\n") == [
        "gcd (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_public_definition_has_a_caller():
    assert [d for d in dead_definitions(package_sources(), user_sources())
            if d not in KEPT] == []


def test_kept_definitions_exist_and_have_no_caller():
    # an entry whose definition is gone, or has gained a caller, is stale
    assert sorted(KEPT) == [d for d in dead_definitions(package_sources(), user_sources())
                            if d in KEPT]


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
    assert [d for d in dead_definitions(modules, user_sources()) if d not in KEPT] == [
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
