"""Every ``src/repro`` module has a user outside ``tests/``.

A user is another ``src/`` module (a package's lazy export table does
not count), a benchmark, an example or a CI workflow that names one of
the module's public top-level names, or any of those files naming the
module's dotted path (the way ``repro.__main__``'s command table
reaches the CLI modules). A module only its own tests reach is dead
weight: give it a caller or delete it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: module -> why it stays although only tests reach it
EXEMPT = {
    "repro.radiation.gold": "the Burns & Christon gold lines: an oracle the "
                            "regression tests read",
    "repro.runtime.controller": "the timestep controller the coupled "
                                "ARCHES/RMCRT loop is to run through",
    "repro.dw.archive": "the controller's output archive; it goes or stays "
                        "with the controller",
}


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _public_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _is_export_table(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports")


def _python_words(tree: ast.Module) -> set:
    """Identifiers, imported names and string constants a module uses,
    leaving out the arguments of its ``lazy_exports`` table."""
    skip = {id(n) for call in ast.walk(tree) if _is_export_table(call)
            for arg in call.args for n in ast.walk(arg)}
    words = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
            words.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            words.add(node.module)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.add(node.value)
    return words


def _text_words(text: str) -> set:
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_.]*", text)) | set(
        re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def _users() -> dict:
    """Every file that may use a module -> the words it uses."""
    users = {}
    for path in sorted(SRC.rglob("*.py")):
        users[path] = _python_words(ast.parse(path.read_text()))
    for folder, pattern in (("benchmarks", "*.py"), ("examples", "*.py"),
                            (".github/workflows", "*.yml")):
        for path in sorted((ROOT / folder).rglob(pattern)):
            text = path.read_text()
            users[path] = (_python_words(ast.parse(text)) if path.suffix == ".py"
                           else _text_words(text))
    return users


def find_orphans() -> list:
    users = _users()
    orphans = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        module = _module_name(path)
        if module in EXEMPT:
            continue
        names = _public_names(ast.parse(path.read_text())) | {module}
        if not any(names & words for user, words in users.items() if user != path):
            orphans.append(module)
    return orphans


def test_every_module_has_a_user_outside_the_tests():
    orphans = find_orphans()
    assert not orphans, (
        f"only tests reach {orphans}: give each a caller in src/, benchmarks/, "
        f"examples/ or CI, or delete it (exemptions: EXEMPT)")


def test_every_exemption_is_a_module():
    modules = {_module_name(p) for p in SRC.rglob("*.py")}
    assert set(EXEMPT) <= modules, set(EXEMPT) - modules
