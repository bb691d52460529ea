"""Every module-level function, class and assignment of the package is used.

A name counts as used when some module of the package, the tests or the
benchmark harness loads it, reads it as an attribute or imports it.  A
private (``_``-prefixed) name must be used by the package or the benchmark
harness, not only by the tests: a reference that only a test compares
against belongs in that test.  Click commands, which are used through their
group, and dunder names such as ``__all__`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvetorsion"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(_is_click_command(dec) for dec in node.decorator_list):
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id


def _is_click_command(decorator):
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(func, ast.Attribute) and func.attr in ("command", "group")


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _used_names(*directories):
    used = set()
    for directory in directories:
        for path in (ROOT / directory).rglob("*.py"):
            used.update(_references(ast.parse(path.read_text(), str(path))))
    return used


def _unused(used, keep=lambda name: True):
    return [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _definitions(ast.parse(path.read_text(), str(path)))
        if keep(name) and name not in used
    ]


def test_no_dead_module_level_names():
    assert _unused(_used_names("src", "tests", "perfbench")) == []


def test_no_private_names_used_only_by_tests():
    private = lambda name: name.startswith("_")
    assert _unused(_used_names("src", "perfbench"), private) == []
