"""Every module-level function, class and assignment of the package is used,
and so is every method and property of its module-level classes.

A name counts as used when some module of the package, the tests or the
benchmark harness loads it, reads it as an attribute or imports it.  A
private (``_``-prefixed) name must be used by the package or the benchmark
harness, not only by the tests: a reference that only a test compares
against belongs in that test.  A public name must be used by a package
module other than ``__init__.py``, whose re-exports do not count, by the
benchmark harness, or by the acceptance criteria (``tests/test_acceptance.py``
and its fixtures in ``tests/conftest.py``).  Click commands, which are used
through their group, and dunder names such as ``__all__`` and
``__post_init__`` are exempt.  A method is matched by its name alone, as
text, so ``CurveGamma.to_json`` counts as used through any ``.to_json``.

Names are matched as text, whatever they are read from: ``operators.convolve``
counts as used through ``np.convolve``.

Every parameter with a default, on a module-level function or on a method
of a module-level class, is passed by some call in a package module, the
benchmark harness or the acceptance criteria, by keyword or by position.
Calls match the function by name, as text, like the names above; a call
that unpacks ``*args`` or ``**kwargs`` passes every parameter.  Nested
functions are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvetorsion"
CRITERIA = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]


def _definitions(tree):
    """(label, name) of each module-level definition, and of each method
    and property of a module-level class other than a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(_is_click_command(dec) for dec in node.decorator_list):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not method.name.startswith("__")):
                        yield f"{node.name}.{method.name}", method.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name.id


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


def _referenced_in(paths):
    used = set()
    for path in paths:
        used.update(_references(ast.parse(path.read_text(), str(path))))
    return used


def _used_names(*directories):
    return _referenced_in(path for d in directories for path in (ROOT / d).rglob("*.py"))


def _unused(used, keep=lambda name: True):
    return [
        f"{path.stem}.{label}"
        for path in sorted(PACKAGE.glob("*.py"))
        for label, name in _definitions(ast.parse(path.read_text(), str(path)))
        if keep(name) and name not in used
    ]


def _defaulted_parameters(tree):
    """(function name, parameter name, call position or None) of each
    parameter with a default.  A method's call positions skip its receiver
    (``self`` or ``cls``), as ``obj.method(a)`` passes ``a`` first."""
    functions = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [
            (node, 0 if _is_staticmethod(node) else 1)
            for node in cls.body if isinstance(node, ast.FunctionDef)
        ]
    for func, receiver in functions:
        positional = func.args.posonlyargs + func.args.args
        first = len(positional) - len(func.args.defaults)
        for index in range(first, len(positional)):
            yield func.name, positional[index].arg, index - receiver
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield func.name, arg.arg, None


def _is_staticmethod(func):
    return any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
               for dec in func.decorator_list)


def _passed_arguments(paths):
    """(function name, keyword or position) of every argument some call
    passes; ``*args`` and ``**kwargs`` pass the key None."""
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for index, arg in enumerate(node.args):
                passed.add((name, None if isinstance(arg, ast.Starred) else index))
            for keyword in node.keywords:
                passed.add((name, keyword.arg))
    return passed


def test_no_parameter_defaults_no_caller_overrides():
    modules = sorted(PACKAGE.glob("*.py"))
    passed = _passed_arguments(modules + sorted((ROOT / "perfbench").rglob("*.py")) + CRITERIA)
    unpacked = {name for name, key in passed if key is None}
    dead = [
        f"{path.stem}.{func}({param})"
        for path in modules
        for func, param, position in _defaulted_parameters(ast.parse(path.read_text(), str(path)))
        if func not in unpacked and (func, param) not in passed and (func, position) not in passed
    ]
    assert dead == []


def test_no_dead_module_level_names():
    assert _unused(_used_names("src", "tests", "perfbench")) == []


def test_no_private_names_used_only_by_tests():
    private = lambda name: name.startswith("_")
    assert _unused(_used_names("src", "perfbench"), private) == []


def test_no_public_names_used_only_by_tests():
    public = lambda name: not name.startswith("_")
    modules = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    used = _used_names("perfbench") | _referenced_in(modules + CRITERIA)
    assert _unused(used, public) == []
