"""Every defaulted parameter of the package has a caller: a setting that nothing sets is a constant.

Calls are matched by function name, so a call of any function of that name
counts. A parameter is set by a call that passes it by keyword, by position
(a `*` argument covers every position) or through a `**` mapping. Tests count
as callers, because some checks are the only callers of a setting.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = sorted((ROOT / "src" / "noisycav").glob("*.py"))
CALLERS = sorted(path for folder in ("src", "scripts", "tests", "benchmarks")
                 for path in (ROOT / folder).rglob("*.py"))


def _defaulted(function: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call's arguments or None if keyword-only) of each defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
    offset = 1 if method and not static else 0  # a method's call fills `self` from the instance
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, k - offset) for k, arg in enumerate(positional) if k >= first]
    return found + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)


def uncalled_defaults(definitions: list[str], callers: list[str]) -> list[str]:
    """'function.parameter' for each defaulted parameter of `definitions` that no call in `callers` sets."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                calls.setdefault(getattr(func, "id", None) or getattr(func, "attr", None), []).append(node)
    missing = []
    for source in definitions:
        tree = ast.parse(source)
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name, position in _defaulted(function, id(function) in methods):
                    if not any(_sets(call, name, position) for call in calls.get(function.name, [])):
                        missing.append(f"{function.name}.{name}")
    return missing


def test_every_defaulted_parameter_has_a_caller():
    assert uncalled_defaults([p.read_text() for p in DEFINITIONS], [p.read_text() for p in CALLERS]) == []


@pytest.mark.parametrize("definition,caller,expected", [
    ("def f(x, tol=1): pass\n", "", ["f.tol"]),
    ("def f(x, tol=1): pass\n", "f(0)\n", ["f.tol"]),
    ("def f(x, tol=1): pass\n", "f(0, 2)\n", []),
    ("def f(x, tol=1): pass\n", "m.f(0, tol=2)\n", []),
    ("def f(x, tol=1): pass\n", "f(**options)\n", []),
    ("def f(x, tol=1): pass\n", "f(*values)\n", []),
    ("def f(x, *, tol=1): pass\n", "f(0, 2)\n", ["f.tol"]),
    ("class A:\n    def m(self, tol=1): pass\n", "A().m()\n", ["m.tol"]),
    ("class A:\n    def m(self, tol=1): pass\n", "A().m(2)\n", []),
    ("class A:\n    @staticmethod\n    def m(x, tol=1): pass\n", "A.m(1)\n", ["m.tol"]),
    ("def f(x, tol=1): pass\n", "g(0, tol=2)\n", ["f.tol"]),
])
def test_checker_on_small_sources(definition, caller, expected):
    assert uncalled_defaults([definition], [caller]) == expected
