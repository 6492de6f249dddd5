"""Every comparison with a tolerance fails on NaN: it uses `<=` or `>=` only.

NaN compares false with everything, so `defect > TOL` lets a NaN defect pass,
while `not defect <= TOL` stops it. A comparison counts as one with a tolerance
when it names `TOLERANCE` or a name ending in `_TOL`, as a variable or an
attribute, anywhere in its operands.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "noisycav").glob("*.py"))


def _names_a_tolerance(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = getattr(sub, "id", None) or getattr(sub, "attr", None)  # an ast.Name or ast.Attribute
        if isinstance(name, str) and (name == "TOLERANCE" or name.endswith("_TOL")):
            return True
    return False


def nan_passing_comparisons(source: str) -> list[str]:
    """'line N: Op' for each operator other than <= and >= in a comparison of `source` with a tolerance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and _names_a_tolerance(node):
            found += [(node.lineno, type(op).__name__) for op in node.ops if not isinstance(op, (ast.LtE, ast.GtE))]
    return [f"line {line}: {op}" for line, op in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_tolerance_comparisons_fail_on_nan(path):
    assert nan_passing_comparisons(path.read_text()) == []


@pytest.mark.parametrize("source,expected", [
    ("if x > TOLERANCE: pass\n", ["line 1: Gt"]),
    ("if not x <= TOLERANCE: pass\n", []),
    ("if min_eig < -limits.EIG_TOL: pass\n", ["line 1: Lt"]),
    ("ok = 0 <= x <= HERMITICITY_TOL\n", []),
    ("ok = 0 < x <= HERMITICITY_TOL\n", ["line 1: Lt"]),
    ("if x == TOLERANCE * scale: pass\n", ["line 1: Eq"]),
    ("if np.abs(x).max() != f(TOLERANCE): pass\n", ["line 1: NotEq"]),
    ("if x > 1e-8 or y < tol: pass\n", []),  # a literal or a parameter names no tolerance
    ("if y != TOLERANCE:\n    pass\nelif x > STEP_TOL:\n    pass\n", ["line 1: NotEq", "line 3: Gt"]),
])
def test_checker_on_small_sources(source, expected):
    assert nan_passing_comparisons(source) == expected
