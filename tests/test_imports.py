"""Every module-level import is used: a name removed from the package must not linger as an import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ imports names in order to export them
MODULES = sorted(
    [path for path in (ROOT / "src" / "noisycav").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")),
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that no expression of it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,expected", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.getcwd()\n", []),
    ("from math import pi as tau, e\nprint(tau)\n", ["line 1: e"]),
    ("from __future__ import annotations\n", []),
    ("import json\ndef f(x: json.JSONDecoder): pass\n", []),
])
def test_checker_on_small_sources(source, expected):
    assert unused_imports(source) == expected


def test_serial_sweep_loads_no_process_pool():
    # the pool's modules are imported only by a sweep with workers > 1
    code = (
        "import sys\n"
        "import noisycav.cli\n"
        "from noisycav.dynamics import IntegratorSettings\n"
        "from noisycav.model import SystemConfig\n"
        "from noisycav.sweep import SweepAxis, SweepSpec, run_sweep\n"
        "spec = SweepSpec(SystemConfig(cutoff=1), SweepAxis('n_thermal', (0.0, 0.5)), evaluation_time=0.02)\n"
        "run_sweep(spec, IntegratorSettings(dt=0.01, t_max=1.0))\n"
        "print(sorted(set(sys.modules) & {'concurrent.futures', 'multiprocessing'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          cwd=ROOT, env=env, timeout=120)
    assert done.stdout == "[]\n"
