"""Package structure: imports at module level, and the console entry's environment."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import hybrid_teleport

PACKAGE = Path(hybrid_teleport.__file__).parent
ROOT = PACKAGE.parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_no_module_imports_inside_a_function():
    # an import inside a function body hides a dependency, or a cycle, until it runs
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found |= {f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                          if isinstance(sub, (ast.Import, ast.ImportFrom))}
    assert not found, sorted(found)


def _probe(code: str, **env) -> list:
    """What code prints, run in a fresh interpreter without the BLAS variables but those given."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_console_entry_sets_one_blas_thread_unless_given():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module = re.search(r'^hybrid-teleport = "([\w.]+):main"$', text, re.M).group(1)
    code = f"import os, {module}, numpy; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    assert _probe(code) == ["1", "1"]
    assert _probe(code, OPENBLAS_NUM_THREADS="3") == ["3", "1"]
    assert _probe(code, OMP_NUM_THREADS="2") == ["1", "2"]


def test_package_import_leaves_the_environment():
    code = ("import os, hybrid_teleport, hybrid_teleport.cli; "
            f"print(*(v in os.environ for v in {BLAS_VARS!r}))")
    assert _probe(code) == ["False", "False"]
