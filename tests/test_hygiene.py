"""Source hygiene checks that need only the standard library.

No linter ships with the project, so an import left behind by deleted
code would go unnoticed; this test parses each module and reports every
imported name the module never uses.  The runtime stays pure stdlib, so
it also reports every absolute import outside the standard library.  The
runtime generates no code, so it also reports every call of the builtins
``exec``, ``eval`` and ``compile``.
"""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cosim"
# ``__init__.py`` files import names to re-export them.
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def non_stdlib_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue  # not an import, or a relative one
        found += [f"line {node.lineno}: {m}" for m in modules
                  if m.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_checker_sees_a_third_party_import():
    source = ("from __future__ import annotations\nimport os.path, numpy\n"
              "from . import units\nfrom .net import wire\nfrom json import dumps\n"
              "from scipy.linalg import solve\n")
    assert non_stdlib_imports(source) == ["line 2: numpy", "line 6: scipy.linalg"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_runtime_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


CODEGEN_BUILTINS = ("exec", "eval", "compile")


def codegen_calls(source: str) -> list[str]:
    # A bare name only: ``re.compile`` and other attributes are fine.
    return [f"line {node.lineno}: {node.func.id}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in CODEGEN_BUILTINS]


def test_checker_sees_a_codegen_call():
    source = ("import re\nPAT = re.compile('x')\nexec('y = 1')\n"
              "f = eval\ncode = compile(src, '<plan>', 'exec')\neval('2')\n")
    assert codegen_calls(source) == ["line 3: exec", "line 5: compile", "line 6: eval"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_runtime_generates_no_code(path):
    assert codegen_calls(path.read_text()) == []
