"""Source hygiene checks that need only the standard library.

No linter ships with the project, so an import left behind by deleted
code would go unnoticed; this test parses each module and each test file
and reports every imported name it never uses.  The runtime stays pure stdlib, so
it also reports every absolute import outside the standard library.  The
runtime generates no code, so it also reports every call of the builtins
``exec``, ``eval`` and ``compile``.  State that is written and never read
is dead code too, so it reports every private attribute the package
assigns and never reads, and every message type that neither end of the
protocol names and that is not marked reserved.  The network layer sits
on top of the core, so it reports every import of ``cosim.net`` from a
core module, and checks that ``import cosim`` loads no socket code.  A
public function that only tests call is code the runtime does not need,
so it reports every one that neither the package nor the benchmark
names.  An error class that nothing raises is dead too, so it reports
every class in ``cosim/errors.py`` that no module raises or constructs.
The models' RK4 kernels run on floats, and CPython multiplies a float by
an int literal on a slower path than by a float one, for the same bits,
so it reports every binary operation in ``cosim/models.py`` with an int
literal operand.  A model addresses its ports by position, as the
exchange does, so it reports every string subscript of ``self.inputs``
or ``self.outputs`` in the package.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cosim"
# ``__init__.py`` files import names to re-export them.
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: str(
    p.relative_to(SRC) if p.is_relative_to(SRC) else p.relative_to(ROOT)))
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


def int_operands(source: str) -> list[str]:
    """Every binary operation with an int literal operand, signed or not."""
    def int_literal(node) -> bool:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.BinOp) and (int_literal(node.left) or int_literal(node.right))]
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_checker_sees_an_int_operand():
    source = ("n, h2 = 10, h / 2\nk = 2.0 * v + 2 * w\ny = x**2 - -1 * z\n"
              "t = t0 + i * hh\nb = x + True\nm = max(1, n)\nf = x ** 2.0 / 6.0\n")
    assert int_operands(source) == [
        "line 1: h / 2", "line 2: 2 * w", "line 3: x ** 2", "line 3: -1 * z"]


def test_models_write_float_literals():
    assert int_operands((SRC / "models.py").read_text()) == []


def named_port_subscripts(source: str) -> list[str]:
    """Every ``self.inputs`` or ``self.outputs`` subscripted by a string."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Subscript)
             and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)
             and isinstance(node.value, ast.Attribute)
             and node.value.attr in ("inputs", "outputs")
             and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"]
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_checker_sees_a_named_port_subscript():
    source = ("tau = self.inputs['tau']\nself.outputs['x'] = x\n(u,) = self.inputs\n"
              "v = self.outputs[0]\nw = record.outputs[port]\nm = self.params['m']\n"
              "q = other.inputs['q']\n")
    assert named_port_subscripts(source) == [
        "line 1: self.inputs['tau']", "line 2: self.outputs['x']"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_models_address_ports_by_position(path):
    assert named_port_subscripts(path.read_text()) == []


def unread_private_attributes(sources: dict[str, str]) -> list[str]:
    """Private attributes that some module assigns and no module reads.

    Attributes cross modules, so the sources are checked together, by
    name alone.  ``x._a = ...``, ``x._a += ...`` and
    ``object.__setattr__(x, "_a", ...)`` assign; any other use of
    ``x._a`` reads, as does ``getattr(x, "_a")``.  An attribute that is
    only ever counted up is dead too.
    """
    assigned: dict[str, list[str]] = {}
    read: set[str] = set()

    def private(name) -> bool:
        return isinstance(name, str) and name.startswith("_") and not name.endswith("__")

    for module, source in sources.items():
        tree = ast.parse(source)
        augmented = {id(node.target) for node in ast.walk(tree) if isinstance(node, ast.AugAssign)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                if isinstance(node.ctx, ast.Store) or id(node) in augmented:
                    assigned.setdefault(node.attr, []).append(f"{module}:{node.lineno}")
                else:
                    read.add(node.attr)
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                name = node.args[1].value if isinstance(node.args[1], ast.Constant) else None
                func = node.func
                if not private(name):
                    continue
                if isinstance(func, ast.Attribute) and func.attr == "__setattr__":
                    assigned.setdefault(name, []).append(f"{module}:{node.lineno}")
                elif isinstance(func, ast.Name) and func.id in ("getattr", "hasattr"):
                    read.add(name)
    return [f"{name} ({', '.join(where)})" for name, where in sorted(assigned.items())
            if name not in read]


def test_checker_sees_an_unread_private_attribute():
    sources = {
        "a.py": ("class A:\n    def __init__(self):\n        self._kept = 1\n"
                 "        self._dead = 2\n        self._counted = 0\n"
                 "        object.__setattr__(self, '_frozen', 3)\n"
                 "        object.__setattr__(self, '_fetched', 4)\n"
                 "    def f(self):\n        self._counted += 1\n        self._dead = 5\n"),
        "b.py": "def g(a):\n    return a._kept, getattr(a, '_fetched')\n",
    }
    assert unread_private_attributes(sources) == [
        "_counted (a.py:5, a.py:9)", "_dead (a.py:4, a.py:10)", "_frozen (a.py:6)"]


def test_every_private_attribute_is_read():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert unread_private_attributes(sources) == []


# Message numbers kept so that an older peer's frame is never misread.
RESERVED = {"SETUP", "SET_INPUTS", "STEP_FAIL", "OK", "BIND"}


def message_types_named(source: str) -> set[str]:
    """Every ``MT.<NAME>`` in ``source``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "MT"}


def test_checker_sees_a_named_message_type():
    source = ("from .wire import MessageType as MT\nsend(MT.STEP)\n"
              "if got == MT.ERROR:\n    pass\nMessageType.HELLO\n")
    assert message_types_named(source) == {"STEP", "ERROR"}


def test_every_message_type_is_used_or_reserved():
    from cosim.net.wire import MessageType

    named = set()
    for module in ("client.py", "provider.py"):
        named |= message_types_named((SRC / "net" / module).read_text())
    members = set(MessageType.__members__)
    assert RESERVED <= members
    assert sorted(members - RESERVED - named) == []
    assert sorted(RESERVED & named) == []


# The core runs without the network layer; only the command line wires it in.
NET_USERS = {"cli.py"}


def net_imports(source: str) -> list[str]:
    """Every import of ``cosim.net`` in a module directly under ``cosim``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("cosim" if node.level else "", node.module)))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "cosim.net" or n.startswith("cosim.net.") for n in names):
            found.append(f"line {node.lineno}")
    return found


def test_checker_sees_a_net_import():
    source = ("from .units import WATT\nfrom .net import wire\nfrom . import net, units\n"
              "import cosim.net.client\nfrom cosim import network\nfrom cosim.net.wire import MT\n"
              "import socket\n")
    assert net_imports(source) == ["line 2", "line 3", "line 4", "line 6"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name not in NET_USERS),
                         ids=lambda p: p.name)
def test_core_does_not_import_the_network_layer(path):
    assert net_imports(path.read_text()) == []


def test_importing_cosim_loads_no_network_code():
    code = "import sys, cosim; print(sorted({'socket', 'cosim.net'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def names_used(source: str) -> set[str]:
    """Every name ``source`` uses as code: a bare name, an attribute or an
    imported name, not a word in a docstring or comment."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def unused_public_functions(modules: dict[str, str], users: list[str]) -> list[str]:
    """Public top-level functions of ``modules`` that no module and no
    source in ``users`` names.  A module's own calls count; a re-export in
    an ``__init__.py`` does not, as it is not a use."""
    used = set()
    for module, source in modules.items():
        if not module.endswith("__init__.py"):
            used |= names_used(source)
    for source in users:
        used |= names_used(source)
    return [f"{module}: {node.name}" for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in used]


def test_checker_sees_an_unused_public_function():
    modules = {
        "__init__.py": "from .a import kept, exported\n",
        "a.py": ('"""Call dead() or mentioned() by hand."""\n'
                 "def kept(x):\n    return helper(x)\ndef helper(x):\n    return x\n"
                 "def dead():\n    pass\ndef mentioned():\n    pass  # not kept(mentioned)\n"
                 "def exported():\n    pass\ndef patched():\n    pass\n"
                 "def _private():\n    pass\nclass C:\n    def method(self):\n        pass\n"),
        "b.py": "from .a import kept as k\nk(1)\n",
    }
    users = ["from cosim import a\na.patched = wrap(a.patched)\n"]
    assert unused_public_functions(modules, users) == [
        "a.py: dead", "a.py: mentioned", "a.py: exported"]


def test_every_public_function_has_a_user_outside_the_tests():
    modules = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_public_functions(modules, bench) == []


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """The classes ``errors_source`` defines that no source in ``sources``
    raises or constructs.  ``raise E``, ``E(...)`` and handing ``E`` to a
    call or as a default, for the callee to raise, count; a test such as
    ``isinstance(x, E)`` or ``except E`` does not, nor does a name that
    only stands in a table, such as the wire's map of error codes."""
    made = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                made.add(node.exc)
            elif isinstance(node, ast.Call):
                made.add(node.func)
                if getattr(node.func, "id", None) not in ("isinstance", "issubclass"):
                    made.update([*node.args, *(k.value for k in node.keywords)])
            elif isinstance(node, ast.arguments):
                made.update([*node.defaults, *node.kw_defaults])
    names = {n.id if isinstance(n, ast.Name) else n.attr for n in made
             if isinstance(n, (ast.Name, ast.Attribute))}
    return [node.name for node in ast.parse(errors_source).body
            if isinstance(node, ast.ClassDef) and node.name not in names]


def test_checker_sees_an_unraised_error():
    errors = "".join(f"class {name}(Exception):\n    pass\n" for name in (
        "Base", "Raised", "Made", "Bare", "Qualified", "Handed", "Defaulted",
        "Tabled", "Caught", "Tested"))
    sources = [errors,
               "def f():\n    raise Raised('x')\n", "e = Made()\n",
               "def g():\n    raise Bare\n", "errors.Qualified('y')\n",
               "abort('late', kind=Handed)\n",
               "def abort(why, kind=Defaulted):\n    raise kind(why)\n",
               "TABLE = {1: Tabled}\nTABLE.get(1, Base)('z')\n",
               "try:\n    f()\nexcept Caught as e:\n    isinstance(e, Tested)\n"]
    assert unraised_errors(errors, sources) == ["Tabled", "Caught", "Tested"]


def test_every_error_class_is_raised():
    sources = [p.read_text() for p in sorted(SRC.rglob("*.py"))]
    assert unraised_errors((SRC / "errors.py").read_text(), sources) == []
