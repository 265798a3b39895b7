"""Every module-level import in the package modules is used, every
function parameter is read, every module-level private name is read
somewhere in the package, a modulus is an int at every public entry
point (FactoredModulus stays inside arith and private helpers), and the
oracles module imports nothing of the fast paths it checks."""

import ast
from pathlib import Path

import pytest

import sievelab

PACKAGE = sorted(Path(sievelab.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unread_parameters(source: str):
    """(line, function, parameter) of each parameter, other than self and
    cls, that its function or lambda body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), p)
                  for p in params if p not in ("self", "cls", *read)]
    return sorted(found)


def unread_private_names(sources):
    """(module, line, name) of each module-level _private name (dunders
    aside) that no module of sources reads, as a name or an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            found += [(mod, node.lineno, name) for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and name not in read]
    return sorted(found)


def factored_modulus_entry_points(source: str):
    """(line, function, parameter) of each parameter of a public module
    function, or a public method of a public class, annotated with
    FactoredModulus."""
    tree = ast.parse(source)
    functions = [(node, node.name) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            functions += [(node, f"{cls.name}.{node.name}") for node in cls.body
                          if isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))]
    found = []
    for node, name in functions:
        if name.split(".")[-1].startswith("_"):
            continue
        a = node.args
        found += [(node.lineno, name, p.arg)
                  for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)
                  if p.annotation is not None
                  and "FactoredModulus" in ast.unparse(p.annotation)]
    return sorted(found)


def factored_modulus_isinstance_calls(source: str):
    """Lines of each isinstance(..., FactoredModulus) call."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "isinstance" and len(n.args) == 2
                  and "FactoredModulus" in ast.unparse(n.args[1]))


#: the modules sievelab.oracles may import, and the arith names it may
#: take; anything else (another sievelab module, importlib, __import__)
#: could route an oracle through a fast path
ORACLE_MODULES = {"__future__", "cmath", "fractions", "functools", "math",
                  "types", "typing", "numpy"}
ORACLE_ARITH_NAMES = {"BudgetExceeded", "DEFAULT_BUDGET", "mod_inverse"}


def oracle_import_violations(source: str):
    """(line, text) of each import anywhere in source, module-level or
    nested, outside ORACLE_MODULES and `from .arith import` of
    ORACLE_ARITH_NAMES, and of each use of importlib or __import__."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            allowed = all(a.name in ORACLE_MODULES for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            allowed = (node.module in ORACLE_MODULES if node.level == 0
                       else node.level == 1 and node.module == "arith"
                       and {a.name for a in node.names} <= ORACLE_ARITH_NAMES)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            allowed = name not in ("importlib", "__import__", "import_module")
        else:
            continue
        if not allowed:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_checker_finds_an_unused_import():
    src = "import os\nimport sys\nfrom typing import Dict, List\nx: List = sys.argv\n"
    assert unused_imports(src) == [(1, "os"), (3, "Dict")]


def test_checker_finds_an_unread_parameter():
    src = ("class C:\n"
           "    def f(self, a, b, *rest, c=1, **kw):\n"
           "        return a + len(kw)\n"
           "    @classmethod\n"
           "    def g(cls, d):\n"
           "        return lambda e, f: f * d\n")
    assert unread_parameters(src) == [(2, "f", "b"), (2, "f", "c"),
                                      (2, "f", "rest"), (6, "<lambda>", "e")]


def test_checker_finds_a_factored_modulus_entry_point():
    src = ("def f(m: int, r: int | FactoredModulus):\n"
           "    n = r.n if isinstance(r, FactoredModulus) else r\n"
           "    return isinstance(m, (int, arith.FactoredModulus))\n"
           "def _g(fm: FactoredModulus):\n"
           "    return fm\n"
           "class C:\n"
           "    def h(self, *, fm: 'FactoredModulus', k: int):\n"
           "        return fm, k\n"
           "    def _i(self, fm: FactoredModulus):\n"
           "        return fm\n")
    assert factored_modulus_entry_points(src) == [(1, "f", "r"),
                                                  (7, "C.h", "fm")]
    assert factored_modulus_isinstance_calls(src) == [2, 3]


def test_checker_finds_an_unread_private_name():
    sources = {"a": "_A = 1\n_B, _C = 2, 3\n__all__ = []\n"
                    "def _f():\n    return _B\n",
               "b": "import a\n_D: int = a._C\n"}
    assert unread_private_names(sources) == [("a", 1, "_A"), ("a", 4, "_f"),
                                             ("b", 2, "_D")]


def test_checker_finds_an_oracle_import_of_the_fast_paths():
    src = ("from __future__ import annotations\n"
           "import math, numpy as np\n"
           "from typing import Dict\n"
           "from .arith import BudgetExceeded, mod_inverse\n"
           "from .arith import factorize\n"
           "import os\n"
           "from sievelab import sqrtmod\n"
           "def f():\n"
           "    from .sqrtmod import _mod\n"
           "    from . import expsums\n"
           "    return __import__('sievelab.sieve')\n"
           "class C:\n"
           "    import importlib\n"
           "    g = importlib.import_module\n")
    assert oracle_import_violations(src) == [
        (5, "from .arith import factorize"), (6, "import os"),
        (7, "from sievelab import sqrtmod"), (9, "from .sqrtmod import _mod"),
        (10, "from . import expsums"), (11, "__import__"),
        (13, "import importlib"), (14, "importlib"),
        (14, "importlib.import_module")]


def test_oracles_import_no_fast_path():
    """oracles.py reaches the rest of sievelab only through three arith
    names, so no oracle can call the fast path it checks."""
    source = (Path(sievelab.__file__).parent / "oracles.py").read_text()
    assert oracle_import_violations(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_function_parameters_are_read(path):
    assert unread_parameters(path.read_text()) == []


def test_private_names_are_read_in_the_package():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_a_modulus_is_an_int_at_every_public_entry_point():
    """A public function takes r as an int, and only arith tells a
    FactoredModulus from an int: factorize's memo serves every caller
    that needs the factors."""
    for path in PACKAGE:
        source = path.read_text()
        assert factored_modulus_entry_points(source) == [], path.name
        if path.name != "arith.py":
            assert factored_modulus_isinstance_calls(source) == [], path.name
