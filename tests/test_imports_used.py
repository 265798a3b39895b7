"""Every module-level import in the package modules is used, every
function parameter is read, every module-level private name is read
somewhere in the package, a modulus is an int at every public entry
point (FactoredModulus stays inside arith and private helpers), the
charsums, expsums and sieve exports read their integer arguments as
ints where they enter, and the oracles module imports nothing of the
fast paths it checks."""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sievelab
from sievelab import (ApproxFrame, PxQuery, RationalFunctionModP, S4Input,
                      SieveInstance, TrigWeight, build_frame,
                      cubic_form_charsum, dirichlet_approx, gcal_bound,
                      ls_bound_table, ls_lhs, propmain_bounds, px_count,
                      px_monitor, rational_expsum, s4_closed, s4_direct,
                      weighted_energy)
from sievelab.charsums import s4_closed_rows

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
ORACLE_ARITH_NAMES = {"BudgetExceeded", "DEFAULT_BUDGET"}


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
        (4, "from .arith import BudgetExceeded, mod_inverse"),
        (5, "from .arith import factorize"), (6, "import os"),
        (7, "from sievelab import sqrtmod"), (9, "from .sqrtmod import _mod"),
        (10, "from . import expsums"), (11, "__import__"),
        (13, "import importlib"), (14, "importlib"),
        (14, "importlib.import_module")]


def test_oracles_import_no_fast_path():
    """oracles.py reaches the rest of sievelab only through two arith
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


def sieve_instance(M, Q):
    """An instance's integer fields and its left-hand side."""
    inst = SieveInstance(M, np.ones(8), Q)
    return inst.M, inst.Q, ls_lhs(inst)


#: (callable, int arguments) of the exports that read their integers
#: through arith._as_int where they enter; a constructor's case returns
#: the object, so its fields are checked too
EXPORT_CALLS = [
    (lambda j, h1, h2, h3, h4, r: S4Input(j, [h1, h2, h3, h4], r),
     (1, 1, 2, 3, 4, 13)),
    (lambda j, r: s4_closed(S4Input(j, (1, 2, 3, 4), r)), (1, 13)),
    (lambda j, r: s4_direct(S4Input(j, (0, 1, 5, 7), r)), (2, 13)),
    (lambda j, r: list(s4_closed_rows(j, r, [(1, 2, 3, 4), (0, 1, 5, 7)])),
     (2, 13)),
    (lambda R, j, r: weighted_energy(R, j, r, TrigWeight.fejer(2)), (3, 1, 13)),
    (lambda M, r: cubic_form_charsum(M, r, TrigWeight.fejer(2)), (1, 13)),
    (TrigWeight.fejer, (3,)),
    (lambda p: RationalFunctionModP((0, 1), (1,), p), (13,)),
    (lambda p: rational_expsum(RationalFunctionModP((0, 1), (1,), p)), (13,)),
    (gcal_bound, (9, 1, 2, 3, 4)),
    (sieve_instance, (0, 3)),
    (lambda Q: PxQuery(Fraction(1, 3), Q, Fraction(1, 64)), (8,)),
    (lambda Q: px_count(PxQuery(Fraction(1, 3), Q, Fraction(1, 64))), (8,)),
    (lambda N: build_frame(Fraction(1, 3), N), (512,)),
    (lambda tau: dirichlet_approx(Fraction(2, 7), tau), (8,)),
    (lambda N, b, r: ApproxFrame(Fraction(1, 3), N, b, r, Fraction(0)),
     (64, 1, 3)),
    (ls_bound_table, (4, 64)),
    (lambda Q, N: px_monitor(Fraction(1, 3), Q, N), (8, 512)),
    (lambda Q, r: propmain_bounds(Q, 0.01, r), (4, 3))]


def leaves(value):
    """Every scalar inside value: a dict's values, a sequence's items and
    a dataclass's fields, recursively."""
    if isinstance(value, dict):
        value = list(value.values())
    elif dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in leaves(item)]
    return [value]


def test_exports_read_integer_arguments_as_ints():
    # numpy integers and bools, where they hold the value, give the int
    # call's result bit for bit, and no numpy scalar reaches the result or
    # a constructed object's fields (an np.int64 modulus reached a
    # three-argument pow or int.bit_length, or was copied into the
    # result); a float raises TypeError
    for function, args in EXPORT_CALLS:
        want = function(*args)
        for kind in (np.int32, np.int64, bool):
            got = function(*(kind(a) if kind is not bool or a in (0, 1) else a
                             for a in args))
            assert got == want, (function, args, kind)
            assert not any(isinstance(leaf, np.generic)
                           for leaf in leaves(got)), (function, args, kind)
        for i in range(len(args)):
            floats = list(args)
            floats[i] = float(args[i])
            with pytest.raises(TypeError):
                function(*floats)
