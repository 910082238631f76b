"""Every name a cselab module imports is used in that module, every name a
module defines at its top level is read by some cselab module or exported
by the package, every optional parameter of a cselab function is passed by
some call, only the quadrature's cell engine imports numpy, and every
module the traced benchmark names exists."""

import ast
import importlib
from pathlib import Path

import pytest

import cselab

SRC = Path(cselab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def unused_imports(source: str):
    """The names bound by import statements that the module never reads,
    other than those of `from __future__ import ...`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from .rationals import exact_param, pair_text as pt\n"
              "def f(t):\n"
              "    return math.pi * exact_param(t)\n")
    assert unused_imports(source) == [(2, "os"), (3, "pt")]


def module_level_names(tree):
    """The names a module's top-level statements define, other than dunders."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for n in (n for t in targets for n in ast.walk(t)):
                if isinstance(n, ast.Name):
                    names[n.id] = node.lineno
    return {n: line for n, line in names.items() if not n.startswith("__")}


def read_names(tree):
    """The names a module reads: loaded names, attributes and from-imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def dead_names(sources, exported):
    """(module, line, name) of each top-level name that no module reads and
    the package does not export; sources maps module names to source."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted((m, line, name) for m, tree in trees.items()
                  for name, line in module_level_names(tree).items()
                  if name not in read and name not in exported)


def test_no_dead_module_level_names():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_names(sources, set(cselab.__all__)) == []


def test_a_dead_name_is_found():
    sources = {"a": "from .b import used\nKEPT = used\nDEAD, (PAIR, _X) = 1, (2, 3)\n"
                    "def f():\n    return _X + b.attr\n",
               "b": "import a\nused = attr = 1\ndef exported():\n    pass\n"}
    assert dead_names(sources, {"exported"}) == [("a", 2, "KEPT"), ("a", 3, "DEAD"),
                                                  ("a", 3, "PAIR"), ("a", 4, "f")]


def call_sites(trees):
    """{callee name: [(positional count, keywords, passes every parameter)]} of
    the calls in trees.  A callee is named by its last attribute, so a call
    of a method counts for every function of that name; a *args or
    **kwargs call passes every parameter."""
    calls = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            every = (any(isinstance(a, ast.Starred) for a in node.args)
                     or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, every))
    return calls


def unpassed_parameters(sources, calling):
    """(module, line, function, parameter) of each parameter with a default,
    of a function in sources (module name -> source), that no call in the
    calling sources passes, by keyword or by position.  A method's positions
    skip self or cls, and a call of a class counts for its __init__ and
    __new__."""
    calls = call_sites(ast.parse(src) for src in calling)
    found = []
    for module, tree in ((m, ast.parse(src)) for m, src in sources.items()):
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            cls = owner.get(id(fn))
            callee = cls.name if cls and fn.name in ("__init__", "__new__") else fn.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            skip = 1 if cls and not static else 0
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            optional = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
            optional += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                         if d is not None]
            for index, param in optional:
                if not any(every or param in kws or (index is not None and n > index)
                           for n, kws, every in calls.get(callee, ())):
                    found.append((module, fn.lineno, fn.name, param))
    return sorted(found)


def test_no_unpassed_optional_parameters():
    calling = [p.read_text() for d in ("src", "tests", "bench", "demos")
               for p in (ROOT / d).rglob("*.py")]
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unpassed_parameters(sources, calling) == []


def test_an_unpassed_parameter_is_found():
    source = ("class C:\n"
              "    def __init__(self, a, b=1):\n        pass\n"
              "    def m(self, x=0, *, y=2):\n        pass\n"
              "    @staticmethod\n    def s(u=0):\n        pass\n"
              "def f(p, q=1, r=2):\n    pass\n"
              "def g(w=1):\n    pass\n")
    calls = "C(1, 2)\nC(0).m(y=3)\nC.s(0)\nf(1, r=3)\ng(*args)\n"
    assert unpassed_parameters({"a": source}, [source, calls]) == [
        ("a", 4, "m", "x"), ("a", 9, "f", "q")]


# the functions of cselab.quadrature that run cells, the only numpy users
CELL_ENGINE = {"_base_fn", "_axis_arrays", "_cell_rule", "_initial_grid",
               "_adaptive_polar", "_split_cells"}


def numpy_imports(source):
    """(line, top-level definition or None) of each import of numpy in source."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append((node.lineno, owner))
    return found


def test_only_the_cell_engine_imports_numpy():
    found = [(p.stem, line, owner) for p in SRC.glob("*.py")
             for line, owner in numpy_imports(p.read_text())
             if not (p.stem == "quadrature" and owner in CELL_ENGINE)]
    assert found == []


def test_a_numpy_import_is_found():
    source = ("import numpy as np\n"
              "def f():\n    from numpy.linalg import norm\n"
              "class C:\n    def m(self):\n        import math, numpy\n")
    assert numpy_imports(source) == [(1, None), (3, "f"), (6, "C")]


def traced_modules():
    """bench/tracing.py's MODULES, read from its source, so no benchmark code runs."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets)]
    return ast.literal_eval(value)


@pytest.mark.parametrize("module", traced_modules())
def test_every_traced_module_imports(module):
    """The traced benchmark imports each of these cselab modules by name."""
    assert (SRC / f"{module}.py").is_file()
    importlib.import_module(f"cselab.{module}")


def constructor_calls(source, name):
    """(line, enclosing top-level definition or None) of each call of name in source."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        found += [(node.lineno, owner) for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    return found


def test_only_mass_report_builds_an_integral_report():
    """IntegralReport's converged and divergent are read off its flags, so
    every report is built by one function, quadrature._mass_report."""
    found = [(p.stem, owner) for p in SRC.glob("*.py")
             for _, owner in constructor_calls(p.read_text(), "IntegralReport")]
    assert found == [("quadrature", "_mass_report")]


def test_a_constructor_call_is_found():
    source = ("r = IntegralReport(1)\n"
              "def f():\n    return q.IntegralReport(2)\n"
              "class C:\n    def m(self):\n"
              "        return [IntegralReport] + g(IntegralReport(3))\n")
    assert constructor_calls(source, "IntegralReport") == [(1, None), (3, "f"), (6, "C")]
