"""Source scans: every settable value of the package is set by some caller,
no module of the package calls a dense test oracle, and importing the CLI
loads none of the scipy submodules that only some commands use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fracnls

PACKAGE = Path(fracnls.__file__).parent
ROOT = PACKAGE.parents[1]
CALLER_DIRS = ("src", "tests", "perfbench")


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, callee name, parameter, call-argument position or None) per defaulted parameter.

    A method's position skips its first parameter; `__init__` is called
    through its class name.
    """
    owner = {}  # id of a method's def node -> its class
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner[id(item)] = node
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        skip = 1 if cls is not None and not static else 0
        qualname = node.name if cls is None else f"{cls.name}.{node.name}"
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i in range(first, len(positional)):
            yield qualname, name, positional[i].arg, i - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualname, name, arg.arg, None


def _settings(trees):
    """callee name -> (keywords set, most positional arguments, whether a ** call sets all)."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            keywords, most, everything = found.setdefault(name, (set(), 0, False))
            keywords.update(kw.arg for kw in node.keywords if kw.arg is not None)
            if any(isinstance(a, ast.Starred) for a in node.args):
                most = float("inf")
            found[name] = (
                keywords,
                max(most, len(node.args)),
                everything or any(kw.arg is None for kw in node.keywords),
            )
    return found


def dead_knobs() -> list:
    """Defaulted parameters of src/fracnls/*.py that no call in src/, tests/ or perfbench/ sets."""
    trees = [
        ast.parse(path.read_text())
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    calls = _settings(trees)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, param, position in _defaulted_parameters(ast.parse(path.read_text())):
            keywords, most, everything = calls.get(name, (set(), 0, False))
            if everything or param in keywords or (position is not None and position < most):
                continue
            dead.append(f"{path.stem}.{qualname}({param})")
    return dead


def test_every_defaulted_parameter_is_set_somewhere():
    # a default that no caller overrides is a constant: write it as one
    assert dead_knobs() == []


def test_scan_sees_keyword_positional_and_class_calls():
    source = ast.parse(
        "class K:\n"
        "    def __init__(self, a, b=1):\n"
        "        pass\n"
        "    def m(self, c=2, *, d=3):\n"
        "        pass\n"
        "def f(x, y=0, z=0):\n"
        "    pass\n"
    )
    params = sorted(_defaulted_parameters(source))
    assert params == [
        ("K.__init__", "K", "b", 1), ("K.m", "m", "c", 0), ("K.m", "m", "d", None),
        ("f", "f", "y", 1), ("f", "f", "z", 2),
    ]
    calls = _settings([ast.parse("K(1, 2)\nf(1, z=3)\nobj.m(**opts)\n")])
    assert calls["K"] == (set(), 2, False)
    assert calls["f"] == ({"z"}, 1, False)
    assert calls["m"][2]


def _dense_calls(tree: ast.Module) -> list:
    """Line numbers of the `.dense(` calls in a module."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dense"
    ]


def test_no_module_calls_a_dense_oracle():
    # the dense matrices are test oracles; the package runs matrix-free
    calls = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _dense_calls(ast.parse(path.read_text()))
    ]
    assert calls == []


def test_dense_scan_sees_method_calls_only():
    source = ast.parse("def dense(self):\n    pass\nm = op.dense()\nf = op.dense\nn = f()\n")
    assert _dense_calls(source) == [3]


# loaded by the functions that use them, never at import
LAZY_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.sparse")


def _is_under(name: str, packages) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def _import_time_imports(tree: ast.Module) -> list:
    """(line, dotted name) of the imports that run when a module is imported.

    Function bodies are skipped; class bodies and conditional blocks run at
    import and are scanned.  `from a import b` gives "a.b".
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.extend((child.lineno, f"{child.module}.{alias.name}") for alias in child.names)
            visit(child)

    visit(tree)
    return found


def test_no_module_imports_a_lazy_scipy_submodule_at_import():
    # commands that never integrate, interpolate or solve a linear system
    # should not pay for loading the code that does
    hits = [
        f"{path.stem}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _import_time_imports(ast.parse(path.read_text()))
        if _is_under(name, LAZY_SCIPY)
    ]
    assert hits == []


def test_import_scan_skips_function_bodies_only():
    source = ast.parse(
        "import scipy.fft\n"
        "from scipy.sparse.linalg import minres\n"
        "from scipy import linalg\n"
        "def f():\n"
        "    from scipy.integrate import quad\n"
        "class K:\n"
        "    import scipy.interpolate\n"
        "    def m(self):\n"
        "        import scipy.linalg\n"
        "if True:\n"
        "    import scipy.sparse\n"
    )
    names = _import_time_imports(source)
    assert names == [
        (1, "scipy.fft"), (2, "scipy.sparse.linalg.minres"), (3, "scipy.linalg"),
        (7, "scipy.interpolate"), (11, "scipy.sparse"),
    ]
    assert [_is_under(n, LAZY_SCIPY) for _, n in names] == [False, True, True, True, True]


def _lazy_modules_loaded_by(statement: str) -> list:
    """The lazy scipy submodules, and scipy.optimize, in sys.modules after running `statement` afresh."""
    probe = f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return [name for name in out.split() if _is_under(name, LAZY_SCIPY + ("scipy.optimize",))]


def test_cli_import_loads_no_lazy_scipy_submodule():
    assert _lazy_modules_loaded_by("import fracnls.cli") == []


def test_module_probe_sees_a_loaded_submodule():
    loaded = _lazy_modules_loaded_by("import scipy.interpolate")
    assert "scipy.interpolate" in loaded and "scipy.linalg" in loaded
