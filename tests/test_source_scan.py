"""Source scans: every settable value of the package is set by some call
in the package or the benchmark, not by tests alone; every function, class
and method of the package is reachable by name from the CLI's entry point
unless it is a listed exception, so no command path names a dense test
oracle; no module of the package imports another module's private name;
only the QUADPACK oracle that the benchmark's tracer wraps imports scipy;
and neither importing the CLI nor running any command with one worker
loads a scipy module or the worker pool's packages."""

import ast
from pathlib import Path

import pytest

import fracnls
from conftest import fresh_interpreter

PACKAGE = Path(fracnls.__file__).parent
ROOT = PACKAGE.parents[1]


def _name(node) -> str | None:
    """The name a call or decorator expression ends in: `f` for `f` and `m.f`."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list)


def _field_has_default(value) -> bool:
    """Whether a dataclass field's assigned value is a default; `field(...)` only with `default(_factory)`."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, callee name, parameter, call-argument position or None) per defaulted parameter.

    A method's position skips its first parameter; `__init__` is called
    through its class name, and so is a `@dataclass`, whose fields are its
    parameters in their order.
    """
    owner = {}  # id of a method's def node -> its class
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner[id(item)] = node
            if _is_dataclass(node):
                annotated = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                for position, item in enumerate(annotated):
                    if _field_has_default(item.value):
                        yield node.name, node.name, item.target.id, position
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


def _foreign_names(tree: ast.Module) -> set:
    """The names a module binds to modules outside fracnls and to their members: `np` for `import numpy as np`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((a.asname or a.name).split(".")[0] for a in node.names if a.name.split(".")[0] != "fracnls")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] != "fracnls":
            found.update(a.asname or a.name for a in node.names)
    return found


def _root(node) -> str | None:
    """The name an attribute chain starts from: `np` for `np.fft.fft`; None for a call on another expression."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _settings(trees):
    """callee name -> (keywords set, most positional arguments, whether a ** call sets all).

    A call through a name its module binds outside fracnls (`np.fft.fft`)
    sets nothing of the package's namesake (`spectral.fft`).
    """
    found = {}
    for tree in trees:
        foreign = _foreign_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            if name is None or _root(node.func) in foreign:
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


def dead_knobs(caller_dirs) -> list:
    """Defaulted parameters of src/fracnls/*.py that no call in the `caller_dirs` of the repo sets."""
    trees = [
        ast.parse(path.read_text())
        for folder in caller_dirs
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


def test_no_defaulted_parameter_is_set_by_tests_alone():
    # a knob that only tests turn, or that no call turns, is a constant: make it a module constant
    assert dead_knobs(("src", "perfbench")) == []


def test_scan_sees_keyword_positional_and_class_calls():
    source = ast.parse(
        "class K:\n"
        "    def __init__(self, a, b=1):\n"
        "        pass\n"
        "    def m(self, c=2, *, d=3):\n"
        "        pass\n"
        "def f(x, y=0, z=0):\n"
        "    pass\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class D:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(repr=False)\n"
        "    e: int = dataclasses.field(default=0, repr=False)\n"
    )
    params = sorted(_defaulted_parameters(source))
    assert params == [
        ("D", "D", "b", 1), ("D", "D", "c", 2), ("D", "D", "e", 4),
        ("K.__init__", "K", "b", 1), ("K.m", "m", "c", 0), ("K.m", "m", "d", None),
        ("f", "f", "y", 1), ("f", "f", "z", 2),
    ]
    calls = _settings([ast.parse(
        "import numpy as np\nK(1, 2)\nf(1, z=3)\nobj.m(**opts)\nD(1, 2, d=3)\nnp.fft.f(1, 2, y=4)\n"
    )])
    assert calls["K"] == (set(), 2, False)
    assert calls["D"] == ({"d"}, 2, False)
    assert calls["f"] == ({"z"}, 1, False)
    assert calls["m"][2]


def _definitions(modules: dict):
    """(qualified name, name, qualified name of the owning class or None, node) per function, class and method."""
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{stem}.{node.name}", node.name, None, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{stem}.{node.name}.{item.name}", item.name, f"{stem}.{node.name}", item


def _referenced(nodes) -> set:
    """The names and attribute names that the expressions and statements `nodes` mention."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _runs_with(node) -> list:
    """What runs once a definition is reached: a function's decorators, defaults and body; a
    class's decorators, bases and the statements of its body other than methods.  Annotations do not run."""
    if isinstance(node, ast.ClassDef):
        body = [item.value if isinstance(item, ast.AnnAssign) else item for item in node.body
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        return node.decorator_list + node.bases + [item for item in body if item is not None]
    defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
    return node.decorator_list + defaults + node.body


def unreachable(modules: dict, root: str) -> list:
    """Qualified names of the definitions in `modules` (stem -> tree) that `root` cannot reach by name.

    A reached definition reaches every module-level function or class
    whose name its code mentions, and every method of a reached class whose
    name it mentions, as a call or as an attribute.  A reached class also
    reaches its dunder methods, which Python calls for it.  A module-level
    assignment is reached with the name it binds; the other module-level
    statements run at import and are reached from the start.
    """
    defs = list(_definitions(modules))
    bound, names = {}, set()
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in _referenced(targets) if node.value is not None else ():
                    bound.setdefault(name, []).append(node.value)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                names |= _referenced([node])
    reached, assigned = {root}, set()
    names |= _referenced(_runs_with(next(node for qual, _, _, node in defs if qual == root)))
    grew = True
    while grew:
        grew = False
        for qual, name, owner, node in defs:
            if qual in reached:
                continue
            dunder = name.startswith("__") and name.endswith("__")
            if owner is None and name not in names:
                continue
            if owner is not None and not (owner in reached and (dunder or name in names)):
                continue
            reached.add(qual)
            names |= _referenced(_runs_with(node))
            grew = True
        for name in sorted(names & bound.keys() - assigned):
            assigned.add(name)
            names |= _referenced(bound[name])
            grew = True
    return sorted(qual for qual, *_ in defs if qual not in reached)


# package definitions that no command reaches, each kept on purpose
UNREACHED = {
    "cli._Parser.error": "argparse calls it on a bad command line",
    "linearized.LinearizedOperator.dense": "a test oracle the benchmark's tracer wraps in the package",
    "symbols._laplace_quad": "a test oracle the benchmark's tracer wraps in the package",
}


def test_every_package_definition_is_reachable_from_the_cli():
    # what only tests read belongs with the tests (tests/oracles.py, tests/drift.py)
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert unreachable(modules, "cli.main") == sorted(UNREACHED)


def test_reachability_scan_sees_methods_dunders_and_module_tables():
    package = {
        "app": ast.parse(
            "import lib\n"
            "TABLE = {'run': lib.staged}\n"
            "def main():\n"
            "    obj = lib.K(TABLE)\n"
            "    obj.method()\n"
            "def unused():\n"
            "    lib.only_tested()\n"
            "if __name__ == '__main__':\n"
            "    lib.at_import()\n"
        ),
        "lib": ast.parse(
            "def via_method(): pass\n"
            "def via_dunder(): pass\n"
            "def staged(): pass\n"
            "def at_import(): pass\n"
            "def only_tested(): pass\n"
            "class Hint: pass\n"
            "class K:\n"
            "    def __init__(self, table: Hint): via_dunder()\n"
            "    def method(self) -> Hint: via_method()\n"
            "    def other(self): pass\n"
            "class Unused:\n"
            "    def method(self): pass\n"
        ),
    }
    # only_tested is named by tests alone (and by unreached code): the scan reads the package only
    assert unreachable(package, "app.main") == [
        "app.unused", "lib.Hint", "lib.K.other", "lib.Unused", "lib.Unused.method", "lib.only_tested",
    ]


def _private_imports(tree: ast.Module) -> list:
    """(line, "module.name") of the underscore names imported from the package.

    Relative and `fracnls.` imports count, in function bodies too; dunder
    names such as `__version__` do not.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "fracnls":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, f"{module}.{name}"))
    return sorted(found)


def test_no_module_imports_a_private_name_of_another():
    # an underscore name belongs to its module; a name that two modules share is public
    hits = [
        f"{path.stem}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _private_imports(ast.parse(path.read_text()))
    ]
    assert hits == []


def test_private_import_scan_sees_package_imports_only():
    source = ast.parse(
        "from .linearized import _stack, bordered_solve\n"
        "from . import __version__\n"
        "from fracnls.symbols import _laplace_quad\n"
        "from numpy import _core\n"
        "def f():\n"
        "    from ..spectral import _MAGIC\n"
    )
    assert _private_imports(source) == [
        (1, ".linearized._stack"), (3, "fracnls.symbols._laplace_quad"), (6, "..spectral._MAGIC"),
    ]


def _scipy_imports(tree: ast.Module) -> list:
    """(enclosing function or None, dotted name) of every scipy import in a module, at any depth."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            found.extend((function, name) for name in names if name.split(".")[0] == "scipy")
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_quadpack_oracle_imports_scipy():
    # symbols._laplace_quad, the QUADPACK oracle the benchmark's tracer
    # wraps in the package, loads scipy.integrate when called; no other
    # package code names scipy, so no command path can load it again
    hits = [
        (path.stem, function, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, name in _scipy_imports(ast.parse(path.read_text()))
    ]
    assert hits == [("symbols", "_laplace_quad", "scipy.integrate.IntegrationWarning"),
                    ("symbols", "_laplace_quad", "scipy.integrate.quad")]


def test_scipy_import_scan_sees_every_depth():
    source = ast.parse(
        "import scipy\n"
        "from numpy import fft\n"
        "def f():\n"
        "    if True:\n"
        "        from scipy.linalg import eigh\n"
        "class K:\n"
        "    def m(self):\n"
        "        import scipy.sparse, os\n"
    )
    assert _scipy_imports(source) == [(None, "scipy"), ("f", "scipy.linalg.eigh"), ("m", "scipy.sparse")]


# what a run at --workers 1 never needs: SciPy, and the packages of the worker pool that --workers > 1 starts
_UNNEEDED = ("scipy", "multiprocessing", "concurrent")


def _modules_loaded_by(statement: str) -> list:
    """The modules under _UNNEEDED in sys.modules after running `statement` in a fresh interpreter."""
    out = fresh_interpreter(f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))")
    return [name for name in out.splitlines()[-1].split() if name.split(".")[0] in _UNNEEDED]


def test_module_probe_sees_a_loaded_submodule():
    loaded = _modules_loaded_by("import scipy.interpolate\nimport concurrent.futures.process")
    assert "scipy.interpolate" in loaded and "scipy.linalg" in loaded
    assert "concurrent.futures.process" in loaded and "multiprocessing" in loaded


_SMALL_GRID = ("--n-list", "0.1", "--grid-l", "32", "--grid-m", "256")


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ("solve", *_SMALL_GRID),
        ("verify-th2", *_SMALL_GRID),
        ("verify-th3", *_SMALL_GRID, "--inits", "2"),
        ("kernel", "--n-list", "0.1"),
        ("gn-constant", "--grid-l", "32", "--grid-m", "256"),
        ("linearize", "--n-list", "0.1", "--grid-l", "64", "--grid-m", "512"),
        ("verify-th4", "--n-list", "0.1", "--grid-l", "64", "--grid-m", "1024"),
    ],
    ids=["import", "solve", "verify-th2", "verify-th3", "kernel", "gn-constant", "linearize", "verify-th4"],
)
def test_command_loads_only_its_scipy_subpackages(tmp_path, argv):
    # a cold run with one worker in a fresh interpreter, which imports the CLI
    # first (argv None: the import alone); neither loads a scipy module nor the
    # worker pool's packages
    statement = "import fracnls.cli"
    if argv is not None:
        argv = [*argv, "--workers", "1", "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")]
        statement = f"from fracnls.cli import main\nassert main({argv!r}) in (0, 1)"
    assert _modules_loaded_by(statement) == []
