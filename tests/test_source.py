"""Static checks on the package source."""

import ast
import pathlib
import re

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "expnet"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SOURCE.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names bound by the module's top-level imports and never read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import json\nimport os.path\nfrom a import b, c as d\nprint(b, os)\n")
    assert unused_imports(tree) == [(1, "json"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == [], f"{path.name}: unused imports (line, name)"


def checked_definitions(tree: ast.Module) -> dict:
    """The names a module binds at its top level by a definition or an
    assignment, ``__dunder__`` names aside, with their lines. Methods are
    left out: a name check cannot tell a dead method from a live one of
    the same name on another class."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not re.fullmatch(r"__.*__", name):
                found[name] = node.lineno
    return found


def read_names(tree: ast.Module) -> set:
    """Names a module reads: loaded names, attributes, and the names it
    imports from another module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_names(sources: dict) -> list:
    """(module, line, name) of each checked definition in ``sources``
    (module name -> text) that no module reads; a name the package
    ``__init__`` imports, to export it, counts as read."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in checked_definitions(tree).items()
        if name not in read
    )


def test_the_check_sees_a_dead_name():
    sources = {
        "a": "_used = 1\n_dead = 2\nLIMIT = 3\nSPARE, _pair = 4, 5\n"
        "def _f():\n    return _used\nclass _C:\n    pass\n__version__ = '1'\n",
        "b": "from .a import LIMIT\nimport a\nprint(a._f, a._pair)\n",
    }
    assert dead_names(sources) == [("a", 2, "_dead"), ("a", 4, "SPARE"), ("a", 7, "_C")]


def test_the_check_sees_a_dead_public_name():
    sources = {
        "a": "def used():\n    pass\ndef exported():\n    pass\ndef spare():\n    pass\n"
        "class Spare:\n    def unread(self):\n        pass\nlimit = used\n",
        "__init__": "from .a import exported\n",
        "b": "from . import a\na.used()\n",
    }
    # methods are out of scope: Spare.unread is not reported
    assert dead_names(sources) == [("a", 5, "spare"), ("a", 7, "Spare"), ("a", 10, "limit")]


def test_no_dead_module_level_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert dead_names(sources) == [], "defined but never read (module, line, name)"


def lapack_lookups(tree: ast.Module) -> list:
    """Lines that name ``get_lapack_funcs``, as a name, an attribute or an
    imported name."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "get_lapack_funcs":
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "get_lapack_funcs":
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "get_lapack_funcs" for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def nodes_outside(tree: ast.Module, function=None):
    """The nodes of ``tree`` but those of the function named ``function``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == function:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def isfinite_uses(tree: ast.Module, allowed=None) -> list:
    """Lines that name numpy's ``isfinite`` (an ``isfinite`` attribute of
    anything but ``math``, or the name imported from numpy), outside the
    function named ``allowed``."""
    lines = set()
    for node in nodes_outside(tree, allowed):
        if isinstance(node, ast.Attribute) and node.attr == "isfinite":
            if not (isinstance(node.value, ast.Name) and node.value.id == "math"):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if any(alias.name == "isfinite" for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


JSON_READERS = {"json": ("load", "loads"), "orjson": ("loads",)}


def json_reader_uses(tree: ast.Module, allowed=None) -> list:
    """Lines that name a JSON reader of ``JSON_READERS`` (an attribute of
    its module, or the name imported from it), outside the function named
    ``allowed``."""
    lines = set()
    for node in nodes_outside(tree, allowed):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in JSON_READERS.get(node.value.id, ()):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in JSON_READERS:
            if any(alias.name in JSON_READERS[node.module] for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def imports_of(nodes, package: str) -> list:
    """Lines among ``nodes`` that import ``package`` (a dotted name), one
    of its submodules, or a name from them."""
    parent, _, leaf = package.rpartition(".")

    def inside(module: str) -> bool:
        return module == package or module.startswith(package + ".")

    lines = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            if any(inside(alias.name) for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            from_parent = node.module == parent and any(a.name == leaf for a in node.names)
            if from_parent or inside(node.module):
                lines.add(node.lineno)
    return sorted(lines)


def scipy_linalg_imports(tree: ast.Module) -> list:
    """Lines that import ``scipy.linalg``, one of its submodules, or a name
    from them."""
    return imports_of(ast.walk(tree), "scipy.linalg")


def import_time_nodes(tree: ast.Module):
    """The nodes that run when the module is imported: all but the bodies
    of functions and lambdas."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


def import_time_special_imports(tree: ast.Module) -> list:
    """Lines that import ``scipy.special``, or a name from it, when the
    module is imported."""
    return imports_of(import_time_nodes(tree), "scipy.special")


def test_the_checks_see_a_second_lu():
    tree = ast.parse(
        "import scipy.linalg\nfrom scipy.linalg import lu_factor\nfrom scipy import linalg\n"
        "from scipy.linalg.lapack import get_lapack_funcs\n"
        "scipy.linalg.get_lapack_funcs(('getrf',))\nimport scipy.special\n"
        "from scipy import special\nimport numpy.linalg\n"
    )
    assert scipy_linalg_imports(tree) == [1, 2, 3, 4]
    assert lapack_lookups(tree) == [4, 5]


def test_the_check_sees_an_import_time_special():
    tree = ast.parse(
        "import scipy.special\nfrom scipy import linalg, special\n"
        "from scipy.special import expit\nimport scipy.special.cython_special as cs\n"
        "import scipy.linalg\nfrom scipy import specialty\n"
        "try:\n    import scipy.special as sp\nexcept ImportError:\n    pass\n"
        "class C:\n    from scipy.special import logit\n"
        "def f():\n    from scipy.special import expit\n    return expit\n"
    )
    assert import_time_special_imports(tree) == [1, 2, 3, 4, 8, 12]


# a fresh ``import expnet`` does not load scipy.special: only the sigmoid
# needs it, and imports it on its first call
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_scipy_special_is_not_imported_with_the_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert import_time_special_imports(tree) == [], f"{path.name}: scipy.special (lines)"


# one LU implementation: the LAPACK handles are looked up in linalg alone,
# and the descent reaches LU only through linalg
@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_lapack_handles_are_looked_up_in_linalg_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert lapack_lookups(tree) == [], f"{path.name}: get_lapack_funcs (lines)"


def test_the_check_sees_an_orjson_import():
    tree = ast.parse(
        "import orjson\nimport orjson as fast\nfrom orjson import dumps\n"
        "import json\nimport orjsonx\ndef f():\n    import orjson\n"
    )
    assert imports_of(ast.walk(tree), "orjson") == [1, 2, 3, 7]


# one encoder choice: the matrix and weights files go through linalg's
# orjson writer, and every other module writes with the stdlib
@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_orjson_is_imported_in_linalg_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert imports_of(ast.walk(tree), "orjson") == [], f"{path.name}: orjson imports (lines)"


def test_the_check_sees_a_second_json_reader():
    tree = ast.parse(
        "import json\nimport orjson\nfrom json import loads\n"
        "def load_decoded(text):\n    return orjson.loads(text) or json.loads(text)\n"
        "def f(text):\n    return json.loads(text)\n"
        "g = lambda t: orjson.loads(t)\nh = json.load\nfrom orjson import dumps, loads\n"
        "i = json.dumps\nj = orjson.load\n"
    )
    assert json_reader_uses(tree, "load_decoded") == [3, 7, 8, 9, 10]
    assert json_reader_uses(tree) == [3, 5, 7, 8, 9, 10]


# one reader: matrix and weights files are parsed in linalg.load_decoded
# alone, so none bypasses its orjson path, its fallback or its memo
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_json_is_read_in_load_decoded_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = "load_decoded" if path.name == "linalg.py" else None
    assert json_reader_uses(tree, allowed) == [], f"{path.name}: json readers (lines)"


def test_the_check_sees_a_second_finite_test():
    tree = ast.parse(
        "import math\nimport numpy\nfrom numpy import isfinite\n"
        "def require_finite(a):\n    return numpy.isfinite(a).all()\n"
        "def f(a, x):\n    return np.isfinite(a).all() and math.isfinite(x)\n"
        "g = lambda a: isfinite(a)\nh = numpy.core.umath.isfinite\n"
    )
    assert isfinite_uses(tree, "require_finite") == [3, 7, 9]
    assert isfinite_uses(tree) == [3, 5, 7, 9]


# one finiteness rule: numpy's isfinite runs in linalg.require_finite alone,
# and every other array check calls that function
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_isfinite_is_called_in_require_finite_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = "require_finite" if path.name == "linalg.py" else None
    assert isfinite_uses(tree, allowed) == [], f"{path.name}: np.isfinite (lines)"


COLLECTOR_SWITCHES = ("disable", "enable", "isenabled")


def collector_switch_uses(tree: ast.Module, allowed=None) -> list:
    """Lines that name a switch of ``COLLECTOR_SWITCHES`` (an attribute of
    ``gc``, or the name imported from it), outside the function named
    ``allowed``."""
    lines = set()
    for node in nodes_outside(tree, allowed):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "gc" and node.attr in COLLECTOR_SWITCHES:
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            if any(alias.name in COLLECTOR_SWITCHES for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_second_collector_switch():
    tree = ast.parse(
        "import gc\nfrom gc import disable\n"
        "def _codec():\n    on = gc.isenabled()\n    gc.disable()\n    gc.enable()\n"
        "def f():\n    gc.disable()\n"
        "g = lambda: gc.isenabled()\nh = gc.enable\nfrom gc import collect, enable\n"
        "i = gc.collect()\nj = other.disable()\n"
    )
    assert collector_switch_uses(tree, "_codec") == [2, 8, 9, 10, 11]
    assert collector_switch_uses(tree) == [2, 4, 5, 6, 8, 9, 10, 11]


# one collector pause: the collector is switched in linalg._codec alone,
# under the codec's lock, so no other switch can race its restore
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_collector_is_switched_in_codec_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = "_codec" if path.name == "linalg.py" else None
    found = collector_switch_uses(tree, allowed)
    assert found == [], f"{path.name}: gc switches (lines)"


def test_experiment_imports_nothing_from_scipy_linalg():
    path = SOURCE / "experiment.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert scipy_linalg_imports(tree) == [], "experiment.py: scipy.linalg imports (lines)"


def calls_of(tree: ast.Module, names, allowed=None) -> list:
    """Lines that call a function or class named in ``names``, by its name
    or as an attribute of anything, outside the function named
    ``allowed``."""
    lines = set()
    for node in nodes_outside(tree, allowed):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                lines.add(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_second_singular_refusal():
    tree = ast.parse(
        "from .errors import NearSingularError\nimport expnet\n"
        "def require_nonsingular(rcond):\n    raise NearSingularError('x', rcond)\n"
        "def f(rcond):\n    raise NearSingularError('x', rcond)\n"
        "g = lambda: expnet.errors.NearSingularError('x', 0.0)\n"
        "h = NearSingularError\nk = isinstance(g, NearSingularError)\n"
    )
    assert calls_of(tree, {"NearSingularError"}, "require_nonsingular") == [6, 7]
    assert calls_of(tree, {"NearSingularError"}) == [4, 6, 7]


# one singularity rule: every NearSingularError comes from
# linalg.require_nonsingular, which compares an rcond with a floor
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_near_singular_error_is_raised_in_require_nonsingular_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = "require_nonsingular" if path.name == "linalg.py" else None
    found = calls_of(tree, {"NearSingularError"}, allowed)
    assert found == [], f"{path.name}: NearSingularError constructed (lines)"


def test_the_check_sees_an_lu_call():
    tree = ast.parse(
        "from .linalg import lu_factor\nfrom . import linalg\n"
        "def logm(a):\n    return lu_factor(a).rcond\n"
        "def f(a):\n    return linalg._lu_factor(a)\nlu = lu_factor\n"
    )
    assert calls_of(tree, {"lu_factor", "_lu_factor"}) == [4, 6]


# logm tests for singularity on its Schur factor, so the matrix functions
# make no LU
def test_matfuncs_makes_no_lu():
    path = SOURCE / "matfuncs.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert calls_of(tree, {"lu_factor", "_lu_factor"}) == [], "matfuncs.py: LU calls (lines)"
