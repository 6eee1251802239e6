"""Every import in the package and the tests is used, and so is every
top-level name the package defines and every parameter of its functions.

A standard-library stand-in for a linter's unused-import rule: a name
bound by an import must be read somewhere in the same module, as a name,
as the root of an attribute chain or inside a string annotation. A
top-level function, class or assigned name of the package must be read
somewhere in src, bench or tests: loaded as a name, read as an attribute
or imported. It must also be read in src outside its own definition,
unless UNREAD_IN_PACKAGE names it with a reason. A parameter of a package
function must be loaded in its body, unless UNREAD_PARAMETERS names it
with a reason. No package module reads another module's private
(single-underscore) name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gridpose").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = [p for d in ("src", "bench", "tests") for p in sorted((ROOT / d).rglob("*.py"))]


def _parameters(args: ast.arguments) -> list[ast.arg]:
    return [arg for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if arg is not None]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            for arg in _parameters(node.args):
                yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\ndef f() -> 'c': pass\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _defines(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def defined_names(source: str) -> dict[str, int]:
    """Top-level functions, classes and assigned names, with their lines."""
    return {name: node.lineno for node in ast.parse(source).body for name in _defines(node)}


def _reads(tree: ast.AST) -> set[str]:
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name)
    return read


def read_names(source: str) -> set[str]:
    """Names a module loads, reads as attributes or imports."""
    return _reads(ast.parse(source))


def test_checker_flags_a_dead_name():
    source = "import os\nA = 1\nB, C = 2, 3\ndef f(): return A\nclass K: pass\nK.x = os.sep\n"
    assert defined_names(source) == {"A": 2, "B": 3, "C": 3, "f": 4, "K": 5}
    assert read_names(source) == {"A", "K", "os", "sep"}
    assert read_names("from a import B\nf.C\n") == {"B", "f", "C"}


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(read_names(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_dead_names(path, read_anywhere):
    defined = defined_names(path.read_text())
    assert [f"line {line}: {name}" for name, line in defined.items()
            if name not in read_anywhere] == []


# Top-level package names that no package module reads, as module.name.
UNREAD_IN_PACKAGE = {
    **dict.fromkeys(("codec.decode_grid", "codec.prune", "network.forward",
                     "network.loss_graph", "interaction.classify_sequence",
                     "synth.render_entities"),
                    "bench/workloads.py times it; retiring it waits for the next benchmark "
                    "revision"),
    "interaction.sequence_inputs": "bench/workloads.py builds stage-2 inputs from lists of "
                                   "one-frame predictions with it; the package calls pose_rows",
    "config.toy_preset": "the configuration the bench and the tests run",
    **dict.fromkeys(("config.paper_preset", "config.load_config", "config.save_config",
                     "pipeline.gen_data", "pipeline.train_stage1", "pipeline.train_stage2",
                     "pipeline.evaluate"),
                    "an entry point; the command-line front door, not yet written, will call it"),
}


def unread_in_package(trees: dict[str, ast.Module]) -> list[str]:
    """Top-level names of the modules in trees (module name -> tree) that no
    module reads outside the statement that defines them, as module.name."""
    reads = {module: [_reads(node) for node in tree.body] for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        elsewhere = set().union(*(r for m, rs in reads.items() if m != module for r in rs))
        for i, node in enumerate(tree.body):
            read = elsewhere.union(*(r for j, r in enumerate(reads[module]) if j != i))
            unread += [f"{module}.{name}" for name in _defines(node) if name not in read]
    return unread


def test_checker_flags_a_name_only_its_definition_reads():
    trees = {"a": ast.parse("def f(n):\n    return f(n - 1)\nG = 1\ndef h(): return G\n"),
             "b": ast.parse("from a import h\nK = 2\n")}
    assert unread_in_package(trees) == ["a.f", "b.K"]


def test_every_package_name_has_a_package_reader():
    unread = unread_in_package({p.stem: ast.parse(p.read_text()) for p in PACKAGE})
    assert sorted(unread) == sorted(UNREAD_IN_PACKAGE)


# Parameters left unread on purpose, as module.qualified_name.parameter.
UNREAD_PARAMETERS = {
    "interaction.sequence_inputs.cfg":
        "bench/workloads.py passes it; dropping it waits for the next benchmark revision",
    "autodiff._released.g": "a sentinel that stands in for a backward, so it takes its gradient",
}


def unread_parameters(source: str, module: str) -> list[str]:
    """Parameters that their function's body never loads, as
    module.qualified_name.parameter. A nested function's reads count for
    the functions around it; self and cls are not checked."""
    unread = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                      ast.ClassDef)):
                visit(child, prefix)
                continue
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            visit(child, name)
            if isinstance(child, ast.ClassDef):
                continue
            body = child.body if isinstance(child.body, list) else [child.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend(f"{name}.{arg.arg}" for arg in _parameters(child.args)
                          if arg.arg not in loaded and arg.arg not in ("self", "cls"))

    visit(ast.parse(source), module)
    return unread


def test_checker_flags_an_unread_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + args[0] + kw['x']\n"
              "class K:\n    def m(self, x):\n        return 1\n"
              "def g(y):\n    def h(z):\n        return y\n    return h\n"
              "square = lambda q, r: q * q\n")
    assert sorted(unread_parameters(source, "mod")) == [
        "mod.<lambda>.r", "mod.K.m.x", "mod.f.b", "mod.f.c", "mod.g.h.z"]


def test_no_unread_parameters():
    unread = [name for path in PACKAGE for name in unread_parameters(path.read_text(), path.stem)]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """Reads of another module's private name: `from m import _x`, or an
    attribute `_x` anywhere in a chain rooted at an imported name (`m._x`,
    `m.K._x`). Dunder names are public; attributes of local names are not checked."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {alias.asname or alias.name for alias in node.names}
            found += [(node.lineno, alias.name) for alias in node.names if _private(alias.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_flags_a_private_read():
    source = ("from . import synth as s, __version__\nfrom .geometry import _EDGES, EDGES\n"
              "import numpy as np\nclass K:\n    def m(self):\n        return self._x + K._y\n"
              "s._bounds(1)\nnp.linalg._umath\nprint(s.__doc__, __version__, EDGES)\n")
    assert private_reads(source) == ["line 2: _EDGES", "line 7: s._bounds",
                                     "line 8: np.linalg._umath"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text()) == []
