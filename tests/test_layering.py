"""Import layering of the package, read from the source with `ast`.

The intra-package imports form no cycle, so the layers stack one way
(distgrid -> pipeline -> transport, fileio, kernel). No gwasgls module
is imported inside a function: a lazy import runs, and may compile its
source, inside the call that first reaches it, such as an engine's
set-up. Only _blas imports ctypes, so the BLAS calls and the OpenBLAS
thread count live in one module. No module imports scipy, not even
inside a function, and importing the command line loads none of it: a
run has one BLAS, numpy's, and does not pay scipy's import. Only fileio
opens a file, for reading or writing, so every file goes through its one
header-checked column file.
The engines, pipeline and distgrid, open no file by its path: a run's
inputs are opened once, by fileio.opening, and read through those files.
Only fileio renames or removes a file: fileio.creating is the one rule
by which a file comes into being. Only fileio raises
AsymmetricCovariance: the covariance's entries are checked where it is
read, and nowhere else. No module imports multiprocessing: rank 0 of a
dist run is the calling process and the other socket ranks are bare
forks, so there is no launcher process and no import of one. Only
transport imports socket or calls os.fork or os.pipe, so the ranks have
one transport, which makes and closes every socket, fork and pipe. Every
function, class and method of the package is reached from the package
itself, or is an entry point the benchmark traces: a helper only tests
call lives under tests/. A def is matched by how it is bound: a method
through an attribute, a module-level def through a bare name in its own
module or an attribute or from-import in another.
"""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import load_traced

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gwasgls"
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _package_imports(node):
    """The package modules an import node names, [] for any other import."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("gwasgls.")]
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module != "gwasgls":
            if (node.module or "").startswith("gwasgls."):
                return [node.module.split(".")[1]]
            return []
        if node.module and node.level:
            return [node.module.split(".")[0]]
        return [alias.name for alias in node.names if alias.name in MODULES]
    return []


def _imports_by_depth(tree):
    """[(package modules imported, whether inside a function)] per import."""
    found = []

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            names = _package_imports(child)
            if names:
                found.append((names, in_function))
            walk(child, in_function or isinstance(child, FUNCTIONS))

    walk(tree, False)
    return found


def _absolute_imports(tree):
    """Every dotted name an absolute import names: `import a.b` gives
    a.b, `from a.b import c` gives a.b and a.b.c."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}
IMPORTS = {name: _imports_by_depth(tree) for name, tree in TREES.items()}
ABSOLUTE = {name: _absolute_imports(tree) for name, tree in TREES.items()}


def test_the_walk_sees_the_package():
    assert {"pipeline", "distgrid", "transport", "kernel"} <= set(MODULES)
    assert any("pipeline" in names for names, _ in IMPORTS["distgrid"])


def test_no_gwasgls_module_is_imported_inside_a_function():
    lazy = {name: [names for names, inside in found if inside]
            for name, found in IMPORTS.items()}
    assert {name: names for name, names in lazy.items() if names} == {}


def test_intra_package_imports_form_no_cycle():
    graph = {name: {m for names, _ in found for m in names}
             for name, found in IMPORTS.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(f"import cycle: {path[path.index(name):] + [name]}")
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph.get(name, ())):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, gwasgls.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"


def test_only_blas_imports_ctypes():
    assert {name for name, found in ABSOLUTE.items()
            if any(m.split(".")[0] == "ctypes" for m in found)} == {"_blas"}


def test_no_module_imports_multiprocessing():
    assert {name for name, found in ABSOLUTE.items()
            if any(m.split(".")[0] == "multiprocessing" for m in found)} == set()


def _names_fork_or_pipe(tree):
    """Whether tree names os.fork or os.pipe as an attribute of os."""
    return any(isinstance(node, ast.Attribute) and node.attr in ("fork", "pipe")
               and getattr(node.value, "id", None) == "os"
               for node in ast.walk(tree))


def test_only_transport_imports_socket_or_forks():
    # one transport: every socket pair, fork and pipe of a run is made,
    # and closed, by it
    assert {name for name, found in ABSOLUTE.items()
            if _names_fork_or_pipe(TREES[name])
            or any(m.split(".")[0] == "socket" or m in ("os.fork", "os.pipe")
                   for m in found)} == {"transport"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_engine_modules_import_nothing_from_scipy(name):
    assert sorted(m for m in ABSOLUTE[name] if m.split(".")[0] == "scipy") == []


def _opens(tree):
    """(line, first argument) of every open() or os.open() call in tree,
    and of any other call through an attribute named open."""
    return [(node.lineno, ast.unparse(node.args[0]) if node.args else None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "open" in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None))]


def test_only_fileio_opens_files():
    # a second reader would skip the check of its header against the
    # file, and a second writer the layout of payload_shape
    opens = {(name, arg) for name, tree in TREES.items() if name != "fileio"
             for _, arg in _opens(tree)}
    assert opens == set()
    assert _opens(TREES["fileio"])


def _raises(tree, name):
    """Lines of tree that raise the exception class `name`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and name in {getattr(n, "id", None) or getattr(n, "attr", None)
                         for n in ast.walk(node.exc)}]


@pytest.mark.parametrize("name", ["pipeline", "distgrid"])
def test_engines_read_only_through_the_opened_inputs(name):
    # a run's inputs are opened once, by fileio.opening, and read through
    # those files: an engine that opened one again by its path could read
    # another file than the one whose header was checked
    calls = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
             for node in ast.walk(TREES[name]) if isinstance(node, ast.Call)}
    assert calls & {"read_matrix", "read_dims", "ColumnFile"} == set()


def test_only_fileio_raises_asymmetric_covariance():
    # a second check of the file's entries would be a second rule for them
    raisers = {name for name, tree in TREES.items()
               if _raises(tree, "AsymmetricCovariance")}
    assert raisers == {"fileio"}


def _os_calls(tree, names):
    """Lines of tree that call os.<name> for a name in names."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr in names
            and getattr(node.func.value, "id", None) == "os"]


def test_only_fileio_renames_or_removes_files():
    # a file is made at its partial path, renamed when whole and removed
    # when its making fails, by fileio.creating alone
    names = ("replace", "rename", "remove", "unlink")
    callers = {name for name, tree in TREES.items() if _os_calls(tree, names)}
    assert callers == {"fileio"}
    imported = {f"os.{n}" for n in names} & set().union(*ABSOLUTE.values())
    assert imported == set()


def _definitions(tree):
    """(qualified name, node) of every top-level def and class of tree,
    and of every method of its top-level classes but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _uses(node):
    """How the code under node uses names, with counts: ("name", id) for a
    bare name it reads, ("attr", name) for an attribute x.name, and
    ("import", name) for a name a from-import binds."""
    uses = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            uses["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            uses["attr", n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            uses.update(("import", alias.name) for alias in n.names)
    return uses


USES = {name: _uses(tree) for name, tree in TREES.items()}


def _reached(module, qual, node):
    """Whether code of the package outside node's own body uses the def
    node, of module, as it is bound: a method or property only through an
    attribute x.name; a module-level def through a bare name in its own
    module, or an attribute or a from-import in another."""
    name, own = node.name, _uses(node)
    if "." in qual:
        return sum(u["attr", name] for u in USES.values()) > own["attr", name]
    return (USES[module]["name", name] > own["name", name]
            or any(u["attr", name] or u["import", name]
                   for other, u in USES.items() if other != module))


def test_src_holds_only_what_src_or_the_trace_reaches():
    # a local variable, or a method of another class, does not reach a
    # def that only shares its name
    traced = {f"{layer}.{qual}" for layer, names in load_traced().items()
              for qual in names}
    unreached = sorted(
        f"{module}.{qual}" for module, tree in TREES.items()
        for qual, node in _definitions(tree)
        if not _reached(module, qual, node)
        and f"{module}.{qual}" not in traced)
    assert unreached == []
