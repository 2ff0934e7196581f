"""Every function and class defined in src/ddwl has a caller in the program,
and every name the package exports is bound.

A definition counts as called when its name occurs as a whole word outside
its own lines in src/ddwl (the package `__init__` aside) or perfbench/.
Demos and tests read the library but do not count as its callers:
constructors and oracles that only the tests use live under tests/.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import ddwl
from ddwl import gf
from ddwl.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "ddwl").glob("*.py") if p.name != "__init__.py")
SEARCHED = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))


def _definitions(path: Path):
    """(name, first line, last line) of every function and class, dunders aside."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno


def _has_caller(name: str, home: Path, first: int, last: int) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    for path in SEARCHED:
        lines = path.read_text().splitlines()
        if path == home:
            lines = lines[: first - 1] + lines[last:]
        if any(word.search(line) for line in lines):
            return True
    return False


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_definition_has_a_caller(module):
    uncalled = [name for name, a, b in _definitions(module) if not _has_caller(name, module, a, b)]
    assert uncalled == [], f"{module.name}: nothing in the program calls {uncalled}"


def test_every_export_is_bound():
    assert [name for name in ddwl.__all__ if not hasattr(ddwl, name)] == []


def _flagless_unique_calls(path: Path):
    """Line numbers of `np.unique(...)` calls that pass no `return_*` flag."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any((k.arg or "").startswith("return_") for k in node.keywords)
        ):
            yield node.lineno


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_flagless_np_unique(module):
    """numpy 2's `np.unique` with no `return_*` flag asks `np.ma.is_masked`,
    which imports numpy.ma (10 to 17 ms) on the first call in a process: use
    a flagged call, a bincount or a sorted-neighbour mask instead."""
    assert list(_flagless_unique_calls(module)) == [], module.name


PACKAGE = sorted((ROOT / "src" / "ddwl").glob("*.py"))
ALGEBRA = ("gf", "heisenberg", "digraph", "construction", "designs", "srings")
ALGEBRA_MODULES = [p for p in PACKAGE if p.stem in ALGEBRA]


def _package_imports(path: Path):
    """(line, sibling module, imported names, inside a function) of every
    import of a ddwl module in path, relative or absolute: `from .m import a`
    gives ("m", ["a"]), `from . import m` and `import ddwl.m` give ("m", [])."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            inner = in_function or isinstance(child, functions)
            if isinstance(child, ast.ImportFrom) and (
                child.level or child.module.startswith("ddwl")
            ):
                module = (child.module or "").removeprefix("ddwl").lstrip(".")
                names = [a.name for a in child.names]
                for m, imported in [(module, names)] if module else [(n, []) for n in names]:
                    yield child.lineno, m, imported, inner
            elif isinstance(child, ast.Import):
                for a in child.names:
                    if a.name.startswith("ddwl."):
                        yield child.lineno, a.name.removeprefix("ddwl."), [], inner
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text()), False)


@pytest.mark.parametrize("module", PACKAGE, ids=lambda p: p.stem)
def test_no_function_level_package_imports(module):
    """Sibling modules are imported at module level, so no import cycle
    hides in a function."""
    assert [line for line, _, _, inner in _package_imports(module) if inner] == [], module.name


@pytest.mark.parametrize("module", PACKAGE, ids=lambda p: p.stem)
def test_no_private_name_is_imported(module):
    """No module takes another module's private name (dunders such as
    `__version__` are public)."""
    private = [
        (line, name)
        for line, _, names, _ in _package_imports(module)
        for name in names
        if name.startswith("_") and not name.endswith("__")
    ]
    assert private == [], module.name


@pytest.mark.parametrize("module", ALGEBRA_MODULES, ids=lambda p: p.stem)
def test_the_algebra_layer_imports_no_refinement_or_search(module):
    """Fields, the group, the digraphs, the construction, the designs and
    the S-rings import neither the refinement engine `coherent` nor the
    search `isotest`."""
    imported = [(line, m) for line, m, _, _ in _package_imports(module)]
    assert [(line, m) for line, m in imported if m in ("coherent", "isotest")] == [], module.name


def _bound_names(tree) -> set[str]:
    """Every name a module binds: its functions, classes, assigned names
    (fields among them) and assigned attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _foreign_private_reads(path: Path):
    """(line, expression) of every read of an underscore attribute, dunders
    aside, on an object other than `self` or `cls`, whose name path does not
    bind itself."""
    tree = ast.parse(path.read_text())
    own = _bound_names(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            and node.attr not in own
        ):
            yield node.lineno, ast.unparse(node)


@pytest.mark.parametrize("module", PACKAGE, ids=lambda p: p.stem)
def test_no_private_attribute_of_another_module_is_read(module):
    """A module reads an underscore attribute of another object only where
    it defines that name itself, as `digraph` reads `g._arcs` of the
    `Digraph` it builds: the vertex layout, say, is `GroupTable.vertex`,
    public, not a private helper reached into from outside `heisenberg`."""
    assert list(_foreign_private_reads(module)) == [], module.name


# every map of H3(q) is one `coset_affine` description; build_X packs a set
VERTEX_PACKERS = {("heisenberg", "coset_affine"), ("construction", "build_X")}


def _vertex_calls(path: Path):
    """(innermost enclosing function, line) of every `.vertex(...)` call."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, functions) else function
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "vertex"
            ):
                yield inner, child.lineno
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text()), None)


def test_only_heisenberg_decodes_the_vertex_layout():
    """Vertices are packed by `GroupTable.vertex` in `coset_affine`, which
    makes every map, and in `Construction.build_X`, which makes a set; no
    module reads per-vertex coordinate arrays `.ix`, `.iy` or `.iz`."""
    calls = [(p.stem, function, line) for p in PACKAGE for function, line in _vertex_calls(p)]
    assert [c for c in calls if c[:2] not in VERTEX_PACKERS] == []
    assert {c[:2] for c in calls} == VERTEX_PACKERS
    coordinates = [
        (p.stem, node.lineno, ast.unparse(node))
        for p in PACKAGE
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("ix", "iy", "iz")
    ]
    assert coordinates == []


def test_refinement_has_one_key_layout():
    """`coherent` keys every round in one layout: it defines no count-mode
    limit, and `_refine_round` calls `np.bincount` once, for the column
    count `most` that bounds the product kernel's digits."""
    tree = ast.parse((ROOT / "src" / "ddwl" / "coherent.py").read_text())
    assert "_MODE_A_MAX_CODES" not in _bound_names(tree)
    refine = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_refine_round"
    )
    bincounts = [
        node.lineno
        for node in ast.walk(refine)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bincount"
    ]
    assert len(bincounts) == 1


# -- what the command line reaches ---------------------------------------------

REACH_COMMANDS = [
    ["verify", "3"],
    ["verify", "5"],
    ["verify", "3", "--suite", "fast"],
    ["iso", "3"],
    ["wl", "3", "1"],
    ["wl", "3", "1", "--loopless"],
    ["design", "3", "1"],
    ["build", "3", "1"],
    ["build", "9", "1"],   # GF(9): `gf._poly_mod` runs only at l >= 2
]

# every function and method no command above calls, and who calls it
UNREACHED = {
    "coherent.wl_equivalent": "perfbench LAYERS and demo 04",
    "digraph.Digraph.__init__": "perfbench family-q7's relabelled copy",
    "digraph.Digraph.relabeled": "perfbench family-q7",
    "isotest.automorphism_generators": "criterion 8's fallback and the leaf's oracle, LAYERS, demo 05",
    "isotest.automorphism_order": "criterion 8's fallback and the leaf's oracle, LAYERS, demo 05",
    "isotest.is_induced": "criterion 9's fallback",
    "srings.ConstsReport.ok": "perfbench's algebra plan",
    "coherent.CoherentConfiguration.__repr__": "a __repr__, for people",
    "construction.Construction.__repr__": "a __repr__, for people",
    "digraph.Digraph.__repr__": "a __repr__, for people",
    "gf.Field.__repr__": "a __repr__, for people",
    "heisenberg.GroupTable.__repr__": "a __repr__, for people",
    "srings.SRing.__repr__": "a __repr__, for people",
}


def _functions(path: Path):
    """(module.qualname, first line) of every function and method in path;
    nested closures count with the function that holds them, and the first
    line is the first decorator's, as a code object's `co_firstlineno` is."""

    def first(node):
        return min([node.lineno] + [d.lineno for d in node.decorator_list])

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{path.stem}.{node.name}", first(node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{path.stem}.{node.name}.{item.name}", first(item)


def test_every_function_is_reached_by_a_command_or_named(tmp_path, capsys):
    """Runs the commands in this process under `sys.setprofile` and asserts
    that each function and method of src/ddwl was called, or is named in
    `UNREACHED` with its caller outside the command line."""
    home = Path(ddwl.__file__).parent   # where the traced code objects come from
    names = {(str(home / p.name), line): name for p in PACKAGE for name, line in _functions(p)}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    gf._field_cached.cache_clear()   # fields other tests built are cached
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        for k, command in enumerate(REACH_COMMANDS):
            out = ["--tensor-out" if command[0] == "wl" else "--out", str(tmp_path / f"{k}.out")]
            assert main(command + out) == 0, command
    finally:
        sys.setprofile(before)
    capsys.readouterr()
    assert sorted(name for key, name in names.items() if key not in called) == sorted(UNREACHED)
