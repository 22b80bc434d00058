"""No module imports a name it never uses, every name the benchmark's
tracer wraps exists, and every exception class of the package is raised.

A stdlib ``ast`` scan of ``src/``, ``tests/`` and ``tools/``: an imported
name counts as used when the module reads it or lists it in ``__all__``, and
an import statement carrying ``# noqa: F401`` is left alone.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # name -> line of its import statement
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1:node.end_lineno]
            if any("noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_covers_every_tree():
    assert {p.relative_to(ROOT).parts[0] for p in FILES} == {"src", "tests", "tools"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n"
                      "__all__ = ['dumps']\n")
    assert unused_imports(module) == [(1, "os"), (3, "loads")]


def test_the_export_list_matches_the_package_imports():
    # Every exported name resolves, and every public name the package
    # imports is exported: deleting a name must update both lists.
    import sobspec

    init = ROOT / "src" / "sobspec" / "__init__.py"
    imported = {alias.asname or alias.name for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in sobspec.__all__ if not hasattr(sobspec, name)] == []
    assert sorted(n for n in imported if not n.startswith("_")) == sorted(sobspec.__all__)


def test_every_traced_place_resolves():
    # perfbench's tracer records a renamed or deleted function as missing
    # instead of raising, so only its slow suite would notice; install it
    # here, over the real package, and undo the wrapping at once.
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    tracer.uninstall()
    assert len(tracer_module.TARGETS) > 20
    assert tracer.missing == []


def raised_names(path):
    """Names in ``raise X`` and ``raise X(...)`` statements of a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    # A class that nothing in src/ raises is dead API: delete it instead.
    errors = ROOT / "src" / "sobspec" / "errors.py"
    classes = {node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)} - {"SobspecError"}
    raised = set().union(*(raised_names(p) for p in (ROOT / "src").rglob("*.py")))
    assert len(classes) >= 6
    assert sorted(classes - raised) == []


#: libmp's rounding mode and its rounding arithmetic: which operation, at
#: which precision and rounding, has the bits of an mpf operator.
ROUNDING_NAMES = {"round_nearest", "mpf_add", "mpf_sub", "mpf_mul", "mpf_mul_int", "mpf_div",
                  "mpf_neg", "mpf_sqrt"}


def referenced_names(path):
    """Every name a module imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_the_rounding_decision_lives_in_core():
    # core.arith is the one place that turns mpf operators into libmp calls.
    package = ROOT / "src" / "sobspec"
    users = sorted(p.name for p in package.glob("*.py") if referenced_names(p) & ROUNDING_NAMES)
    assert users == ["core.py"]
    # One loop serves both arithmetics in matrices: it never asks for EXACT.
    assert "EXACT" not in referenced_names(package / "matrices.py")


def imported_modules(path):
    """Every module a module imports, at any depth of its body (lazy imports
    included), with a relative import named ``.name``."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    return modules


def test_only_core_and_the_formatter_import_libmp():
    # Raw values, their layout and libmp's constants stay below core; serialize's
    # formatter is a byte contract with libmp's to_str.
    package = ROOT / "src" / "sobspec"
    users = sorted(p.name for p in package.glob("*.py")
                   if any(m.startswith("mpmath.libmp") for m in imported_modules(p))
                   or "libmp" in referenced_names(p))
    assert users == ["core.py", "serialize.py"]


def test_core_imports_no_sibling_but_errors():
    # core is the scalar layer: every other module builds on it, so an import
    # of one of them, lazy or not, would be a cycle.
    modules = imported_modules(ROOT / "src" / "sobspec" / "core.py")
    siblings = {m for m in modules if m.startswith(".") or m.startswith("sobspec")}
    assert siblings == {".errors"}


def test_matrices_private_names_stay_in_matrices():
    # The CLI and the golden comparison reach matrices through its public
    # names only: the band walk is band_entries, the mass point kt.c.
    for name in ("cli.py", "golden.py"):
        tree = ast.parse((ROOT / "src" / "sobspec" / name).read_text())
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "matrices"
                   for alias in node.names if alias.name.startswith("_")]
        assert private == [], name
