"""Where concepts live: CSV and report writing in ``text``, the published study in ``fixtures``,
and the slow references the fast paths are tested against in ``tests/reference.py``."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fuzzysoft"


def _imports(path: Path) -> set[str]:
    """Every module ``path`` imports, relative ones written with their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            if not node.module:  # from . import text
                names.update("." + alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["softset.py", "scoring.py", "reduction.py", "membership.py"])
def test_computing_modules_import_no_text_rendering(module):
    assert not {"csv", "io", ".text"} & _imports(SRC / module)


def test_only_the_front_ends_import_the_study_module():
    importers = {path.name for path in SRC.glob("*.py") if ".fixtures" in _imports(path)}
    assert importers <= {"pipeline.py", "cli.py", "__init__.py"}


def test_variables_define_no_errata():
    tree = ast.parse((SRC / "variables.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not {"ErrataCell", "errata_report"} & defined


def _functions(path: Path, nested: bool = True) -> set[str]:
    """The functions ``path`` defines, at any depth or at module level only, without leading underscores."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = ast.walk(tree) if nested else tree.body
    return {node.name.lstrip("_") for node in nodes if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_no_package_module_imports_the_references():
    for path in SRC.glob("*.py"):
        assert not {name for name in _imports(path) if name.rsplit(".", 1)[-1] == "reference"}, path.name


def test_each_reference_is_defined_only_in_the_reference_module():
    references = _functions(TESTS / "reference.py", nested=False)
    assert {
        "dense_count", "dense_difference", "per_cell_table", "fuzzify_value", "reference_load", "per_cell_product",
        "brute_force_reductions", "dispensable", "per_subset_reductions", "minimal_flagged", "matmul_reduct_masks",
        "soft_set",
    } <= references
    for path in TESTS.glob("test_*.py"):
        assert not references & _functions(path), path.name
