"""Where concepts live: CSV and report writing in ``text``, the published study in ``fixtures``."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzzysoft"


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
