"""The computing modules render no text: CSV and report writing lives in ``text``."""
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
