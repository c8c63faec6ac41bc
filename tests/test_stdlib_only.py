"""The runtime has no dependencies: every module of the package imports
only from the standard library (or from the package itself)."""

import ast
import sys
from pathlib import Path

# read from the source tree, not imported: a missing dependency would
# stop the import before this test could name it
SRC = Path(__file__).resolve().parent.parent / "src" / "distideal"


def test_runtime_imports_only_stdlib():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
