"""The oracle in oracle_reference.py stays independent of the code it checks."""

import ast
import sys
from pathlib import Path


def test_the_oracle_imports_only_the_standard_library():
    # numpy, clta or a relative import would let a shared bug pass both sides
    tree = ast.parse((Path(__file__).parent / "oracle_reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    outside = sorted(m for m in imported if m.split(".")[0] not in sys.stdlib_module_names)
    assert imported and not outside, f"oracle_reference.py imports {outside}"
