"""Every public function and class of the package has a caller outside tests/.

A module-level function or class whose name does not start with an underscore
must be named by some file in src/, demos/ or benchmarks/: as a name, an
attribute, an import, or a string that is a dotted identifier (a benchmark
span names the function it wraps that way). A copy of a code path that only
tests call checks itself instead of the path the model runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clta"


def _public_definitions():
    """{name: module} of the package's public module-level functions and classes."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = path.stem
    return defs


def _names_used(path):
    """Every identifier that a file names; its definitions do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_every_public_name_is_used_outside_the_tests():
    used = set()
    for folder in ("src", "demos", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            used |= _names_used(path)
    defs = _public_definitions()
    assert len(defs) > 20   # the walk found the package
    unused = sorted(f"{module}.{name}" for name, module in defs.items() if name not in used)
    assert unused == [], f"public names that only tests call: {unused}"
