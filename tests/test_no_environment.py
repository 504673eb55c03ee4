"""The package reads no environment variable: its behaviour is set by its
arguments, config files and flags alone."""

import ast
from pathlib import Path

_ENVIRONMENT = {"environ", "getenv", "putenv", "unsetenv"}


def test_the_package_names_no_environment_access():
    # os.environ, os.getenv, from os import environ, and the like all name one of these
    src = Path(__file__).parent.parent / "src" / "clta"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in _ENVIRONMENT:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert list(src.glob("*.py")) and not found, f"environment access in {found}"
