"""Every public function, class and method of the package, and every field of
its configs, has a user outside tests/.

A module-level function or class whose name does not start with an underscore,
and such a method of such a class, must be named by some file in src/, demos/
or benchmarks/: as a name, an attribute or an import. A string does not count:
a benchmark span that names a function nothing calls any more is no use of it.
A copy of a code path that only tests call checks itself instead of the path
the model runs.

Every config field must be passed by keyword somewhere in those files; a
setting that no caller changes is a module constant.
"""

import ast
import dataclasses
from pathlib import Path

from clta.episodes import EpisodeSpec
from clta.model import ModelConfig
from clta.synth import SynthConfig
from clta.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clta"


def _public(body):
    """The functions and classes of a parsed body whose names are public."""
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions():
    """{qualified name: name} of the package's public module-level functions and
    classes (module.name) and of the public methods of those classes
    (module.Class.method)."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text(encoding="utf-8")).body):
            defs[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defs.update((f"{path.stem}.{node.name}.{method.name}", method.name)
                            for method in _public(node.body)
                            if isinstance(method, ast.FunctionDef))
    return defs


def _names_used(tree):
    """Every identifier that a parsed file names; its definitions do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _callers():
    """The parsed files of src/, demos/ and benchmarks/."""
    return [ast.parse(path.read_text(encoding="utf-8"))
            for folder in ("src", "demos", "benchmarks")
            for path in sorted((ROOT / folder).rglob("*.py"))]


def test_every_public_name_is_used_outside_the_tests():
    used = set()
    for tree in _callers():
        used |= _names_used(tree)
    defs = _public_definitions()
    assert len(defs) > 20   # the walk found the package
    assert "model.Model.forward_video" in defs   # and the methods of its classes
    unused = sorted(qualified for qualified, name in defs.items() if name not in used)
    assert unused == [], f"public names that only tests call: {unused}"


def test_every_config_field_is_passed_by_keyword_outside_the_tests():
    passed = {node.arg for tree in _callers() for node in ast.walk(tree)
              if isinstance(node, ast.keyword)}
    fields = [f"{config.__name__}.{field.name}"
              for config in (ModelConfig, TrainConfig, EpisodeSpec, SynthConfig)
              for field in dataclasses.fields(config)]
    assert len(fields) > 30   # the configs were found
    unset = [name for name in fields if name.split(".")[1] not in passed]
    assert unset == [], f"config fields that no caller sets: {unset}"
