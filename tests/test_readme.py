"""The README's library example runs as written, as its own process, and
its command lines name only subcommands and flags the CLI has."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from clta.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
CLI_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
             for line in block.splitlines() if line.startswith("clta ")]


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_runs(block):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BLOCKS[block]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_cli_lines_parse():
    assert CLI_LINES
    parser, _ = _build_parser()
    for line in CLI_LINES:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
