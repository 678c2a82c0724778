"""The README's CLI commands parse under the current CLI; they are not run."""

import re
import shlex
from pathlib import Path

import pytest

from gridruin import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_commands():
    """The ``gridruin ...`` commands of the README's CLI block, continuation lines joined."""
    text = README.read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("gridruin ")]


def test_cli_block_found():
    assert len(cli_commands()) >= 5


@pytest.mark.parametrize("command", cli_commands())
def test_readme_command_parses(command, capsys):
    argv = shlex.split(command)[1:]
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")
