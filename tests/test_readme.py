"""The README's CLI examples and option lists against the parser; nothing is run."""
import re
import shlex
from pathlib import Path

import pytest

from ustlocal import cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
EXAMPLES = [line for line in README.splitlines() if line.startswith("ustlocal ")]


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_parses(line):
    args = cli._parse(shlex.split(line, comments=True)[1:])
    cli._require(args)


def test_readme_lists_every_option_of_every_subcommand():
    listed = {command: tuple(re.findall(r"--([a-z-]+)", rest))
              for command, rest in re.findall(r"^- `([a-z-]+)`: (.*)$", README, re.M)}
    assert listed == {command: tuple(options) for command, options in cli._OPTIONS.items()}
