"""The README's examples run as written: the Quick start executes, every
command-line example parses, and the sweep-config example builds."""

import json
import re
import shlex
from pathlib import Path

import pytest

from blocksense.cli import build_parser
from blocksense.harness import ExperimentConfig, config_from_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(pattern: str) -> str:
    match = re.search(pattern, README, re.S)
    assert match is not None, f"README has no block matching {pattern!r}"
    return match.group(1)


def test_quick_start_runs(capsys):
    # CI runs this suite against the installed package, so this is the
    # Quick start as a user runs it
    quick_start = _block(r"## Quick start\n\n```python\n(.*?)```")
    names = {}
    exec(compile(quick_start, "README.md", "exec"), names)
    assert "total_sub" in json.loads(capsys.readouterr().out)
    assert len(names["theta_hat"].support) == 2


COMMANDS = _block(r"## Command line\n\n```\n(.*?)```").splitlines()


def _parse(line: str):
    # an optional argument is shown in [ ], and is given here
    words = shlex.split(line.replace("[", "").replace("]", ""))
    assert words[0] == "blocksense"
    return build_parser().parse_args(words[1:])


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_parses(line):
    assert callable(_parse(line).func)


def test_command_line_block_shows_every_subcommand():
    shown = {(args.command, getattr(args, "method", None)) for args in map(_parse, COMMANDS)}
    assert shown == {("design", "ds"), ("design", "wcm"), ("decode", "bomp"),
                     ("sweep", None), ("histogram", None)}


def test_sweep_config_example_builds():
    payload = json.loads(_block(r"```json\n(.*?)```"))
    assert isinstance(config_from_dict(payload), ExperimentConfig)
