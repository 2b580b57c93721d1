"""Every --flag that README gives a lepfuse command is one its parser accepts.

Two places are read: each ``lepfuse <command> ...`` line, in a code block
or in inline code, and each prose paragraph of the "Command line"
section, where a flag belongs to the command named last before it in
inline code, or to every command where none is named.  pip's command
lines are not lepfuse's and are left out.
"""

import argparse
import re
from pathlib import Path

from lepfuse.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
_FENCED = re.compile(r"```.*?```", re.S)
_FLAG = re.compile(r"--[a-z][a-z-]*")


def _accepted() -> dict:
    # Each subcommand's name -> the option strings its parser accepts.
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: set(parser._option_string_actions) for name, parser in sub.choices.items()}


def _command_lines(text: str):
    # (command, rest) of every "lepfuse <command> rest" line in README.
    lines = [line for block in _FENCED.findall(text) for line in block.splitlines()]
    lines += [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", _FENCED.sub("", text))]
    for line in lines:
        match = re.match(r"\s*lepfuse (\w+)(.*)", line)
        if match:
            yield match[1], match[2]


def test_readme_command_lines_use_accepted_flags():
    accepted = _accepted()
    lines = list(_command_lines(README.read_text()))
    assert {command for command, _ in lines} == set(accepted)
    for command, rest in lines:
        for flag in _FLAG.findall(rest):
            assert flag in accepted[command], f"lepfuse {command} {rest}"


def test_readme_cli_paragraphs_use_accepted_flags():
    accepted = _accepted()
    section = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    names = "|".join(accepted)
    checked = 0
    for paragraph in _FENCED.sub("", section).split("\n\n"):
        commands = list(accepted)
        for match in re.finditer(rf"`(?:lepfuse )?({names})`|{_FLAG.pattern}", paragraph):
            if match[1]:
                commands = [match[1]]
                continue
            checked += 1
            for command in commands:
                assert match[0] in accepted[command], f"lepfuse {command} {match[0]}: {paragraph}"
    assert checked >= 5
