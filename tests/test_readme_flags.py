"""The README's table of flags per subcommand names exactly the flags that
each subparser of the CLI accepts."""

import argparse
import os
import re

from gentlelam.cli import _parser

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_flags():
    """{subcommand: flags} from the README table, the row `every one`
    added to every subcommand."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("Flags per subcommand"):]
    table = table[:table.index("\n\n", table.index("| subcommand"))]
    rows = {}
    for line in table.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and not cells[1].strip().startswith(("-", "sub")):
            rows[cells[1].strip().strip("`")] = set(
                re.findall(r"--[a-z][a-z-]*", cells[2]))
    common = rows.pop("every one")
    return {name: flags | common for name, flags in rows.items()}


def parser_flags():
    sub, = (a for a in _parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"}
            for name, p in sub.choices.items()}


def test_readme_flag_table_matches_the_parser():
    assert readme_flags() == parser_flags()
