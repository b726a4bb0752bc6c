"""The README's table of flags per subcommand names exactly the flags that
each subparser of the CLI accepts, and its exit-3 row names exactly the
internal errors the library defines."""

import argparse
import inspect
import os
import pkgutil
import re
from importlib import import_module

import gentlelam
from gentlelam.cli import _parser
from gentlelam.errors import InternalError

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


def test_readme_exit_3_row_names_every_internal_error():
    with open(README, encoding="utf-8") as fh:
        row, = (line for line in fh if line.startswith("| 3 |"))
    named = set(re.findall(r"`(\w+)`", row)) - {"InternalError", "assert"}
    defined = set()
    for info in pkgutil.iter_modules(gentlelam.__path__):
        module = import_module(f"gentlelam.{info.name}")
        defined |= {name for name, cls in inspect.getmembers(
            module, inspect.isclass) if cls.__module__ == module.__name__
            and issubclass(cls, InternalError) and cls is not InternalError}
    assert named == defined
