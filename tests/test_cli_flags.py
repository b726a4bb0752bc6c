import argparse
import os

import pytest

from conftest import GOLDEN
from gentlelam.cli import main

TORUS = os.path.join(GOLDEN, "torus_quiver.json")


def test_seed_only_where_it_is_read(capsys):
    # parses on every subcommand; only `components` reads a seed, and no
    # subcommand takes a dictionary bound
    pants = ["--input", os.path.join(GOLDEN, "pants.json")]
    lamination = [*pants, "--lamination",
                  os.path.join(GOLDEN, "pants_petals.json")]
    argvs = {
        "check": ["--input", TORUS],
        "components": ["--input", TORUS, "--dims", "1,1,0,0"],
        "smooth": ["--input", TORUS, "--module", "module.json"],
        "bangle": [*pants, "--curve", "loop:1,2"],
        "shear": lamination,
        "eta": lamination,
        "verify": lamination,
    }
    for name, argv in argvs.items():
        extras = [["--max-len", "8"]]
        if name != "components":
            extras.append(["--seed", "1"])
        for extra in extras:
            with pytest.raises(SystemExit) as exc:
                main([name, *argv, *extra])
            assert exc.value.code == 2, (name, extra)
    assert main(["eta", *lamination]) == 0
    assert "component d=[1, 1, 1, 1, 1, 2]" in capsys.readouterr().out
    assert main(["components", *argvs["components"], "--seed", "1"]) == 0


def test_parser_is_built_once(capsys, monkeypatch):
    torus = os.path.join(GOLDEN, "torus_quiver.json")
    assert main(["check", "--input", torus]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(argparse, "ArgumentParser", forbidden)
    assert main(["check", "--input", torus]) == 0
    assert main(["components", "--input", torus, "--dims", "1,1,0,0"]) == 0
    assert "gentle Jacobian" in capsys.readouterr().out
