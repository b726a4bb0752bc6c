import argparse
import os

import pytest

from conftest import GOLDEN
from gentlelam.cli import main


def test_seed_only_where_it_is_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", os.path.join(GOLDEN, "torus_quiver.json"),
              "--seed", "1"])
    assert exc.value.code == 2
    assert main(["eta", "--input", os.path.join(GOLDEN, "pants.json"),
                 "--lamination", os.path.join(GOLDEN, "pants_petals.json"),
                 "--seed", "1"]) == 0
    assert "component d=[1, 1, 1, 1, 1, 2]" in capsys.readouterr().out


def test_parser_is_built_once(capsys, monkeypatch):
    torus = os.path.join(GOLDEN, "torus_quiver.json")
    assert main(["check", "--input", torus]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(argparse, "ArgumentParser", forbidden)
    assert main(["check", "--input", torus]) == 0
    assert main(["components", "--input", torus, "--dims", "1,1,0,0"]) == 0
    assert "gentle Jacobian" in capsys.readouterr().out
