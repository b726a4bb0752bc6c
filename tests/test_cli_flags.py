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
