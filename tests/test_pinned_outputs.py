"""Digests of outputs that the speed-ups of the census must not change,
pinned on commit ecacfd0, before the eigenspace-only split:

- the 27 `components --format json` texts of the census benchmark
  workload (its dimension vectors on the pants algebra, in its order),
  sha256 of their concatenation;
- `generic_multiset` of every component of every d in {0,1,2}^6 on the
  pants algebra, sha256 of the repr of the list of
  (d, rank function, tuple of str(word)) in `itertools.product` order
  and component order."""

import hashlib
import itertools
import json

from conftest import GOLDEN
from gentlelam import build_QT, fileio
from gentlelam.cli import main
from gentlelam.schemes import components, generic_multiset

CENSUS_DIMS = (
    (0, 1, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2), (0, 1, 0, 0, 0, 2),
    (0, 0, 2, 1, 1, 0), (1, 0, 1, 2, 0, 0), (0, 1, 2, 1, 1, 0),
    (2, 1, 1, 1, 0, 0), (0, 0, 2, 0, 2, 1), (1, 2, 0, 0, 2, 0),
    (0, 1, 2, 0, 2, 1), (1, 2, 1, 2, 0, 0), (2, 1, 1, 1, 2, 0),
    (0, 2, 0, 2, 2, 1), (2, 2, 1, 0, 2, 0), (2, 2, 2, 2, 1, 0),
    (0, 1, 1, 2, 1, 1), (2, 1, 0, 2, 0, 1), (0, 2, 1, 2, 2, 1),
    (1, 1, 2, 0, 0, 1), (1, 2, 1, 0, 0, 2), (0, 2, 2, 1, 0, 2),
    (2, 0, 1, 2, 1, 2), (2, 1, 1, 2, 0, 1), (2, 2, 0, 2, 0, 2),
    (1, 1, 1, 2, 2, 1), (1, 1, 2, 2, 2, 2), (2, 1, 2, 2, 0, 2))
CENSUS_SHA256 = \
    "e68d61f8d2d5fd0a61abda6cf354ff7fdfe07547e3f5278ddccaa57a497de4f3"
MULTISETS_SHA256 = \
    "698932bb8e1e7b99467e3b30b2ef357c21190f2c4ac3fa148b848395615df6bc"


def pants():
    return build_QT(fileio.load_triangulation(f"{GOLDEN}/pants.json"))


def test_census_texts_are_pinned(tmp_path, capsys):
    algebra = tmp_path / "pants_algebra.json"
    algebra.write_text(json.dumps(fileio.algebra_to_dict(pants())))
    texts = []
    for d in CENSUS_DIMS:
        code = main(["components", "--input", str(algebra), "--dims",
                     ",".join(map(str, d)), "--format", "json"])
        assert code == 0
        texts.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == CENSUS_SHA256


def test_generic_multisets_of_the_pants_box_are_pinned():
    A = pants()
    rows = [(d, Z.r, tuple(map(str, generic_multiset(A, Z))))
            for d in itertools.product(range(3), repeat=A.n)
            for Z in components(A, d)]
    assert len(rows) == 1785
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == MULTISETS_SHA256
