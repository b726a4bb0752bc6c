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
from gentlelam import (bangle_lamination, build_QT, decorated_g_vector, eta,
                       fileio, shear_of_lamination,
                       verify_bangle_equals_generic)
from gentlelam.cli import main
from gentlelam.schemes import components, generic_multiset
from lamgen import random_laminations

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


# The lamination side, pinned on commit 9925706, before the lamination
# functions took the triangulation alone: per lamination of
# `random_laminations(pants, A, 50, seed=123)`, in order, the repr of
# (shear, eta's (d, r, v), decorated g-vector, bangle terms, verify
# verdict); and the `--format json` texts of `shear`, `eta` and `verify`
# on the lamination inputs of tests/test_cli.py, in that order.
LAMINATIONS_SHA256 = \
    "b726ae566c2316b9a1e23632d229776a3de5f0eda27623a4605de6cc4c474e8c"
LAMINATION_TEXTS_SHA256 = \
    "42d819a2cfbe2e70fc497131d460332e66d41e35f66e7d9644c82803dd8ca020"
LONG_STRING_CURVE = {"kind": "open",
                     "crossings": [1, 2, 3, 4, 5] * 2 + [1, 2, 3, 4],
                     "endpoints": [["bA", 0], ["bC", 0]]}


def test_random_laminations_of_the_pants_are_pinned(pants, pants_algebra):
    A = pants_algebra
    rows = []
    for L in random_laminations(pants, A, 50, seed=123):
        DZ = eta(pants, L)
        rows.append((shear_of_lamination(pants, L),
                     (DZ.component.d, DZ.component.r, DZ.v),
                     decorated_g_vector(A, DZ),
                     bangle_lamination(pants, L).terms,
                     verify_bangle_equals_generic(pants, L)[0]))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == LAMINATIONS_SHA256


def test_lamination_texts_are_pinned(tmp_path, capsys):
    long = tmp_path / "long.json"
    long.write_text(json.dumps([{"curve": LONG_STRING_CURVE, "mult": 2}]))
    texts = []
    for lamination in (f"{GOLDEN}/pants_petals.json", str(long)):
        for command in ("shear", "eta", "verify"):
            code = main([command, "--input", f"{GOLDEN}/pants.json",
                         "--lamination", lamination, "--format", "json"])
            assert code == 0
            texts.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == LAMINATION_TEXTS_SHA256
