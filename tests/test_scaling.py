"""A scaling budget for `gentlelam components` on the pants algebra: the
requests at d = (5,)^6 and d = (1000, 0, 0, 0, 0, 0) take at most 10 s in
all (about 3.4 s and 0.2 s on one core of the development machine), the
second prints a pinned text, and where the multiset search finishes, the
request with the search in place of the gluing prints the same text.
The search took 8.3 s for the 49 components of (4,)^6, and neither it
nor `decompose`'s table of every word that fits d finished at (6,)^6 in
120 s."""

import hashlib
import json
import time

import pytest

from conftest import case_algebra
from gentlelam import fileio, schemes
from gentlelam.cli import main

BUDGET_S = 10.0


@pytest.fixture
def pants_file(tmp_path):
    path = tmp_path / "pants_algebra.json"
    path.write_text(json.dumps(fileio.algebra_to_dict(case_algebra("pants"))))
    return str(path)


def request(path, d, capsys):
    code = main(["components", "--input", path, "--dims",
                 ",".join(map(str, d)), "--format", "json"])
    assert code == 0
    return capsys.readouterr().out


def test_components_stays_within_the_budget(pants_file, capsys):
    start = time.perf_counter()
    texts = [json.loads(request(pants_file, d, capsys))
             for d in ((5,) * 6, (1000, 0, 0, 0, 0, 0))]
    assert time.perf_counter() - start <= BUDGET_S
    assert [len(t["components"]) for t in texts] == [81, 1]
    assert texts[1]["components"][0]["decomposition"] == \
        [{"type": "string", "word": "1@1"}] * 1000


def test_a_thousand_simples_print_the_pinned_text(pants_file, capsys):
    # sha256 of the JSON text as printed before generic points drew their
    # conjugators only where an arrow acts
    text = request(pants_file, (1000, 0, 0, 0, 0, 0), capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4d3140e72e89714c2cb4a78088063f33e81a50cf4306821a508bde5bd6f1d38c")


@pytest.mark.parametrize("d", [(1000, 0, 0, 0, 0, 0), (3,) * 6,
                               (2, 3, 2, 3, 2, 3)])
def test_the_search_in_place_of_the_gluing_prints_the_same(
        d, pants_file, capsys, monkeypatch):
    glued = request(pants_file, d, capsys)
    monkeypatch.setattr(schemes, "generic_multiset",
                        schemes._search_multiset)
    assert request(pants_file, d, capsys) == glued
