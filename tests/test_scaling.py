"""A scaling budget for `gentlelam components` on the pants algebra: the
requests at d = (5,)^6 and d = (1000, 0, 0, 0, 0, 0) take at most 10 s in
all (about 1.1 s and 0.04 s of CPU on a 2-CPU x86_64 host), the
second prints a pinned text, and where the multiset search finishes, the
request with the search in place of the gluing prints the same text.
The search took 8.3 s for the 49 components of (4,)^6, and neither it
nor `decompose`'s table of every word that fits d finished at (6,)^6 in
120 s.  On k[a]/(a^2) the request at d = (16,), eight copies of the
string a, takes at most 5 s of CPU, and the one at d = (40,), twenty
copies, at most 2 s: about 0.03 s and 0.5 s with multiplicities read off
one trace pairing (peeling one copy at a time took 0.5 s at d = 16 and
did not finish at d = 40 in 300 s; the split along random endomorphisms
did not finish at d = 16 in 100 s)."""

import hashlib
import json
import os
import time

import pytest

from conftest import GOLDEN, case_algebra
from gentlelam import fileio, schemes
from gentlelam.cli import main

BUDGET_S = 10.0
LOOP_BUDGET_S = 5.0
LONG_LOOP_BUDGET_S = 2.0


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


def test_repeated_loop_summands_stay_within_the_budget(capsys):
    path = os.path.join(GOLDEN, "loop_algebra.json")
    start = time.process_time()
    text = json.loads(request(path, (16,), capsys))
    assert time.process_time() - start <= LOOP_BUDGET_S
    (Z,) = text["components"]
    assert Z["decomposition"] == [{"type": "string", "word": "a"}] * 8


def test_twenty_loop_summands_stay_within_the_budget(capsys):
    path = os.path.join(GOLDEN, "loop_algebra.json")
    start = time.process_time()
    text = json.loads(request(path, (40,), capsys))
    assert time.process_time() - start <= LONG_LOOP_BUDGET_S
    (Z,) = text["components"]
    assert Z["decomposition"] == [{"type": "string", "word": "a"}] * 20


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
