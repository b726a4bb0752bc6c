"""Module assembly: the word walk against the module matrices, and the
band-parameter pool of generic direct sums."""

import itertools
import json
import os
import random
from collections import Counter

from conftest import GOLDEN
from gentlelam import (BandWord, band_module, enumerate_bands,
                       enumerate_strings, make_lamination, string_module,
                       validate_curve, verify_bangle_equals_generic,
                       word_coefficient_quiver)
from gentlelam.cli import main
from gentlelam.strings import (BAND_PARAMETERS, band_parameters, letter_s,
                               letter_t, word_sum)

LAM = 3


def _basis(A, w):
    """(vertex, index among the basis vectors at that vertex) of each
    basis vector, read off the word: t of every letter, plus s of the
    last letter of a string."""
    verts = [letter_t(A, c) for c in w.letters]
    if not isinstance(w, BandWord):
        verts.append(letter_s(A, w.letters[-1]) if w.letters else w.vertex)
    seen = Counter()
    out = []
    for v in verts:
        out.append((v, seen[v]))
        seen[v] += 1
    return out


def _check_word(A, w):
    band = isinstance(w, BandWord)
    M = band_module(A, w, LAM) if band else string_module(A, w)
    Q = word_coefficient_quiver(A, w)
    basis = _basis(A, w)
    assert Q.cyclic == band
    assert list(Q.labels) == [v for v, _ in basis]
    assert Counter(Q.labels) == {v + 1: d for v, d in enumerate(M.dims) if d}
    assert len(Q.arrows) == len(w.letters)
    nonzero = {(a, i, j): x for a in A.arrow_ids
               for i, row in enumerate(M.mats[a])
               for j, x in enumerate(row) if x}
    assert len(nonzero) == len(Q.arrows)
    for k, (p, q, a) in enumerate(Q.arrows):
        (vs, js), (vt, it) = basis[p - 1], basis[q - 1]
        # a sends basis p to basis q: column js at s(a), row it at t(a)
        assert (vs, vt) == (A.s(a), A.t(a)), (w, Q.arrows[k])
        wrap = band and k == len(Q.arrows) - 1
        assert nonzero[(a, it, js)] == (LAM if wrap else 1), (w, Q.arrows[k])


def test_walk_matches_module_matrices(torus_algebra, double_loop,
                                      a3_relation, loop_algebra,
                                      pants_algebra):
    kinds = Counter()
    for A in (torus_algebra, double_loop, a3_relation, loop_algebra,
              pants_algebra):
        for w in enumerate_strings(A, 6) + enumerate_bands(A, 6):
            _check_word(A, w)
            kinds[type(w).__name__, bool(w.letters)] += 1
    assert min(kinds.values()) >= 5 and len(kinds) == 3, kinds


def test_band_parameter_pool():
    head = list(itertools.islice(band_parameters(), 20))
    assert head == list(BAND_PARAMETERS) + [44, 45, 46, 47, 48, 49]
    shuffled = list(itertools.islice(band_parameters(random.Random(5)), 16))
    assert sorted(shuffled[:14]) == list(BAND_PARAMETERS)
    assert shuffled[14:] == [44, 45]


def test_word_sum_of_nothing_is_zero(pants_algebra):
    assert word_sum(pants_algebra, []).dims == (0,) * pants_algebra.n


def test_loop_multiplicity_beyond_primed_pool(annulus, tmp_path):
    loop = validate_curve(annulus, "loop", (1, 2))
    L = make_lamination(annulus, [(loop, 15)])
    assert verify_bangle_equals_generic(annulus, L)[0] is True
    lam = tmp_path / "loop15.json"
    lam.write_text(json.dumps(
        [{"curve": {"kind": "loop", "crossings": [1, 2]}, "mult": 15}]))
    assert main(["verify", "--input", os.path.join(GOLDEN, "annulus.json"),
                 "--lamination", str(lam)]) == 0
