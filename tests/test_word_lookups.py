"""Lookups keyed by words: `standard_homs` joins the factor lists of its
two words through a dict, and words keep their hash.  The double loop of
`_match` calls that the join replaced is kept here as the reference."""

import copy
import pickle

import pytest

from gentlelam import (BandWord, StringWord, enumerate_bands,
                       enumerate_strings, homological)
from gentlelam.homological import (StandardHom, _e_inverse,
                                   _factors as _band_occurrences,
                                   _factors as _string_splits, _two_sided)
from gentlelam.strings import canonical_band, parse_word, string_word


def reference_match(E1, E2):
    """None, or (oriented: bool) when E1 equals E2 or its inverse."""
    if E1[0] == "triv" or E2[0] == "triv":
        if E1[0] == "triv" and E2[0] == "triv" and E1[1] == E2[1]:
            return True  # orientation immaterial for trivial pieces
        return None
    if E1 == E2:
        return True
    if E1 == _e_inverse(E2):
        return False
    return None


def reference_standard_homs(A, X, Y):
    out = []
    x_band = isinstance(X, BandWord)
    y_band = isinstance(Y, BandWord)
    if x_band:
        max_q = (len(Y) if not y_band else len(X) + len(Y)) + 2
        quots = list(_band_occurrences(A, X, "quot", max_q))
    else:
        quots = list(_string_splits(A, X, "quot"))
    if y_band:
        max_s = (len(X) if not x_band else len(X) + len(Y)) + 2
        subs = list(_band_occurrences(A, Y, "sub", max_s))
    else:
        subs = list(_string_splits(A, Y, "sub"))
    for qa, qb, E1 in quots:
        for sa, sb, E2 in subs:
            oriented = reference_match(E1, E2)
            if oriented is None:
                continue
            two_sided = _two_sided(A, X, Y, (qa, qb), (sa, sb), oriented,
                                   x_band, y_band)
            out.append(StandardHom(X, Y, (qa, qb), (sa, sb),
                                   bool(oriented), two_sided))
    if x_band and y_band and canonical_band(A, X) == canonical_band(A, Y):
        out.append(StandardHom(X, Y, None, None, True, False,
                               is_identity=True))
    return out


@pytest.mark.parametrize("name", ["torus_algebra", "pants_algebra",
                                  "a3_relation"])
def test_standard_homs_match_the_double_loop(request, name):
    A = request.getfixturevalue(name)
    words = enumerate_strings(A, 5) + enumerate_bands(A, 4)
    homs = 0
    for X in words:
        for Y in words:
            got = homological.standard_homs(A, X, Y)
            assert got == reference_standard_homs(A, X, Y), (str(X), str(Y))
            homs += len(got)
    assert homs


def test_factor_and_inverse_occurrences_interleave(torus_algebra):
    # in these strings the length-one sub-factor (b2) or (b3-) occurs late
    # and its inverse early, so the join must merge the two lists by index
    A = torus_algebra
    homs = 0
    for text in ("b2-,c,a2,b1,a3,c-,b2", "b3,c,a2,b1,a3,c-,b3-"):
        Y = string_word(A, parse_word(text))
        for X in enumerate_strings(A, 3):
            got = homological.standard_homs(A, X, Y)
            assert got == reference_standard_homs(A, X, Y), (str(X), text)
            homs += len(got)
    assert homs


def test_words_keep_their_hash_out_of_their_state():
    words = [StringWord((("a", False), ("b", True))),
             StringWord((), 3, -1), BandWord((("a", False), ("b", True)))]
    for w in words:
        fields = (w.letters,) if isinstance(w, BandWord) else \
            (w.letters, w.vertex, w.sign)
        # the dataclass hash: that of the field tuple
        assert hash(w) == hash(fields)
        assert vars(w)["_hash"] == hash(w)  # kept after the first use
        twin = type(w)(*fields)
        assert twin == w and hash(twin) == hash(w) and twin is not w
        assert {w: 1}[twin] == 1
        for back in (pickle.loads(pickle.dumps(w)), copy.copy(w),
                     copy.deepcopy(w)):
            assert "_hash" not in vars(back)
            assert back == w and hash(back) == hash(w)
        assert b"_hash" not in pickle.dumps(w)
    assert StringWord((), 3, -1) != StringWord((), 3, 1)
