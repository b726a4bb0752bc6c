"""Word questions read off the letter table: the predecessors of each
letter, the cohooks of `tau_string` (against the arrow scan they
replace, kept here as the reference), and word text that names one
word."""

import pytest

from conftest import CASES, GOLDEN_ALGEBRAS, GOLDEN_SURFACES, case_algebra
from gentlelam import (StringWord, enumerate_bands, enumerate_strings,
                       homological, strings, tau_string)
from gentlelam.strings import (_letter_table, _pair_rule, letter_t,
                               parse_word)

MAX_LEN = 8


def scan_cohook(A, first, vertex=None, sign=None):
    """The cohook found by scanning the arrows with `pair_ok` at each
    step: the route `homological._cohook` took before the letter table
    held predecessors."""
    b = None
    if first is None:
        # sign +1 faces the first arrow out of the vertex, -1 the second
        outs = A.quiver.arrows_from(vertex)
        k = 0 if sign == 1 else 1
        b = outs[k] if k < len(outs) else None
    else:
        for a in A.quiver.arrows_from(letter_t(A, first)):
            if strings.pair_ok(A, (a, False), first):
                b = a
                break
    if b is None:
        return None
    run = [(b, False)]
    while True:
        for f in A.arrow_ids:
            if strings.pair_ok(A, (f, True), run[-1]):
                run.append((f, True))
                break
        else:
            return run


def tau_inputs(A):
    return enumerate_strings(A, MAX_LEN) + \
        [StringWord((), v, sign) for v in range(1, A.n + 1)
         for sign in (1, -1)]


@pytest.mark.parametrize("name", CASES)
def test_predecessors_follow_the_rule(name):
    A = case_algebra(name)
    tab = _letter_table(A)
    for y in tab.letters:
        for inv in (False, True):
            preds = [x for x in tab.letters
                     if x[1] == inv and _pair_rule(A, x, y)]
            assert len(preds) <= 1, (y, preds)  # A is gentle
            assert tab.before[y][inv] == (preds[0] if preds else None)


@pytest.mark.parametrize("name", CASES)
def test_tau_string_equals_the_arrow_scan(name, monkeypatch):
    A = case_algebra(name)
    words = tau_inputs(A)
    got = [tau_string(A, C) for C in words]
    monkeypatch.setattr(homological, "_cohook", scan_cohook)
    assert got == [tau_string(A, C) for C in words]


def counting_pair_ok(monkeypatch):
    """Count every call of `pair_ok`, under each name a module of the
    package holds it by."""
    calls = []
    original = strings.pair_ok

    def counted(A, x, y):
        calls.append((x, y))
        return original(A, x, y)

    for mod in (strings, homological):
        if getattr(mod, "pair_ok", None) is original:
            monkeypatch.setattr(mod, "pair_ok", counted)
    return calls


def test_tau_string_tests_no_letter_pair(torus_algebra, monkeypatch):
    A = torus_algebra
    words = enumerate_strings(A, MAX_LEN)
    got = [tau_string(A, C) for C in words]
    calls = counting_pair_ok(monkeypatch)
    assert [tau_string(A, C) for C in words] == got
    assert len(calls) == 0
    # the count sees the calls of the arrow scan
    monkeypatch.setattr(homological, "_cohook", scan_cohook)
    assert [tau_string(A, C) for C in words] == got
    assert len(calls) > len(words)


@pytest.mark.parametrize("name", GOLDEN_ALGEBRAS + GOLDEN_SURFACES)
def test_word_text_round_trips(name):
    A = case_algebra(name)
    for w in enumerate_strings(A, 6):
        assert parse_word(str(w)) == (w if w.is_trivial else w.letters)
    for B in enumerate_bands(A, 6):
        assert parse_word(str(B)) == B.letters
