"""`components` lets every failure of the decomposition reach the exit
code."""

import os

from conftest import GOLDEN
from gentlelam import cli, schemes, strings
from gentlelam.schemes import ConsistencyFailure
from gentlelam.strings import DictionaryExhausted, SubspaceNotInvariant

TORUS = os.path.join(GOLDEN, "torus_quiver.json")


def components(capsys, *extra):
    code = cli.main(["components", "--input", TORUS, "--dims", "1,1,0,0",
                     "--format", "json", *extra])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dictionary_exhausted_exits_3(capsys, monkeypatch):
    # a generic point is a sum of word modules, so a summand that no word
    # matches is an internal failure, not an unavailable decomposition
    def exhausted(*args, **kwargs):
        raise DictionaryExhausted("summand with dims (1, 1, 0, 0)")

    monkeypatch.setattr(schemes, "decompose", exhausted)
    code, out, err = components(capsys)
    assert code == 3 and not out
    assert err.startswith("internal error (DictionaryExhausted): ")
    assert "Traceback" not in err


def test_consistency_failure_is_not_hidden(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ConsistencyFailure("2 string summands, rank count predicts 1")

    monkeypatch.setattr(cli, "canonical_decomposition", fail)
    code, out, err = components(capsys)
    assert code != 0
    assert "unavailable" not in out
    assert "rank count predicts" in err


def test_decomposition_off_the_certified_multiset_exits_3(capsys,
                                                          monkeypatch):
    decompose = schemes.decompose

    def loses_a_summand(*args, **kwargs):
        return decompose(*args, **kwargs)[1:]

    monkeypatch.setattr(schemes, "decompose", loses_a_summand)
    code, out, err = components(capsys)
    assert code == 3 and not out
    assert err.startswith("internal error (ConsistencyFailure): ")
    assert "certified multiset" in err


def test_non_invariant_subspace_exits_3(capsys, monkeypatch):
    # `decompose` restricts to kernels of module maps, which are
    # invariant; a failure there is internal, not bad input
    def not_invariant(*args):
        raise SubspaceNotInvariant("subspace not invariant")

    monkeypatch.setattr(strings, "_subrep", not_invariant)
    # the generic point of (2, 1, 1, 0) has two summands, so it is split
    code = cli.main(["components", "--input", TORUS, "--dims", "2,1,1,0"])
    out, err = capsys.readouterr()
    assert code == 3 and not out
    assert err.startswith("internal error (SubspaceNotInvariant): ")
