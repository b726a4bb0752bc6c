"""The three failure families reach the CLI as exit codes, never as
tracebacks: input errors exit 2, false verdicts 1, internal errors 3."""

import json
import os

import pytest

from conftest import GOLDEN
from gentlelam import (ConsistencyFailure, DictionaryExhausted,
                       FalseVerdict, FormulaMismatch, InputError, InternalError, NotGentle, NotJacobian,
                       SamplingFailure, UniquenessViolation, cli, quiver,
                       schemes)
from gentlelam.fileio import ParseError
from gentlelam.quiver import UnclassifiableBlock
from gentlelam.strings import SubspaceNotInvariant

TORUS = os.path.join(GOLDEN, "torus_quiver.json")
INTERNAL = (SamplingFailure, DictionaryExhausted, FormulaMismatch,
            UnclassifiableBlock, ConsistencyFailure, SubspaceNotInvariant)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    return code, out.out, out.err


def components(capsys, *extra):
    return run(capsys, "components", "--input", TORUS, "--dims", "1,1,0,0",
               "--format", "json", *extra)


def test_families():
    for cls in (NotGentle, NotJacobian, ParseError):
        assert issubclass(cls, InputError) and issubclass(cls, ValueError)
    assert issubclass(UniquenessViolation, FalseVerdict)
    for cls in INTERNAL:
        assert issubclass(cls, InternalError)
        assert not issubclass(cls, (ValueError, AssertionError))


def test_input_errors_exit_2(tmp_path, capsys):
    code, _, err = components(capsys, "--dims", "1,1,0")
    assert code == 2 and "--dims length" in err
    code, _, err = components(capsys, "--dims", "1,x,0,0")
    assert code == 2 and err.startswith("error: ")
    # a vertex with three outgoing arrows
    bad = tmp_path / "not_gentle.json"
    bad.write_text(json.dumps({
        "vertices": 4,
        "arrows": [{"id": a, "from": 1, "to": t}
                   for a, t in (("a", 2), ("b", 3), ("c", 4))],
        "relations": []}))
    code, _, err = run(capsys, "components", "--input", str(bad),
                       "--dims", "1,1,1,1")
    assert code == 2 and "axiom (i)" in err
    # a negative dimension of the right length
    code, _, err = components(capsys, "--dims=-1,0,0,0")
    assert code == 2 and "dimension vector" in err
    # malformed files: a module of the wrong length, a non-list matrix,
    # a matrix with entries at a zero space, an arrow that is not an object
    a3 = os.path.join(GOLDEN, "a3_relation.json")
    for module in ({"dims": [1, 1], "matrices": {}},
                   {"dims": [1, 1, 1, 5], "matrices": {}},
                   {"dims": [1, 1, 1], "matrices": {"a": 5}},
                   {"dims": [1, 0, 0], "matrices": {"a": "xyz"}},
                   {"dims": [1, 0, 0], "matrices": {"a": [[5]]}},
                   {"dims": [1, 0, 0], "matrices": {"a": [[1, 2, 3]]}}):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(module))
        code, out, err = run(capsys, "smooth", "--input", a3,
                             "--module", str(path))
        assert (code, out) == (2, "") and err.startswith("error: module"), \
            module
    bad.write_text(json.dumps({"vertices": 2, "arrows": [5]}))
    code, _, err = run(capsys, "check", "--input", str(bad))
    assert code == 2 and "expected a JSON object" in err
    # an open curve whose endpoint is not a (segment, end) pair
    code, _, err = run(capsys, "bangle", "--input",
                       os.path.join(GOLDEN, "pants.json"), "--curve",
                       '{"kind":"open","crossings":[1],"endpoints":[1]}')
    assert code == 2 and "endpoint" in err


def test_a_negative_vertex_count_exits_2(tmp_path, capsys):
    # with no arrows, no endpoint's range check can catch it
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps({"vertices": -1, "arrows": []}))
    code, out, err = run(capsys, "check", "--input", str(bad))
    assert (code, out) == (2, "") and "vertex count -1" in err


def test_json_numbers_that_are_no_integers_exit_2(tmp_path, capsys):
    """A float (even 1.0), a numeric string or a boolean where the file
    formats want an integer is a parse error, not truncated or coerced;
    a few milliseconds."""
    a3 = os.path.join(GOLDEN, "a3_relation.json")
    pants = os.path.join(GOLDEN, "pants.json")
    path = tmp_path / "input.json"
    for dims in ([1.7, 1, 0], [1.0, 1, 0], ["1", 1, 0], [True, 1, 0]):
        path.write_text(json.dumps({"dims": dims, "matrices": {}}))
        code, out, err = run(capsys, "smooth", "--input", a3,
                             "--module", str(path))
        assert (code, out) == (2, "") and \
            err.startswith("error: module dims: expected an integer"), dims
    with open(a3) as fh:
        algebra = json.load(fh)
    for field, value in (("vertices", 3.0), ("vertices", "3")):
        path.write_text(json.dumps(dict(algebra, **{field: value})))
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (2, "") and "expected an integer" in err
    algebra["arrows"][0]["from"] = "2"
    path.write_text(json.dumps(algebra))
    code, out, err = run(capsys, "check", "--input", str(path))
    assert (code, out) == (2, "") and "arrow from" in err
    with open(os.path.join(GOLDEN, "pants_petals.json")) as fh:
        petals = json.load(fh)
    for mult in (1.5, "1", True):
        petals[0]["mult"] = mult
        path.write_text(json.dumps(petals))
        code, out, err = run(capsys, "shear", "--input", pants,
                             "--lamination", str(path))
        assert (code, out) == (2, "") and "lamination mult" in err, mult
    code, out, err = run(capsys, "bangle", "--input", pants, "--curve",
                         '{"kind":"open","crossings":[1],'
                         '"endpoints":[[1,0.5],[2,1]]}')
    assert (code, out) == (2, "") and "endpoint end" in err


def test_edge_ids_that_are_no_integers_or_strings_exit_2(capsys):
    """JSON `true` is no arc 1, and 1.5 no edge id; a few milliseconds."""
    pants = os.path.join(GOLDEN, "pants.json")
    for arc in ("true", "1.5"):
        code, out, err = run(capsys, "bangle", "--input", pants, "--curve",
                             '{"kind": "loop", "crossings": '
                             f'[3, 6, {arc}, 5, 4, 6, 2]}}')
        assert (code, out) == (2, "") and "edge id" in err, arc


def test_open_curve_off_its_opposite_corners_exits_2(capsys):
    """A curve crossing arc 1 once cannot start and end at the one marked
    point of bA in minimal position."""
    code, out, err = run(capsys, "bangle", "--input",
                         os.path.join(GOLDEN, "pants.json"), "--curve",
                         '{"kind": "open", "crossings": [1], '
                         '"endpoints": [["bA", 0], ["bA", 0]]}')
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_bad_surface_files_exit_2(tmp_path, capsys):
    """An empty gluing, and the pants with its arcs renamed."""
    surface, lamination = tmp_path / "surface.json", tmp_path / "lam.json"
    surface.write_text(json.dumps({"internal_arcs": [],
                                   "boundary_segments": [],
                                   "triangles": []}))
    lamination.write_text("[]")
    code, out, err = run(capsys, "eta", "--input", str(surface),
                         "--lamination", str(lamination))
    assert (code, out) == (2, "") and "one piece" in err
    with open(os.path.join(GOLDEN, "pants.json")) as fh:
        pants = json.load(fh)
    # arcs 1..6 renamed 2..7
    shift = {a: a + 1 for a in pants["internal_arcs"]}
    surface.write_text(json.dumps({
        "internal_arcs": [shift[a] for a in pants["internal_arcs"]],
        "boundary_segments": pants["boundary_segments"],
        "triangles": [[shift.get(e, e) for e in t]
                      for t in pants["triangles"]]}))
    code, out, err = run(capsys, "shear", "--input", str(surface),
                         "--lamination",
                         os.path.join(GOLDEN, "pants_petals.json"))
    assert (code, out) == (2, "") and "integers 1..6" in err


def test_unwritable_output_exits_2(capsys):
    code, out, err = run(capsys, "check", "--input", TORUS,
                         "--output", os.path.join(os.sep, "nonexistent",
                                                  "x.txt"))
    assert (code, out) == (2, "") and err.startswith("error: --output")


def test_check_on_a_non_gentle_algebra_exits_1(tmp_path, capsys):
    path = tmp_path / "three_arrows.json"
    path.write_text(json.dumps({
        "vertices": 2,
        "arrows": [{"id": a, "from": 1, "to": 2} for a in "abc"],
        "relations": []}))
    code, out, _ = run(capsys, "check", "--input", str(path),
                       "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["gentle"] is False
    assert payload["reason"].startswith("axiom (i) fails: ")


def test_arrow_ids_that_word_text_misreads_exit_2(tmp_path, capsys):
    """With arrows `a` and `a-`, the text `a-` would name two words."""
    path = tmp_path / "algebra.json"
    for aid in ("a-", "a,b", "1@2", " a", ""):
        path.write_text(json.dumps({
            "vertices": 2,
            "arrows": [{"id": "a", "from": 1, "to": 2},
                       {"id": aid, "from": 2, "to": 1}],
            "relations": []}))
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (2, "") and "arrow id" in err, aid


def test_false_verdict_exits_1(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise UniquenessViolation("2 tau-reduced components at (1, 1, 0, 0)")

    monkeypatch.setattr(cli, "components", fail)
    code, out, err = components(capsys)
    assert code == 1 and not out
    assert err.startswith("false: ") and "2 tau-reduced" in err


@pytest.mark.parametrize("cls", INTERNAL, ids=lambda c: c.__name__)
def test_internal_errors_exit_3(capsys, monkeypatch, cls):
    def fail(*args, **kwargs):
        raise cls("bound exhausted or routes disagree")

    monkeypatch.setattr(cli, "ceh_by_words", fail)
    code, out, err = components(capsys)
    assert code == 3 and not out
    assert err.startswith(f"internal error ({cls.__name__}): ")


def test_internal_errors_raised_inside_the_library_exit_3(capsys,
                                                          monkeypatch):
    def fail(cls):
        def raise_it(*args, **kwargs):
            raise cls("raised inside the library")
        return raise_it

    # the word search behind every generic point
    monkeypatch.setattr(schemes, "generic_multiset", fail(SamplingFailure))
    code, _, err = components(capsys)
    assert code == 3 and "SamplingFailure" in err
    # the rho-blocks of every algebra read from a file
    monkeypatch.setattr(quiver, "_rho_blocks", fail(UnclassifiableBlock))
    code, _, err = run(capsys, "check", "--input", TORUS)
    assert code == 3 and "UnclassifiableBlock" in err


def test_failed_assertion_exits_3(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an internal check failed")

    monkeypatch.setattr(cli, "ceh_by_words", fail)
    code, _, err = components(capsys)
    assert code == 3 and "an internal check failed" in err


def test_recursion_error_exits_3(capsys, monkeypatch):
    """Python's recursion limit is an internal bound."""
    def fail(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "ceh_by_words", fail)
    code, out, err = components(capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal error (RecursionError): ")
    assert err.count("\n") == 1
