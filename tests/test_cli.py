import json
import os

from conftest import GOLDEN, golden
from gentlelam import build_QT, fileio
from gentlelam.cli import main


def g(name):
    return os.path.join(GOLDEN, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_torus(capsys):
    code, out, _ = run(capsys, "check", "--input", g("torus_quiver.json"))
    assert code == 0
    assert "gentle Jacobian" in out and "blocks: 3,3,2" in out


def test_check_loop(capsys):
    code, out, _ = run(capsys, "check", "--input", g("loop_algebra.json"))
    assert code == 0
    assert "not Jacobian" in out and "loop at 1" in out


def test_check_disconnected(tmp_path, capsys):
    path = tmp_path / "two_points.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": []}))
    code, out, _ = run(capsys, "check", "--input", str(path))
    assert code == 0
    assert out == "gentle; not Jacobian (disconnected); blocks: \n" \
        "  block 1: C1 arrows=[]\n  block 2: C1 arrows=[]\n"
    code, out, _ = run(capsys, "check", "--input", str(path),
                       "--format", "json")
    data = json.loads(out)
    assert data["jacobian"] is False
    assert data["not_jacobian_reason"] == "disconnected"


def test_check_relation_without_completing_3_cycle(capsys):
    code, out, _ = run(capsys, "check", "--input", g("a3_relation.json"))
    assert code == 0
    assert out.splitlines()[0] == "gentle; not Jacobian (relation without " \
        "completing 3-cycle); blocks: 3"
    code, out, _ = run(capsys, "check", "--input", g("a3_relation.json"),
                       "--format", "json")
    assert json.loads(out)["not_jacobian_reason"] == \
        "relation without completing 3-cycle"


def test_check_json_roundtrip(capsys):
    code, out, _ = run(capsys, "check", "--input", g("torus_quiver.json"),
                       "--format", "json")
    data = json.loads(out)
    assert data["jacobian"] is True
    assert sorted(b["type"] for b in data["blocks"]) == ["C2", "C~3", "C~3"]


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "check", "--input", str(bad))
    assert code == 2
    assert "error" in err


def test_components_double_loop(capsys):
    code, out, _ = run(capsys, "components", "--input",
                       g("double_loop.json"), "--dims", "2,2,2,2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 3
    for entry in data["components"]:
        assert entry["dim"] == 16 and entry["band_only"]
        assert all(x["type"] == "band" for x in entry["decomposition"])


def test_components_pants_golden(tmp_path, capsys):
    """Byte-identical `components --format json` texts on the pants
    algebra, one or more d in {0,1,2}^6 per component count."""
    A = build_QT(fileio.load_triangulation(g("pants.json")))
    algebra = tmp_path / "pants_algebra.json"
    algebra.write_text(json.dumps(fileio.algebra_to_dict(A)))
    expected = golden("pants_components.json")
    counts = {len(want["components"]) for want in expected.values()}
    assert counts == {1, 2, 3, 4, 6, 8, 9, 12, 16}
    for dims, want in expected.items():
        code, out, _ = run(capsys, "components", "--input", str(algebra),
                           "--dims", dims, "--format", "json")
        assert code == 0
        assert out == json.dumps(want, indent=2) + "\n", dims


def test_smooth_verdict_exit_codes(tmp_path, capsys):
    module = {"dims": [1, 1, 1],
              "matrices": {"a": [[0]], "b": [[0]]}}
    mf = tmp_path / "m.json"
    mf.write_text(json.dumps(module))
    code, out, _ = run(capsys, "smooth", "--input", g("a3_relation.json"),
                       "--module", str(mf))
    assert code == 1 and "singular" in out
    module2 = {"dims": [1, 1, 0], "matrices": {"a": [[1]], "b": []}}
    mf2 = tmp_path / "m2.json"
    mf2.write_text(json.dumps(module2))
    code2, out2, _ = run(capsys, "smooth", "--input", g("a3_relation.json"),
                         "--module", str(mf2))
    assert code2 == 0 and "smooth" in out2


def test_bangle_annulus(capsys):
    code, out, _ = run(capsys, "bangle", "--input", g("annulus.json"),
                       "--curve", "loop:1,2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 3


def test_shear_eta_verify_pants(capsys):
    code, out, _ = run(capsys, "shear", "--input", g("pants.json"),
                       "--lamination", g("pants_petals.json"))
    assert code == 0 and out.strip() == "[0, -1, 1, -1, 1, 0]"
    code, out, _ = run(capsys, "eta", "--input", g("pants.json"),
                       "--lamination", g("pants_petals.json"),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == [1, 1, 1, 1, 1, 2]
    assert data["g_vector"] == [0, -1, 1, -1, 1, 0]
    assert data["tau_reduced"] is True
    code, out, _ = run(capsys, "verify", "--input", g("pants.json"),
                       "--lamination", g("pants_petals.json"))
    assert code == 0 and "EQUAL" in out


def test_verify_twice_a_long_string_curve(tmp_path, capsys):
    # the generic point holds a 13-letter string twice; with a dictionary
    # bound of 12 this valid input once exited 2
    curve = {"kind": "open", "crossings": [1, 2, 3, 4, 5] * 2 + [1, 2, 3, 4],
             "endpoints": [["bA", 0], ["bC", 0]]}
    lam = tmp_path / "long.json"
    lam.write_text(json.dumps([{"curve": curve, "mult": 2}]))
    code, out, err = run(capsys, "verify", "--input", g("pants.json"),
                         "--lamination", str(lam))
    assert (code, out, err) == (0, "EQUAL\n", "")


def test_fixed_seed_reproducible(capsys):
    args = ("components", "--input", g("a3_relation.json"), "--dims",
            "1,1,1", "--format", "json", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--input", g("torus_quiver.json"),
                       "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["gentle"] is True
