"""Objects built once and kept on the object they describe."""

import json
import os

from conftest import GOLDEN
from gentlelam import (Quiver, Triangulation, build_QT, components,
                       generic_point, is_jacobian, quiver, rho_blocks,
                       validate_gentle)
from gentlelam.cli import main
from gentlelam.fileio import load_algebra
from gentlelam.homological import projective_rep


def test_algebra_kept_on_triangulation(pants, annulus):
    A = build_QT(pants)
    assert build_QT(pants) is A
    assert build_QT(annulus) is not A


def test_projectives_kept_on_algebra(pants_algebra, torus_algebra):
    for A in (pants_algebra, torus_algebra):
        for i in range(1, A.n + 1):
            assert projective_rep(A, i) is projective_rep(A, i)
    assert projective_rep(pants_algebra, 1) is not \
        projective_rep(torus_algebra, 1)


def test_blocks_kept_on_algebra(pants_algebra):
    blocks = rho_blocks(pants_algebra)
    assert isinstance(blocks, tuple)
    assert rho_blocks(pants_algebra) is blocks
    # equal algebras are distinct objects, each with its own blocks
    q = Quiver(3, (("a", 2, 1), ("b", 3, 2)))
    A, B = (validate_gentle(q, [("a", "b")]) for _ in range(2))
    assert A == B
    assert rho_blocks(A) == rho_blocks(B)
    assert rho_blocks(A) is not rho_blocks(B)


def test_generic_point_is_determined_by_component_and_seed(pants):
    A = build_QT(pants)
    B = build_QT(Triangulation(pants.internal_arcs, pants.boundary_segments,
                               pants.triangles))
    assert A == B and A is not B
    for Z in components(A, (1, 1, 1, 1, 1, 1)):
        for seed in (4, 5):
            M = generic_point(A, Z, seed)
            assert generic_point(A, Z, seed) == M
            # an equal fresh algebra gives an equal point
            assert generic_point(B, Z, seed) == M



def test_jacobian_verdict_kept_on_algebra(capsys, monkeypatch):
    # a `components` request decides it once, not again per component
    calls = []
    decide = quiver._is_jacobian
    monkeypatch.setattr(quiver, "_is_jacobian",
                        lambda A: calls.append(A) or decide(A))
    path = os.path.join(GOLDEN, "torus_quiver.json")
    assert main(["components", "--input", path, "--dims", "2,1,1,0",
                 "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["components"]) > 1
    assert len(calls) == 1
    A = load_algebra(path)
    assert is_jacobian(A) is True and is_jacobian(A) is True
    assert len(calls) == 2 and calls[1] is A
