"""The rho-block facts pinned by digest: the blocks of 3,000 fuzzed
algebras with their Jacobian verdicts, and dim Z and the critical
summands of every component of {0, ..., 3}^6 on the pants algebra.
Both digests were computed on the code that walked paths and cycles
apart and derived the model's arrows in each block function, so they
hold the single chain walk and `schemes._model_arrows` to the same
facts.  Each test builds and drops its own algebras, so no memo
outlives it."""

import hashlib
import itertools
import random

from conftest import golden
from fuzz import random_gentle
from gentlelam import (block_critical_summands, build_QT, component_dim,
                       components, is_jacobian, rho_blocks)
from gentlelam.fileio import triangulation_from_dict

FUZZED_BLOCKS_DIGEST = \
    "609d46ecc5b570beeccbf5f7f0bef2cc907576cddee4df85d9f1a66479ff4a31"
PANTS_BOX_DIGEST = \
    "0bc8af8ee8ac1156e4b2f98438586621974f52a30935a6ae2443a98dd71342b7"


def block_row(b):
    return (b.block_id, b.arrows, b.vertices, b.block_type, b.model_size,
            b.relabel)


def test_fuzzed_blocks_and_jacobian_verdicts():
    digest, types = hashlib.sha256(), []
    for seed in range(3000):
        A = random_gentle(random.Random(seed))
        rows = [block_row(b) for b in rho_blocks(A)]
        digest.update(repr((seed, rows, is_jacobian(A))).encode() + b"\n")
        types += [b.type_name for b in rho_blocks(A)]
    cyclic = {t for t in types if t.startswith("C~")}
    assert len(types) == 8509
    assert sum(t in cyclic for t in types) == 1216
    assert cyclic == {"C~1", "C~2", "C~3", "C~4"}
    assert digest.hexdigest() == FUZZED_BLOCKS_DIGEST


def test_pants_box_dims_and_critical_summands():
    A = build_QT(triangulation_from_dict(golden("pants.json")))
    digest, count = hashlib.sha256(), 0
    for d in itertools.product(range(4), repeat=A.n):
        for Z in components(A, d):
            row = (Z.d, Z.r, component_dim(A, Z),
                   [(b.block_id, t1, t2)
                    for b, t1, t2 in block_critical_summands(A, Z)])
            digest.update(repr(row).encode() + b"\n")
            count += 1
    assert count == 14536
    assert digest.hexdigest() == PANTS_BOX_DIGEST
