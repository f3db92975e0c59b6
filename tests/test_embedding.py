"""Permutations and the two embeddings."""

import random
from collections import Counter

import pytest

from conftest import simulate
from revflow.embedding import Permutation, bennett_embed, min_additional_lines, optimum_embed
from revflow.logicnet import TruthTable
from revflow.revcirc import verify_circuit
from revflow.synth_functional import tbs


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation(2, (0, 1, 2))            # wrong size
    with pytest.raises(ValueError):
        Permutation(1, (0, 0))               # not injective
    with pytest.raises(ValueError):
        Permutation(1, (0, 2))               # out of range


def test_min_additional_lines_matches_counting():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 5)
        tt = TruthTable(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))
        worst = max(Counter(tt.rows).values())
        bits = 0
        while (1 << bits) < worst:
            bits += 1
        assert min_additional_lines(tt) == bits


def test_min_additional_lines_boundaries():
    # injective function needs nothing extra
    tt = TruthTable(2, 2, (2, 0, 3, 1))
    assert min_additional_lines(tt) == 0
    # constant function collides everywhere
    tt = TruthTable(3, 1, (1,) * 8)
    assert min_additional_lines(tt) == 3


def test_bennett_embed_shape_and_identity():
    tt = TruthTable(2, 2, (1, 3, 0, 2))
    perm, emb = bennett_embed(tt)
    assert perm.width == emb.width == 4
    assert all(perm.images[x] >> 2 == tt.rows[x] for x in range(4))
    # inputs on lines 0-1, constant 0 on lines 2-3, outputs on lines 2-3
    circ = tbs(perm, embedding=emb)
    assert circ.constants == (None, None, 0, 0)
    assert [circ.outputs.index(j) for j in range(2)] == [2, 3]
    for x in range(4):
        assert simulate(circ, x) >> 2 == tt.rows[x]
    # inputs pass through on the low lines for any constant block
    for w in range(16):
        assert perm.images[w] & 0b11 == w & 0b11
    # applying twice is the identity: each line is value xor f(input part)
    for w in range(16):
        assert perm.images[perm.images[w]] == w


def test_optimum_embed_properties():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 4)
        tt = TruthTable(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))
        perm, emb = optimum_embed(tt)
        assert perm.width == max(n, m + min_additional_lines(tt))
        assert (emb.source_inputs, emb.source_outputs, emb.width) == (n, m, perm.width)
        # output value on the top m lines, garbage words counting up from
        # zero per output value, in input order
        g = perm.width - m
        seen: dict[int, int] = {}
        for x in range(1 << n):
            image = perm.images[x]
            y = image >> g
            k = image & ((1 << g) - 1)
            assert y == tt.rows[x]
            assert k == seen.get(y, 0)
            seen[y] = k + 1


def test_optimum_embed_output_lines_on_top():
    tt = TruthTable(3, 2, tuple(x & 3 for x in range(8)))
    perm, emb = optimum_embed(tt)
    r = perm.width
    circ = tbs(perm, embedding=emb)
    assert [circ.outputs.index(j) for j in range(2)] == [r - 2, r - 1]
    for x in range(8):
        assert simulate(circ, x) >> (r - 2) == tt.rows[x]


def test_wrong_permutation_detected():
    tt = TruthTable(2, 2, (1, 3, 0, 2))
    perm, emb = optimum_embed(tt)
    assert verify_circuit(tbs(perm, embedding=emb), tt)
    bad = list(perm.images)
    bad[0], bad[1] = bad[1], bad[0]
    assert not verify_circuit(tbs(Permutation(perm.width, tuple(bad)), embedding=emb), tt)
