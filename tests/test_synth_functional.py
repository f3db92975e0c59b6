"""Transformation-based synthesis against exhaustive simulation."""

import random

import pytest

from conftest import assert_tbs_settles_rows, random_permutation, reference_tbs, simulate
from revflow.arith import Design, DesignSpec, design_truth_table
from revflow.embedding import Embedding, Permutation, bennett_embed, optimum_embed
from revflow.revcirc import read_real, simulate_full, verify_circuit, write_real
from revflow.synth_functional import tbs


def test_identity_needs_no_gates():
    perm = Permutation(3, tuple(range(8)))
    assert tbs(perm).gates == ()


def test_single_not():
    perm = Permutation(1, (1, 0))
    circ = tbs(perm)
    assert len(circ.gates) == 1
    assert circ.gates[0][1] == ()
    assert simulate_full(circ).images == (1, 0)


def test_swap_of_two_lines():
    # (x0, x1) -> (x1, x0)
    perm = Permutation(2, (0, 2, 1, 3))
    circ = tbs(perm)
    assert simulate_full(circ).images == perm.images


# widths past 6 cross the 64-row steps at which tbs shifts settled rows out
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_random_permutations_exact(width):
    rng = random.Random(100 + width)
    for _ in range(6):
        perm = Permutation(width, random_permutation(rng, width))
        circ = tbs(perm)
        assert simulate_full(circ).images == perm.images
        assert circ.gates == reference_tbs(perm)


def swapped_rows(width: int, pairs) -> Permutation:
    """The identity on width lines with each pair of rows swapped in turn."""
    images = list(range(1 << width))
    for a, b in pairs:
        images[a], images[b] = images[b], images[a]
    return Permutation(width, tuple(images))


# almost every row is its own image, so tbs jumps over runs of fixed rows,
# and the runs cross the 64-row blocks
@pytest.mark.parametrize("width", [6, 7, 8, 9, 10])
def test_near_identity_permutations_exact(width):
    rng = random.Random(300 + width)
    last = (1 << width) - 1
    perms = [swapped_rows(width, [(last - 1, last)])]
    if width > 6:
        perms.append(swapped_rows(width, [(63, 64)]))
    for swaps in (1, 2, 3, 5):
        perms.append(swapped_rows(width, [rng.sample(range(last + 1), 2) for _ in range(swaps)]))
        # rows one bit apart: a row whose image differs from it in one line only
        rows = rng.sample(range(last + 1), swaps)
        perms.append(swapped_rows(width, [(a, a ^ 1 << rng.randrange(width)) for a in rows]))
    for perm in perms:
        circ = tbs(perm)
        assert simulate_full(circ).images == perm.images
        assert circ.gates == reference_tbs(perm)


# a gate's controls hold the ones of the row it fixes, so rows swapped among
# themselves in a block whose rows share high bits disturb only rows that
# have those bits: tbs passes the blocks between such rows, and the first
# rows up to them, with one jump and one shift of the planes
@pytest.mark.parametrize("width", [10, 11, 12])
def test_settled_blocks_exact(width):
    rng = random.Random(400 + width)
    last = (1 << width) - 1
    last_block = range(last - 63, last + 1)
    top = 0b101 << (width - 3)
    top_block = range(top, top + 64)
    perms = [
        swapped_rows(width, [(rng.choice(last_block), rng.choice(last_block)) for _ in range(3)]),
        swapped_rows(width, [(rng.choice(top_block), rng.choice(top_block)) for _ in range(2)]
                     + [(rng.choice(last_block), rng.choice(last_block)) for _ in range(2)]),
        swapped_rows(width, [(top + 5, top + 64 + 9)]),
    ]
    for perm in perms:
        circ = tbs(perm)
        assert simulate_full(circ).images == perm.images
        assert circ.gates == reference_tbs(perm)


def test_trace_monotone_prefix_invariant():
    rng = random.Random(55)
    for _ in range(20):
        width = rng.randrange(1, 7)
        perm = Permutation(width, random_permutation(rng, width))
        assert_tbs_settles_rows(perm, reversed(tbs(perm).gates))


def test_invariant_check_rejects_bad_trace():
    perm = Permutation(2, (0, 1, 3, 2))
    emitted = list(reversed(tbs(perm).gates))
    assert_tbs_settles_rows(perm, emitted)
    with pytest.raises(AssertionError, match="unsettled"):
        assert_tbs_settles_rows(perm, emitted[:-1])
    with pytest.raises(AssertionError, match="settled row moved"):
        assert_tbs_settles_rows(perm, emitted + [(0, ())])


def test_embedding_roles_stamped():
    tt = design_truth_table(DesignSpec(Design.INTDIV, 3))
    perm, emb = optimum_embed(tt)
    circ = tbs(perm, embedding=emb)
    assert circ.num_inputs == 3
    assert circ.num_outputs == 3
    assert circ.constants == (None,) * 3 + (0,) * (emb.width - 3)
    r, m = emb.width, emb.source_outputs
    for j in range(m):
        assert circ.outputs.index(j) == r - m + j
    for x in range(8):
        assert simulate(circ, x) >> (r - m) == tt.rows[x]
    assert verify_circuit(circ, tt)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
def test_bare_permutation_is_its_own_embedding(width, tmp_path):
    # every line x<i> an input and an output, as the embedding n = m = r lays it out
    perm = Permutation(width, random_permutation(random.Random(300 + width), width))
    circ = tbs(perm)
    assert circ == tbs(perm, Embedding(width, width, width))
    assert circ.constants == (None,) * width
    assert circ.outputs == tuple(range(width))
    assert circ.line_names == tuple(f"x{i}" for i in range(width))
    path = tmp_path / "c.real"
    write_real(circ, path)
    assert read_real(path) == circ


@pytest.mark.parametrize("embed", [optimum_embed, bennett_embed])
def test_intdiv_both_embeddings(embed):
    for n in (4, 5, 6):
        tt = design_truth_table(DesignSpec(Design.INTDIV, n))
        perm, emb = embed(tt)
        circ = tbs(perm, embedding=emb)
        assert simulate_full(circ).images == perm.images
        assert verify_circuit(circ, tt)
        assert circ.gates == reference_tbs(perm)
