"""Acceptance gate: the end-to-end guarantees this package ships with.

Each test pins an exact expected result (or a 1-ulp bound where stated)
and a wall-clock budget. Oracles here are built independently of the
code under test wherever the check would otherwise be circular.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    HIER_VARIANTS,
    apply_gate,
    assert_tbs_settles_rows,
    clean_ancillas,
    random_permutation,
    reachable_gate_counts,
    simulate,
    toffoli_count,
)
from revflow.arith import (
    Design,
    DesignSpec,
    design_truth_table,
    design_xmg,
    gen_newton_xmg,
    oracle_reciprocal,
)
from revflow.cli import flow_source, run_flow
from revflow.embedding import Permutation, optimum_embed
from revflow.logicnet import EsopForm, TruthTable, esop_from_tt, esop_minimize, read_pla, write_pla
from revflow.revcirc import cost_report, read_real, simulate_full, verify_circuit, write_real
from revflow.synth_functional import tbs


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"


def test_oracle_spot_check():
    budget = Budget(0.001)
    got = oracle_reciprocal(8, 22)
    assert got == 11 == 0b00001011
    assert Fraction(got, 1 << 8) == Fraction(4296875, 10 ** 8)
    assert float(Fraction(got, 1 << 8)) == 0.04296875
    budget.check()


def test_optimum_embedding_qubit_counts():
    budget = Budget(10.0)
    expected = {4: 7, 5: 9, 6: 11, 7: 13, 8: 15, 9: 17, 10: 19}
    for n in range(4, 11):
        tt = design_truth_table(DesignSpec(Design.INTDIV, n))
        perm, emb = optimum_embed(tt)
        assert perm.width == emb.width == expected[n] == 2 * n - 1
        # independent lower bound: widest collision set decides the extra lines
        worst = max(Counter(tt.rows).values())
        extra = 0
        while (1 << extra) < worst:
            extra += 1
        assert emb.width == max(tt.num_inputs, tt.num_outputs + extra)
    budget.check()


def test_esop_qubit_counts():
    budget = Budget(5.0)
    for n in range(4, 9):
        circ = run_flow("esop", flow_source("esop", DesignSpec(Design.INTDIV, n)))
        assert circ.width == 2 * n
    budget.check()


def test_functional_flow_exact():
    budget = Budget(60.0)
    for n in range(4, 7):
        tt = design_truth_table(DesignSpec(Design.INTDIV, n))
        perm, emb = optimum_embed(tt)
        circ = tbs(perm, embedding=emb)
        assert simulate_full(circ) == perm
        assert verify_circuit(circ, tt)
        for x in (0, 1, (1 << n) - 1):
            word = simulate(circ, x)
            assert word >> circ.outputs.index(0) & ((1 << n) - 1) == tt.rows[x]
            got = 0
            for j in range(tt.num_outputs):
                got |= (word >> circ.outputs.index(j) & 1) << j
            assert got == oracle_reciprocal(n, x) if x else got == (1 << n) - 1
    budget.check()


def test_esop_flow_exact():
    budget = Budget(30.0)
    for n in range(4, 9):
        tt = design_truth_table(DesignSpec(Design.INTDIV, n))
        circ = run_flow("esop", esop_from_tt(tt))
        assert all(len(controls) <= n for _, controls in circ.gates)
        assert verify_circuit(circ, tt)
    budget.check()


def test_esop_minimize_one_large_group():
    """INTDIV n=12's first output alone: 2,049 Reed-Muller cubes on one
    output mask, so one group for the minimizer, which an all-pairs search
    of each pass would not finish in the budget."""
    tt = design_truth_table(DesignSpec(Design.INTDIV, 12))
    cut = EsopForm(12, 1, tuple((m, p, 1) for m, p, w in esop_from_tt(tt).cubes if w & 1))
    assert len(cut.cubes) == 2049
    budget = Budget(5.0)
    out = esop_minimize(cut)
    budget.check()
    assert len(out.cubes) == 946
    assert out.to_truth_table() == TruthTable(12, 1, tuple(row & 1 for row in tt.rows))


@pytest.mark.parametrize("variant", HIER_VARIANTS)
def test_hierarchical_flow_exact(variant):
    budget = Budget(60.0)
    for design in (Design.INTDIV, Design.NEWTON):
        for n in range(4, 7):
            spec = DesignSpec(design, n)
            net = design_xmg(spec)
            circ = run_flow("hier", net, inplace_xor=HIER_VARIANTS[variant])
            assert verify_circuit(circ, design_truth_table(spec))
            assert clean_ancillas(circ)
            maj, _ = reachable_gate_counts(net)
            rep = cost_report(circ)
            assert toffoli_count(circ) == 2 * maj
            assert rep.t_count == dict(rep.control_histogram).get(2, 0) * 7
            assert rep.t_count == 7 * toffoli_count(circ)
    budget.check()


def test_newton_accuracy():
    budget = Budget(30.0)
    for n in range(4, 9):
        tt = gen_newton_xmg(DesignSpec(Design.NEWTON, n)).to_truth_table()
        assert tt.rows[1] == 0                       # 1/1 wraps the n-bit field
        for x in range(1, 1 << n):
            assert abs(tt.rows[x] - oracle_reciprocal(n, x)) <= 1
    budget.check()


def test_property_suites(tmp_path):
    budget = Budget(120.0)
    rng = random.Random(2026)

    # synthesized circuits are permutations of their full state space
    for n in range(4, 7):
        for method in ("functional", "esop"):
            circ = run_flow(method, flow_source(method, DesignSpec(Design.INTDIV, n)))
            assert isinstance(simulate_full(circ), Permutation), (method, n)

    # every gate undoes itself
    for _ in range(200):
        circ = tbs(Permutation(3, random_permutation(rng, 3)))
        word = rng.randrange(8)
        for g in circ.gates:
            assert apply_gate(g, apply_gate(g, word)) == word

    # row-by-row synthesis never disturbs already-settled rows
    for _ in range(100):
        r = rng.randrange(1, 9)
        perm = Permutation(r, random_permutation(rng, r))
        assert_tbs_settles_rows(perm, reversed(tbs(perm).gates))

    # circuit and cube-list files survive a write/read cycle unchanged; the
    # table flows run on INTDIV alone, whose table NEWTON's equals
    # (test_newton_table_is_intdivs), and hier on each design's own network
    tt = design_truth_table(DesignSpec(Design.INTDIV, 4))
    esop = esop_minimize(esop_from_tt(tt))
    write_pla(esop, tmp_path / "acc.pla")
    assert read_pla(tmp_path / "acc.pla") == esop
    circuits = [run_flow("functional", esop), run_flow("esop", esop)]
    circuits += [run_flow("hier", design_xmg(DesignSpec(design, 4))) for design in Design]
    for circ in circuits:
        write_real(circ, tmp_path / "acc.real")
        assert read_real(tmp_path / "acc.real") == circ

    budget.check()
