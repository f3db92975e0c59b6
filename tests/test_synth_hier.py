"""Hierarchical synthesis from majority-xor nets, with and without in-place XOR."""

import random

import pytest

from conftest import (
    HIER_VARIANTS,
    clean_ancillas,
    naive_xmg_eval,
    random_xmg,
    reachable_gate_counts,
    toffoli_count,
)
from revflow.arith import Design, DesignSpec, design_truth_table, design_xmg, gen_intdiv_xmg
from revflow.logicnet import TruthTable, Xmg
from revflow.revcirc import cost_report, verify_circuit
from revflow.synth_hier import hier_synth


def _net_table(net: Xmg) -> TruthTable:
    n, m = net.num_inputs, net.num_outputs
    return TruthTable(n, m, tuple(naive_xmg_eval(net, x) for x in range(1 << n)))


def test_single_maj_two_toffolis():
    net = Xmg()
    a, b, c = (net.add_input() for _ in range(3))
    net.add_output(net.add_maj(a, b, c))
    circ = hier_synth(net)
    assert toffoli_count(circ) == 2          # compute + uncompute
    assert verify_circuit(circ, TruthTable(3, 1, tuple(
        int(bin(x).count("1") >= 2) for x in range(8))))
    assert clean_ancillas(circ)


def test_maj_operands_ascending_with_at_most_one_negated():
    # hier_synth's role choice relies on this: operand c never scores lowest
    rng = random.Random(41)
    nets = [random_xmg(rng, rng.randrange(1, 6), 30, 2) for _ in range(300)]
    nets += [design_xmg(DesignSpec(design, 5)) for design in Design]
    for net in nets:
        for fanins in net.fanins[1 + net.num_inputs:]:
            if len(fanins) == 3:
                a, b, c = fanins
                assert a < b < c and (a & 1) + (b & 1) + (c & 1) <= 1


def test_single_xor_no_toffolis():
    net = Xmg()
    a, b = net.add_input(), net.add_input()
    net.add_output(net.add_xor(a, b))
    circ = hier_synth(net)
    assert toffoli_count(circ) == 0
    assert cost_report(circ).t_count == 0
    assert verify_circuit(circ, TruthTable(2, 1, (0, 1, 1, 0)))


def test_complemented_output():
    net = Xmg()
    a, b = net.add_input(), net.add_input()
    net.add_output(net.add_and(a, b) ^ 1)
    circ = hier_synth(net)
    assert verify_circuit(circ, TruthTable(2, 1, (1, 1, 1, 0)))
    assert clean_ancillas(circ)


def test_constant_output():
    net = Xmg()
    net.add_input()
    net.add_output(1)
    net.add_output(0)
    circ = hier_synth(net)
    assert verify_circuit(circ, TruthTable(1, 2, (1, 1)))


@pytest.mark.parametrize("variant", HIER_VARIANTS)
def test_random_nets(variant):
    rng = random.Random(131 + len(variant))
    for _ in range(30):
        net = random_xmg(rng, rng.randrange(2, 5), rng.randrange(1, 10),
                         rng.randrange(1, 4))
        circ = hier_synth(net, inplace_xor=HIER_VARIANTS[variant])
        assert verify_circuit(circ, _net_table(net))
        assert clean_ancillas(circ)
        # inputs sit on the low lines (RevCircuit.layout)
        assert all(target >= circ.num_inputs for target, _ in circ.gates)
        maj, _ = reachable_gate_counts(net)
        assert toffoli_count(circ) == 2 * maj
        assert cost_report(circ).t_count == 7 * toffoli_count(circ)


@pytest.mark.parametrize("variant", HIER_VARIANTS)
def test_intdiv_design(variant):
    spec = DesignSpec(Design.INTDIV, 4)
    circ = hier_synth(gen_intdiv_xmg(spec), inplace_xor=HIER_VARIANTS[variant])
    assert verify_circuit(circ, design_truth_table(spec))
    assert clean_ancillas(circ)


def test_bad_strategy_rejected():
    net = Xmg()
    net.add_output(net.add_input())
    for strategy in ("lazy", "eager"):
        with pytest.raises(ValueError):
            hier_synth(net, strategy=strategy)


def test_inplace_xor_saves_lines():
    # xor chain: each intermediate has a single consumer, so it can be fused
    net = Xmg()
    lits = [net.add_input() for _ in range(4)]
    acc = lits[0]
    for nxt in lits[1:]:
        acc = net.add_xor(acc, nxt)
    net.add_output(acc)
    base = hier_synth(net)
    opt = hier_synth(net, inplace_xor=True)
    assert opt.width < base.width
    tt = _net_table(net)
    assert verify_circuit(base, tt) and verify_circuit(opt, tt)
    assert clean_ancillas(opt)


def test_inplace_xor_noop_returns_input():
    net = Xmg()
    a, b, c = (net.add_input() for _ in range(3))
    net.add_output(net.add_maj(a, b, c))
    assert hier_synth(net, inplace_xor=True) == hier_synth(net)


def test_at_most_two_scratch_lines():
    # a MAJ's k-th input operand takes scratch line k, so plain mode lays out
    # the inputs, the outputs, one line per live gate and 0 to 2 scratch lines,
    # the count hier_synth sizes its CNOT controls by
    rng = random.Random(59)
    nets = [random_xmg(rng, rng.randrange(1, 7), rng.randrange(1, 40), rng.randrange(1, 4))
            for _ in range(200)]
    nets += [design_xmg(DesignSpec(design, n)) for design in Design for n in range(2, 9)]
    scratch_counts = set()
    for net in nets:
        plain = hier_synth(net)
        scratch = plain.width - net.num_inputs - net.num_outputs - sum(reachable_gate_counts(net))
        assert 0 <= scratch <= 2
        scratch_counts.add(scratch)
        assert hier_synth(net, inplace_xor=True).width <= plain.width
    assert scratch_counts == {0, 1, 2}


def test_inplace_xor_random_equivalence():
    rng = random.Random(167)
    for _ in range(25):
        net = random_xmg(rng, rng.randrange(2, 5), rng.randrange(2, 10),
                         rng.randrange(1, 3))
        base = hier_synth(net)
        opt = hier_synth(net, inplace_xor=True)
        tt = _net_table(net)
        assert verify_circuit(opt, tt)
        assert clean_ancillas(opt)
        assert opt.width <= base.width
