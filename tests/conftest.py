"""Shared test helpers: random nets and permutations, independent evaluators."""

import random

from revflow.logicnet import NodeKind, Xmg, lit_is_neg, lit_node
from revflow.revcirc import RevCircuit, simulate_source_batch

# the hier flow's variants, by test id: the inplace_xor switch of hier_synth
HIER_VARIANTS = {"bennett": False, "inplace_xor": True}


def random_permutation(rng: random.Random, width: int):
    images = list(range(1 << width))
    rng.shuffle(images)
    return tuple(images)


def random_xmg(rng: random.Random, num_inputs: int, num_gates: int, num_outputs: int) -> Xmg:
    """Random net mixing maj/xor/and/or with random edge complements.

    Folding may collapse some requested gates; that is part of the point.
    """
    net = Xmg()
    lits = [net.add_input() for _ in range(num_inputs)]
    lits.append(net.const0)
    for _ in range(num_gates):
        op = rng.randrange(4)
        pick = lambda: lits[rng.randrange(len(lits))] ^ rng.randrange(2)
        if op == 0:
            lit = net.add_xor(pick(), pick())
        elif op == 1:
            lit = net.add_maj(pick(), pick(), pick())
        elif op == 2:
            lit = net.add_and(pick(), pick())
        else:
            lit = net.add_or(pick(), pick())
        lits.append(lit)
    for _ in range(num_outputs):
        net.add_output(lits[rng.randrange(len(lits))] ^ rng.randrange(2))
    return net


def naive_xmg_eval(net: Xmg, x: int) -> int:
    """Recursive reference evaluator, structured nothing like the bit-parallel one."""

    def val(node: int) -> int:
        kind = net.kind(node)
        if kind is NodeKind.CONST0:
            return 0
        if kind is NodeKind.INPUT:
            return x >> (node - 1) & 1
        ops = [val(lit_node(e)) ^ lit_is_neg(e) for e in net.fanins(node)]
        if kind is NodeKind.XOR:
            return ops[0] ^ ops[1]
        return int(sum(ops) >= 2)

    word = 0
    for j, edge in enumerate(net.outputs):
        word |= (val(lit_node(edge)) ^ lit_is_neg(edge)) << j
    return word


def toffoli_count(circ: RevCircuit) -> int:
    return sum(1 for g in circ.gates if g.num_controls == 2)


def clean_ancillas(circ: RevCircuit) -> bool:
    """True iff every constant non-output line ends at its initial value."""
    planes = simulate_source_batch(circ)
    batch = 1 << circ.num_inputs
    full = (1 << batch) - 1
    out_lines = {circ.output_line(j) for j in range(circ.num_outputs)}
    for line in range(circ.width):
        c = circ.constants[line]
        if c is None or line in out_lines:
            continue
        if planes[line] != (full if c else 0):
            return False
    return True
