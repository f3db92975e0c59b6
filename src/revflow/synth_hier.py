"""Hierarchical synthesis: compile a logic network node by node.

Each MAJ node costs exactly one Toffoli through the identity
a xor ((a xor b) and (a xor c)) = MAJ(a, b, c): the two factors are built
with CNOTs, consumed as Toffoli controls, and torn down again.  XOR nodes
are pure CNOTs.  Factors normally form in place on the operand lines; when
an operand is a primary input the factor is built on a scratch line instead
so inputs are never written, only read.

Cleanup is Bennett's: compute every node, copy the outputs out, then run
the compute phase in reverse, which leaves every ancilla at 0.  With
in-place XOR, an XOR node whose gate operand has no other reader is
computed onto that operand's line instead of a fresh one.
"""

from __future__ import annotations

from collections import Counter

from .logicnet import NodeKind, Xmg, lit_is_neg, lit_node
from .revcirc import MctGate, RevCircuit, cnot

__all__ = ["hier_synth"]


def _reachable_gates(net: Xmg) -> set:
    """Gate nodes on some path from an output, found by walking fanins."""
    first_gate = 1 + net.num_inputs
    todo = [lit_node(e) for e in net.outputs]
    seen = set()
    while todo:
        node = todo.pop()
        if node < first_gate or node in seen:
            continue
        seen.add(node)
        todo.extend(lit_node(e) for e in net.fanins(node))
    return seen


def _absorbed_operands(net: Xmg, reach: set) -> dict[int, int]:
    """{xor_node: operand} for reachable XOR nodes with a single-reader gate operand.

    Such an operand's line is free once the XOR has read it, so the XOR can
    target it directly and cleanup stays a straight reversal.
    """
    first_gate = 1 + net.num_inputs
    uses = Counter(lit_node(e) for v in reach for e in net.fanins(v))
    uses.update(lit_node(e) for e in net.outputs)
    absorbed = {}
    for v in reach:
        if net.kind(v) is NodeKind.XOR:
            for edge in net.fanins(v):
                u = lit_node(edge)
                if u >= first_gate and uses[u] == 1:
                    absorbed[v] = u
                    break
    return absorbed


class _Compiler:
    def __init__(self, net: Xmg):
        self.net = net
        self.n = net.num_inputs
        self.m = net.num_outputs
        self.line_of: dict[int, int] = {}
        self.next_line = self.n + self.m
        self.scratch_pool: list[int] = []

    def alloc(self) -> int:
        line = self.next_line
        self.next_line += 1
        return line

    def take_scratch(self) -> int:
        if self.scratch_pool:
            return self.scratch_pool.pop()
        return self.alloc()

    def line(self, node: int) -> int:
        if 1 <= node <= self.n:
            return node - 1
        return self.line_of[node]

    def emit_node(self, node: int) -> list[MctGate]:
        """Compute the node onto a fresh line; returns the gate sequence."""
        kind = self.net.kind(node)
        fanins = self.net.fanins(node)
        target = self.alloc()
        self.line_of[node] = target
        if kind is NodeKind.XOR:
            a, b = fanins  # stored phase-free, complement lives on the edge
            return [cnot(self.line(lit_node(a)), target),
                    cnot(self.line(lit_node(b)), target)]
        return self._emit_maj(fanins, target)

    def emit_inplace_xor(self, node: int, absorb: int) -> MctGate:
        """Compute an XOR node onto its absorbed operand's line."""
        other = next(e for e in self.net.fanins(node) if lit_node(e) != absorb)
        target = self.line(absorb)
        self.line_of[node] = target
        return cnot(self.line(lit_node(other)), target)

    def _emit_maj(self, fanins, target: int) -> list[MctGate]:
        ops = [(lit_node(e), lit_is_neg(e)) for e in fanins]

        # Role a is only ever read, so a constant there erases gates and an
        # input there needs no scratch protection.  A negated operand is
        # cheaper in b/c (free control polarity) than in a (extra NOT).
        def a_score(item):
            node, neg = item
            if node == 0:
                return 0
            base = 1 if node <= self.n else 3
            return base + (1 if neg else 0)

        a_item = min(ops, key=a_score)
        ops.remove(a_item)
        a_node, a_neg = a_item
        a_const = a_node == 0
        a_line = None if a_const else self.line(a_node)

        setup: list[MctGate] = []
        controls = []
        released: list[int] = []
        for op_node, op_neg in ops:
            invert = a_neg ^ op_neg
            op_line = self.line(op_node)
            if a_const:
                ctl = op_line
            elif op_node <= self.n:
                s = self.take_scratch()
                released.append(s)
                setup.append(cnot(op_line, s))
                setup.append(cnot(a_line, s))
                ctl = s
            else:
                setup.append(cnot(a_line, op_line))
                ctl = op_line
            controls.append(ctl << 1 | invert)

        seq = list(setup)
        seq.append(MctGate(target, tuple(sorted(controls))))
        if not a_const:
            seq.append(cnot(a_line, target))
        if a_neg:
            seq.append(MctGate(target))
        seq.extend(reversed(setup))
        self.scratch_pool.extend(reversed(released))
        return seq

    def output_copy(self, j: int) -> list[MctGate]:
        edge = self.net.outputs[j]
        node, neg = lit_node(edge), lit_is_neg(edge)
        target = self.n + j
        seq = []
        if node != 0:
            seq.append(cnot(self.line(node), target))
        if neg:
            seq.append(MctGate(target))
        return seq

    def finish(self, gates: list[MctGate]) -> RevCircuit:
        width = self.next_line
        names = [f"x{i}" for i in range(self.n)] + [f"y{j}" for j in range(self.m)]
        names += [f"a{k}" for k in range(width - self.n - self.m)]
        return RevCircuit.layout(width, gates, names, self.n, self.m, self.n)


def hier_synth(net: Xmg, strategy: str = "bennett", *, inplace_xor: bool = False) -> RevCircuit:
    """Compile the network to a garbage-free circuit.

    Lines are inputs, then one line per primary output, then ancillas (all
    constant 0).  Output j ends as the j-th output function; every other
    non-input line returns to 0 on every input.  With ``inplace_xor``,
    single-reader XOR operands are overwritten instead of given a new line.
    """
    # Bennett cleanup is the only strategy; the argument stays so that
    # callers naming it explicitly (as `revflow synth --cleanup` does) keep working.
    if strategy != "bennett":
        raise ValueError(f"unknown strategy {strategy!r}")
    comp = _Compiler(net)
    reach = _reachable_gates(net)
    absorbed = _absorbed_operands(net, reach) if inplace_xor else {}
    compute: list[MctGate] = []
    for node, _kind, _fi in net.gates():
        if node not in reach:
            continue
        absorb = absorbed.get(node)
        if absorb is None:
            compute.extend(comp.emit_node(node))
        else:
            compute.append(comp.emit_inplace_xor(node, absorb))
    gates = list(compute)
    for j in range(comp.m):
        gates.extend(comp.output_copy(j))
    gates.extend(reversed(compute))
    return comp.finish(gates)
