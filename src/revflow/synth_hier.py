"""Hierarchical synthesis: compile a logic network node by node.

Each MAJ node costs exactly one Toffoli through the identity
a xor ((a xor b) and (a xor c)) = MAJ(a, b, c): the two factors are built
with CNOTs, consumed as Toffoli controls, and torn down again.  XOR nodes
are pure CNOTs.  Factors normally form in place on the operand lines; when
an operand is a primary input the factor is built on a scratch line instead
so inputs are never written, only read.  A MAJ tears its factors down before
the next node is compiled, so hier uses at most two scratch lines: the k-th
input operand of a MAJ takes scratch line k, allocated the first time some
MAJ needs it.

A MAJ's gates come as one group: the factor set-up CNOTs, the Toffoli, the
set-up in reverse (the tear-down), then the node's own gates, the CNOT from
a and the NOT of a negated a.  The own gates write only the node's line,
which the tear-down neither reads nor writes, so they may come last.  There
they keep the last set-up CNOT the last gate on its controls until the
tear-down repeats it, which is where ``read_real``'s replay starts.

Cleanup is Bennett's: compute every node, copy the outputs out, then run
the compute phase in reverse, which leaves every ancilla at 0.  With
in-place XOR, an XOR node whose gate operand has no other reader is
computed onto that operand's line instead of a fresh one.

Only nodes some output reaches are compiled.  Reachability, and the reader
counts in-place XOR needs, come from one reverse sweep over the nodes in
topological order; the nodes are then compiled in one forward loop.
"""

from itertools import chain

from .logicnet import Xmg
from .revcirc import RevCircuit


def _readers(net: Xmg) -> bytearray:
    """readers[v]: how many outputs and live gates read node v, capped at 2.

    A node is live, on some path from an output, iff it has a reader.  Nodes
    are stored in topological order, so one backward sweep sees every
    reader of a node before the node itself.
    """
    fanins = net.fanins
    readers = bytearray(len(fanins))
    for edge in net.outputs:
        readers[edge >> 1] = 2 if readers[edge >> 1] else 1
    for node in range(len(fanins) - 1, net.num_inputs, -1):
        if readers[node]:
            for edge in fanins[node]:
                readers[edge >> 1] = 2 if readers[edge >> 1] else 1
    return readers


def hier_synth(net: Xmg, strategy: str = "bennett", *, inplace_xor: bool = False) -> RevCircuit:
    """Compile the network to a garbage-free circuit.

    Lines are inputs, then one line per primary output, then ancillas (all
    constant 0).  Output j ends as the j-th output function; every other
    non-input line returns to 0 on every input.  With ``inplace_xor``,
    single-reader XOR operands are overwritten instead of given a new line.
    """
    # Bennett cleanup is the only strategy; the argument stays only for
    # perfbench/pipeline.py, which passes "bennett", and goes once that
    # bench runs through run_flow.
    if strategy != "bennett":
        raise ValueError(f"unknown strategy {strategy!r}")
    n, m = net.num_inputs, net.num_outputs
    first_gate_lit = (1 + n) << 1  # literals below it are the constant or an input
    readers = _readers(net)
    # one control tuple per line for the CNOTs: a line per output and per
    # live node at most, and the two scratch lines
    fanins = net.fanins
    live = len(fanins) - 1 - n - readers.count(0, 1 + n)
    ctl = [(line << 1,) for line in range(n + m + live + 2)]
    line_of = [0] * len(fanins)  # node -> the line holding its value
    line_of[1:1 + n] = range(n)
    next_line = n + m
    scratch: list[int] = []  # scratch[k]: the line of a MAJ's k-th input operand
    compute: list = []
    for node in range(1 + n, len(fanins)):
        if not readers[node]:
            continue
        fi = fanins[node]
        if len(fi) == 2:  # an XOR
            a, b = fi  # stored phase-free, the complement lives on the edge
            # with inplace_xor, a gate operand read by this XOR alone is free
            # after the read, so the XOR can target its line and cleanup stays
            # a reversal; a is tried first
            for dest, src in ((a, b), (b, a)) if inplace_xor else ():
                if dest >= first_gate_lit and readers[dest >> 1] == 1:
                    line_of[node] = target = line_of[dest >> 1]
                    compute.append((target, ctl[line_of[src >> 1]]))
                    break
            else:
                line_of[node] = target = next_line
                next_line += 1
                compute.append((target, ctl[line_of[a >> 1]]))
                compute.append((target, ctl[line_of[b >> 1]]))
            continue
        line_of[node] = target = next_line
        next_line += 1
        # MAJ(a, b, c) = a xor ((a xor b) and (a xor c)).  Role a is only ever
        # read, so a constant there erases gates and an input there needs no
        # scratch protection.  A negated operand is cheaper in b/c (free
        # control polarity) than in a (extra NOT).  The first operand of
        # lowest score takes role a: 0 constant, 1 input, 3 gate, +1 negated.
        # Xmg stores the operands ascending with at most one negated, and a
        # constant scores below any input, an input below any gate.  So c
        # never scores below both others, and b scores below a only when a
        # alone is negated and both are inputs or both gates.
        a, b, c = fi
        sa = 0 if a < 2 else (1 if a < first_gate_lit else 3) + (a & 1)
        sb = 0 if b < 2 else (1 if b < first_gate_lit else 3) + (b & 1)
        if sb < sa:
            a, b = b, a
        a_const, a_neg = a < 2, a & 1
        if not a_const:
            a_line = line_of[a >> 1]
        setup: list = []
        controls = []
        k = 0  # input operands of this MAJ seen so far
        for op in (b, c):
            op_line = line_of[op >> 1]
            # with a constant a, each operand is its own factor as it stands
            if not a_const:
                if op < first_gate_lit:
                    # never write an input: build its factor on scratch line k
                    if k == len(scratch):
                        scratch.append(next_line)
                        next_line += 1
                    setup.append((scratch[k], ctl[op_line]))
                    setup.append((scratch[k], ctl[a_line]))
                    op_line = scratch[k]
                    k += 1
                else:
                    setup.append((op_line, ctl[a_line]))
            controls.append(op_line << 1 | (a_neg ^ (op & 1)))
        compute.extend(setup)
        ctl_b, ctl_c = controls
        compute.append((target, (ctl_b, ctl_c) if ctl_b < ctl_c else (ctl_c, ctl_b)))
        compute.extend(reversed(setup))
        # the own gates write only target, which the tear-down never touches
        if not a_const:
            compute.append((target, ctl[a_line]))
        if a_neg:
            compute.append((target, ()))
    copies = []
    for j, edge in enumerate(net.outputs):
        if edge >> 1:
            copies.append((n + j, ctl[line_of[edge >> 1]]))
        if edge & 1:
            copies.append((n + j, ()))
    names = [f"x{i}" for i in range(n)] + [f"y{j}" for j in range(m)]
    names += [f"a{k}" for k in range(next_line - n - m)]
    return RevCircuit.layout(next_line, chain(compute, copies, reversed(compute)), names, n, m, n)
