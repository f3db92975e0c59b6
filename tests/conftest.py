"""Shared test helpers: the flow table, random nets and permutations, a
circuit of all-input lines, and the independent references the library is
checked against (scalar simulator, a plane simulator that runs every gate,
scalar TBS, a bit-parallel and a naive XMG evaluator, a naive ESOP
evaluator, a position-scanning ESOP minimizer, a plain strash builder,
reachable gate counts, per-bit transpose, a row-word Reed-Muller butterfly,
per-cube PLA and per-node XMG writers, a per-character PLA reader and the
gate checks)."""

import random

from revflow.arith import Design
from revflow.embedding import Permutation
from revflow.logicnet import EsopForm, ParseError, TruthTable, Xmg, _input_pattern, _transpose
from revflow.revcirc import RevCircuit

# the hier flow's variants, by test id: the inplace_xor switch of hier_synth
HIER_VARIANTS = {"bennett": False, "inplace_xor": True}

# every combination of method and flow switch that run_flow offers, by test
# id: (method, run_flow keyword arguments, the same switches on the command line)
FLOWS = {
    "functional-optimum": ("functional", {"embedding": "optimum"}, []),
    "functional-bennett": ("functional", {"embedding": "bennett"}, ["--embedding", "bennett"]),
    "esop": ("esop", {}, []),
    "hier-bennett": ("hier", {"inplace_xor": False}, []),
    "hier-inplace_xor": ("hier", {"inplace_xor": True}, ["--inplace-xor"]),
}

# the (design, flow) cases of the whole-flow tests, with ids "flow-design":
# NEWTON's truth table is INTDIV's (test_newton_table_is_intdivs), so the
# table flows run on INTDIV alone; hier compiles each design's own network
DESIGN_FLOWS = [(design, flow) for design in Design for flow in FLOWS
                if design is Design.INTDIV or FLOWS[flow][0] == "hier"]
DESIGN_FLOW_IDS = [f"{flow}-{design.value}" for design, flow in DESIGN_FLOWS]


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
    lits.append(0)
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


def xmg_kind(net: Xmg, node: int) -> str:
    """The node's kind, "const0", "input", "xor" or "maj", from its position
    and its fanin count."""
    if node == 0:
        return "const0"
    if node <= net.num_inputs:
        return "input"
    return {2: "xor", 3: "maj"}[len(net.fanins[node])]


def xmg_truth_table(net: Xmg) -> TruthTable:
    """The network's table: all assignments at once, one bit-parallel pass per node."""
    n = net.num_inputs
    ones = (1 << (1 << n)) - 1
    values = [0] * net.num_nodes
    for i in range(n):
        values[1 + i] = _input_pattern(i, n)

    def edge(literal: int) -> int:
        v = values[literal >> 1]
        return v ^ ones if literal & 1 else v

    for node, fi in enumerate(net.fanins[1 + n:], start=1 + n):
        if len(fi) == 2:
            values[node] = edge(fi[0]) ^ edge(fi[1])
        else:
            va, vb, vc = (edge(f) for f in fi)
            values[node] = (va & vb) | (va & vc) | (vb & vc)
    cols = [edge(out) for out in net.outputs]
    return TruthTable(n, net.num_outputs, tuple(_transpose(cols, 1 << n)))


def naive_xmg_eval(net: Xmg, x: int) -> int:
    """Recursive reference evaluator, structured nothing like the bit-parallel one."""

    def val(node: int) -> int:
        kind = xmg_kind(net, node)
        if kind == "const0":
            return 0
        if kind == "input":
            return x >> (node - 1) & 1
        ops = [val(e >> 1) ^ (e & 1) for e in net.fanins[node]]
        if kind == "xor":
            return ops[0] ^ ops[1]
        return int(sum(ops) >= 2)

    word = 0
    for j, edge in enumerate(net.outputs):
        word |= (val(edge >> 1) ^ (edge & 1)) << j
    return word


def _complement(literal: int) -> int:
    return literal + 1 if literal % 2 == 0 else literal - 1


class ReferenceXmg:
    """Strash builder written plainly, to check Xmg's add_* kernels against.

    Keys carry the kind tag, each literal is checked on its own, and a MAJ's
    operands are complemented as a list and sorted with sorted().  The
    folding rules, their order, the self-dual rule and the error message are
    the ones Xmg documents.
    """

    def __init__(self):
        self.kinds = ["const0"]
        self.fanins = [()]
        self.strash = {}

    def add_input(self) -> int:
        self.kinds.append("input")
        self.fanins.append(())
        return 2 * (len(self.kinds) - 1)

    def _check(self, literal: int) -> None:
        if literal < 0 or literal // 2 >= len(self.kinds):
            raise ValueError(f"literal {literal} references an unknown node")

    def _node(self, kind: str, ops: tuple) -> int:
        key = (kind, *ops)
        if key not in self.strash:
            self.strash[key] = len(self.kinds)
            self.kinds.append(kind)
            self.fanins.append(ops)
        return self.strash[key]

    def add_xor(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        neg = a % 2 != b % 2
        a -= a % 2
        b -= b % 2
        if a == b:
            return int(neg)
        if a == 0:
            return b + neg
        if b == 0:
            return a + neg
        return 2 * self._node("xor", (min(a, b), max(a, b))) + neg

    def add_maj(self, a: int, b: int, c: int) -> int:
        for x in (a, b, c):
            self._check(x)
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x == y:
                return x
            if x == _complement(y):
                return z
        ops = [a, b, c]
        neg = sum(x % 2 for x in ops) >= 2
        if neg:
            ops = [_complement(x) for x in ops]
        return 2 * self._node("maj", tuple(sorted(ops))) + neg

    def add_and(self, a: int, b: int) -> int:
        return self.add_maj(a, b, 0)

    def add_or(self, a: int, b: int) -> int:
        return self.add_maj(a, b, 1)


def naive_transpose(words, width: int) -> list:
    """Bit k of result[i] is bit i of words[k], one bit at a time."""
    result = [0] * width
    for k, word in enumerate(words):
        for i in range(width):
            result[i] |= (word >> i & 1) << k
    return result


def naive_esop_eval(esop: EsopForm, x: int) -> int:
    """Output word at one assignment: the XOR of every cube whose literals all hold."""
    word = 0
    for mask, polarity, output_mask in esop.cubes:
        literals = [i for i in range(esop.num_inputs) if mask >> i & 1]
        if all(x >> i & 1 == polarity >> i & 1 for i in literals):
            word ^= output_mask
    return word


def reference_esop_minimize(esop: EsopForm) -> EsopForm:
    """esop_minimize by its rule, restarting after every change, every
    partner found by scanning the list by position.

    If a literal set repeats, each set's cubes XOR their output masks into
    its first cube and cubes left driving nothing drop.  Otherwise take the
    first cube, in list order, and its first literal, in ascending input
    order, for which a cube with the same output mask has the same literals
    with that one's phase flipped, or with that one left out; the first
    such partner found merges with it into the earlier of the two places
    and the later one is deleted.
    """
    cubes = list(esop.cubes)
    while True:
        keys = [(mask, polarity) for mask, polarity, _ in cubes]
        if any(keys.count(key) > 1 for key in keys):
            combined = []
            for k, key in enumerate(keys):
                if keys.index(key) == k:
                    word = 0
                    for j in range(k, len(keys)):
                        if keys[j] == key:
                            word ^= cubes[j][2]
                    if word:
                        combined.append((*key, word))
            cubes = combined
            continue
        merge = _first_distance1_merge(cubes, esop.num_inputs)
        if merge is None:
            return EsopForm(esop.num_inputs, esop.num_outputs, tuple(cubes))
        lo, hi, merged = merge
        cubes[lo] = merged
        del cubes[hi]


def _first_distance1_merge(cubes, num_inputs):
    for k, (mask, polarity, output_mask) in enumerate(cubes):
        for i in range(num_inputs):
            bit = 1 << i
            if not mask & bit:
                continue
            flipped = (mask, polarity ^ bit, output_mask)
            dropped = (mask & ~bit, polarity & ~bit, output_mask)
            # a flipped phase merges to the literal left out, and the reverse
            for partner, merged in ((flipped, dropped), (dropped, flipped)):
                for j, d in enumerate(cubes):
                    if d == partner:
                        return min(j, k), max(j, k), merged
    return None


def reference_esop_from_tt(tt: TruthTable) -> EsopForm:
    """esop_from_tt by the butterfly on the row words: for each input i,
    every row with input i set XORs in the row without it, one row at a
    time; each nonzero coefficient word at monomial s is a cube, s ascending."""
    n = tt.num_inputs
    coeff = list(tt.rows)
    for i in range(n):
        bit = 1 << i
        for x in range(1 << n):
            if x & bit:
                coeff[x] ^= coeff[x ^ bit]
    cubes = tuple((s, s, w) for s, w in enumerate(coeff) if w)
    return EsopForm(n, tt.num_outputs, cubes)


def reference_write_pla(esop: EsopForm, path) -> None:
    """write_pla's text, spelled one cube and one character at a time."""
    lines = [f".i {esop.num_inputs}", f".o {esop.num_outputs}", ".type esop"]
    for mask, polarity, output_mask in esop.cubes:
        ins = []
        for i in range(esop.num_inputs):
            bit = 1 << i
            if not mask & bit:
                ins.append("-")
            elif polarity & bit:
                ins.append("1")
            else:
                ins.append("0")
        outs = ["1" if output_mask >> j & 1 else "0" for j in range(esop.num_outputs)]
        lines.append("".join(ins) + " " + "".join(outs))
    lines.append(".e")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_write_xmg(net: Xmg, path) -> None:
    """write_xmg's text, one node and one operand at a time."""
    lines = [f".xmg {net.num_inputs} {net.num_outputs} {net.num_nodes - 1 - net.num_inputs}"]
    for fi in net.fanins[1 + net.num_inputs:]:
        word = "maj" if len(fi) == 3 else "xor"
        lines.append(word + " " + " ".join(str(f) for f in fi))
    for out in net.outputs:
        lines.append(f"out {out}")
    lines.append(".end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_read_pla(path) -> EsopForm:
    """read_pla's dialect and messages, the text and each column read one
    character at a time: a line ends at "\\n", "\\r\\n" or "\\r", and a "#"
    drops the rest of its line."""
    name = str(path)
    n = m = None
    cubes = []
    ended = typed = False
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = [""]
    comment = False
    previous = ""
    for ch in text:
        if ch == "\n" and previous == "\r":
            pass  # the end of a "\r\n" line break
        elif ch == "\n" or ch == "\r":
            lines.append("")
            comment = False
        elif ch == "#":
            comment = True
        elif not comment:
            lines[-1] += ch
        previous = ch
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after .e", name, lineno)
        fields = line.split()
        if line[0] == ".":
            key = fields[0]
            if key in (".i", ".o"):
                if cubes:
                    raise ParseError(f"{key} header after the first cube", name, lineno)
                if (n if key == ".i" else m) is not None:
                    raise ParseError(f"{key} header given twice", name, lineno)
                if len(fields) != 2 or not all(ch in "0123456789" for ch in fields[1]):
                    raise ParseError(f"malformed {key} header", name, lineno)
                if key == ".i":
                    n = int(fields[1])
                else:
                    m = int(fields[1])
            elif key == ".type":
                if fields[1:] != ["esop"]:
                    raise ParseError("only .type esop is supported", name, lineno)
                typed = True
            elif key == ".e":
                if fields != [".e"]:
                    raise ParseError(".e takes no fields", name, lineno)
                ended = True
            else:
                raise ParseError(f"unknown directive {key}", name, lineno)
            continue
        if n is None or m is None:
            raise ParseError("cube before .i/.o headers", name, lineno)
        if not typed:
            raise ParseError("cube before .type esop declaration", name, lineno)
        if n == 0 and len(fields) == 1:
            fields = ["", fields[0]]
        if len(fields) != 2:
            raise ParseError("cube line needs an input and an output pattern", name, lineno)
        ins, outs = fields
        if len(ins) != n:
            raise ParseError(f"input pattern has {len(ins)} columns, expected {n}", name, lineno)
        if len(outs) != m:
            raise ParseError(f"output pattern has {len(outs)} columns, expected {m}", name, lineno)
        mask = polarity = output_mask = 0
        for i, ch in enumerate(ins):
            if ch not in "01-":
                raise ParseError(f"bad input column character {ch!r}", name, lineno)
            if ch != "-":
                mask |= 1 << i
                polarity |= (ch == "1") << i
        for j, ch in enumerate(outs):
            if ch not in "01":
                raise ParseError(f"bad output column character {ch!r}", name, lineno)
            output_mask |= (ch == "1") << j
        if not output_mask:
            raise ParseError("cube drives no outputs", name, lineno)
        cubes.append((mask, polarity, output_mask))
    if n is None or m is None:
        raise ParseError("missing .i/.o headers", name)
    if not ended:
        raise ParseError("missing .e terminator", name)
    return EsopForm(n, m, tuple(cubes))


def reachable_gate_counts(net: Xmg) -> tuple:
    """(MAJ, XOR) counts of the gate nodes some output reaches, by a fanin walk."""
    todo = [e >> 1 for e in net.outputs]
    reached = set()
    while todo:
        node = todo.pop()
        if node not in reached and xmg_kind(net, node) in ("maj", "xor"):
            reached.add(node)
            todo.extend(e >> 1 for e in net.fanins[node])
    maj = sum(1 for node in reached if xmg_kind(net, node) == "maj")
    return maj, len(reached) - maj


def generic(width: int, gates) -> RevCircuit:
    """A circuit whose every line l<i> is a primary input and an output in place."""
    return RevCircuit.layout(width, gates, (f"l{i}" for i in range(width)), width, width, 0)


def cnot(control: int, target: int) -> tuple:
    """Flip target iff control is 1."""
    return target, (control << 1,)


def reference_gate_error(target: int, controls, width: int) -> "str | None":
    """The message ``RevCircuit`` must raise for the gate ``(target, controls)``
    on `width` lines, or None.

    A negative target is named first, then controls that are not a plain
    tuple (a subclass neither), then control lines out of strictly ascending
    order or below 0, then the target among the control lines, then a line
    at or beyond the width.
    """
    if target < 0:
        return "negative target line"
    if type(controls) is not tuple:
        return "gate controls must be a tuple"
    lines = [c >> 1 for c in controls]
    if any(line < 0 for line in lines) or any(a >= b for a, b in zip(lines, lines[1:])):
        return "control lines must be non-negative and in strictly ascending order"
    if target in lines:
        return "target used as its own control"
    if max([target] + lines) >= width:
        return "gate uses a line beyond the circuit width"
    return None


def apply_gate(gate: tuple, word: int) -> int:
    """Flip the gate's target in one r-bit word iff every control literal holds."""
    target, controls = gate
    for c in controls:
        if not ((word >> (c >> 1)) ^ c) & 1:
            return word
    return word ^ 1 << target


def simulate(circ: RevCircuit, word: int) -> int:
    """Scalar reference simulator: one r-bit word through the cascade, gate by gate."""
    assert 0 <= word < 1 << circ.width
    for gate in circ.gates:
        word = apply_gate(gate, word)
    return word


def assert_tbs_settles_rows(perm: Permutation, emitted) -> None:
    """Step TBS's gates in emission order over the permutation's images.

    emitted is tbs(perm).gates reversed.  The settled prefix, the rows j
    whose working image is j, never shrinks and ends covering all 2^r rows.
    """

    def settled_from(images, j):
        while j < len(images) and images[j] == j:
            j += 1
        return j

    images = list(perm.images)
    identity = list(range(len(images)))
    settled = settled_from(images, 0)
    for gate in emitted:
        images = [apply_gate(gate, y) for y in images]
        assert images[:settled] == identity[:settled], "a settled row moved"
        settled = settled_from(images, settled)
    assert settled == len(images), "rows left unsettled"


def reference_tbs(perm: Permutation) -> tuple:
    """TBS by the rule of the synth_functional docstring, in circuit order.

    The images are a plain list.  Rows are fixed in ascending order; row i
    first sets, then clears, its differing bits in ascending bit order, and
    every emitted gate is applied to every row.  The circuit is the reversal
    of the emitted list.
    """
    r = perm.width
    images = list(perm.images)
    emitted = []

    def emit(mask, target):
        emitted.append((target, tuple(c << 1 for c in range(r) if mask >> c & 1)))
        images[:] = [y ^ 1 << target if y & mask == mask else y for y in images]

    for i in range(len(images)):
        for b in range(r):
            if i >> b & 1 and not images[i] >> b & 1:
                emit(images[i], b)
        for b in range(r):
            if images[i] >> b & 1 and not i >> b & 1:
                emit(i, b)
        assert images[i] == i
    return tuple(reversed(emitted))


def toffoli_count(circ: RevCircuit) -> int:
    return sum(1 for _, controls in circ.gates if len(controls) == 2)


def reference_run_planes(gates, planes: list, batch: int) -> list:
    """The per-line bit planes over `batch` assignments after every one of
    `gates`, in order, each gate's fire computed afresh: no mirror, no
    shared fire."""
    planes = list(planes)
    for target, controls in gates:
        fire = (1 << batch) - 1
        for c in controls:
            fire &= ~planes[c >> 1] if c & 1 else planes[c >> 1]
        planes[target] ^= fire
    return planes


def reference_mirror(gates) -> int:
    """The longest prefix, at most half of `gates`, equal by value to the
    gates at the mirrored places from the end."""
    k = 0
    while k < len(gates) // 2 and gates[k] == gates[-1 - k]:
        k += 1
    return k


def reference_source_planes(circ: RevCircuit) -> list:
    """simulate_source_batch by reference_run_planes: bit x of entry L is
    line L's final value when the inputs, in line order, spell x."""
    n = circ.num_inputs
    inputs = iter(range(n))
    ones = (1 << (1 << n)) - 1
    planes = [_input_pattern(next(inputs), n) if c is None else ones * c for c in circ.constants]
    return reference_run_planes(circ.gates, planes, 1 << n)


def clean_ancillas(circ: RevCircuit) -> bool:
    """True iff every constant non-output line ends at its initial value,
    every gate simulated (reference_source_planes)."""
    planes = reference_source_planes(circ)
    batch = 1 << circ.num_inputs
    full = (1 << batch) - 1
    for line in range(circ.width):
        c = circ.constants[line]
        if c is None or circ.outputs[line] is not None:
            continue
        if planes[line] != (full if c else 0):
            return False
    return True
