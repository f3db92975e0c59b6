"""Gates, circuits, simulation, cost model, and the REAL file dialect."""

import os
import random
import threading
import time
from collections import Counter

import pytest

from conftest import (
    HIER_VARIANTS,
    apply_gate,
    clean_ancillas,
    cnot,
    generic,
    random_permutation,
    random_xmg,
    reference_gate_error,
    reference_mirror,
    reference_run_planes,
    reference_source_planes,
    simulate,
)
from revflow.arith import Design, DesignSpec, design_xmg
from revflow.embedding import Permutation, optimum_embed
from revflow.logicnet import DEFAULT_TT_LIMIT, ParseError, TableLimitError, TruthTable
from revflow.revcirc import (
    DEFAULT_COST_MODEL,
    CostModel,
    RevCircuit,
    cost_report,
    first_mismatch,
    read_real,
    simulate_full,
    simulate_source_batch,
    verify_circuit,
    write_real,
)
from revflow.synth_functional import tbs
from revflow.synth_hier import hier_synth


def test_gate_validation():
    for gate in ((0, (0 << 1,)),                 # target as control
                 (2, (1 << 1, 1 << 1 | 1)),      # both polarities
                 (-1, ())):
        with pytest.raises(ValueError):
            generic(3, [gate])


def test_gate_is_immutable():
    # read_real and hier's reversed compute phase put one gate object in
    # several places of a cascade, so a gate and its controls are tuples
    g = (2, (0 << 1, 1 << 1 | 1))
    assert type(generic(3, [g]).gates[0]) is tuple
    with pytest.raises(TypeError):
        g[0] = 3
    assert g == (2, (0, 3)) and hash(g) == hash((2, (0, 3)))
    with pytest.raises(ValueError, match="gate controls must be a tuple"):
        generic(3, [(2, [0 << 1, 1 << 1 | 1])])


def test_gate_checks_match_reference():
    """Cascades built in seeded sequences that reuse the last checked tuple.

    A step reuses the previous tuple object, builds an equal but fresh
    tuple, or draws a new tuple, bad in up to three draws of ten,
    right after good ones; targets include negative lines, the lines of
    the tuple itself, so a self-target lands on a tuple already checked, and
    the lines just below and just above the tuple's.  Each step's gate ends
    a cascade of the good gates before it, which ``RevCircuit`` accepts or
    rejects with the reference message.
    """
    rng = random.Random(31)

    def draw(width):
        lines = sorted(rng.sample(range(width), rng.randrange(width + 1)))
        controls = [line << 1 | rng.randrange(2) for line in lines]
        fault = rng.randrange(10)
        if fault == 0 and controls:
            controls.append(controls[-1] ^ 1)  # the last line again, other polarity
        elif fault == 1 and len(controls) > 1:
            i = rng.randrange(len(controls) - 1)
            controls[i], controls[i + 1] = controls[i + 1], controls[i]
        elif fault == 2:
            controls.insert(0, rng.choice((-1, -2)))
        return tuple(controls)

    for _ in range(300):
        width = rng.randrange(1, 7)
        controls = draw(width)
        good = []
        for _ in range(rng.randrange(1, 12)):
            pick = rng.randrange(4)
            if pick == 0:
                controls = draw(width)
            elif pick == 1:
                controls = tuple(list(controls))
            lines = [c >> 1 for c in controls]
            edge = rng.randrange(6) if lines else 5
            if edge < 2:
                target = rng.choice(lines)
            elif edge < 4:
                # one line past either end of the control lines
                target = min(lines) - 1 if edge == 2 else max(lines) + 1
            else:
                target = rng.randrange(-1, width)
            want = reference_gate_error(target, controls, width)
            gates = good + [(target, controls)]
            if want is None:
                assert generic(width, gates).gates[-1][1] is controls
                good = gates
            else:
                with pytest.raises(ValueError) as info:
                    generic(width, gates)
                assert str(info.value) == want


def test_circuit_rejects_line_beyond_width_mid_cascade():
    names, consts, outs = ("a", "b", "c"), (None, None, None), (0, 1, 2)
    good = [cnot(0, 1), (2, (0 << 1, 1 << 1 | 1)), (0, ())]
    for bad in ((3, ()), (0, (1 << 1, 3 << 1 | 1)), (1, (3 << 1,))):
        gates = tuple(good[:2] + [bad] + good[2:])
        with pytest.raises(ValueError, match="gate uses a line beyond the circuit width"):
            RevCircuit(3, gates, names, consts, outs)
    assert RevCircuit(3, tuple(good), names, consts, outs).gates == tuple(good)


def test_gate_apply_and_self_inverse():
    g = (2, (0 << 1, 1 << 1 | 1))
    assert apply_gate(g, 0b001) == 0b101
    assert apply_gate(g, 0b011) == 0b011        # negative control blocks
    rng = random.Random(2)
    for _ in range(40):
        width = rng.randrange(2, 8)
        lines = list(range(width))
        rng.shuffle(lines)
        t = lines[0]
        n_ctl = rng.randrange(0, width - 1)
        pos = frozenset(lines[1 : 1 + n_ctl // 2 + 1]) - {t}
        neg = frozenset(lines[1 + len(pos) : 1 + n_ctl]) - pos - {t}
        g = (t, tuple(sorted([c << 1 for c in pos] + [c << 1 | 1 for c in neg])))
        w = rng.randrange(1 << width)
        assert apply_gate(g, apply_gate(g, w)) == w


def test_circuit_metadata_validation():
    g = (cnot(0, 1),)
    with pytest.raises(ValueError):
        RevCircuit(2, g, ("a", "a"), (None, None), (0, 1))       # dup names
    with pytest.raises(ValueError):
        RevCircuit(2, g, ("a", "b"), (None, 2), (0, 1))          # bad constant
    with pytest.raises(ValueError):
        RevCircuit(2, g, ("a", "b"), (None, None), (1, 0))       # outputs out of order
    with pytest.raises(ValueError):
        RevCircuit(1, g, ("a",), (None,), (0,))                  # gate off the end
    with pytest.raises(ValueError, match="bad line name"):
        RevCircuit(2, g, ("a#b", "c"), (None, None), (0, 1))     # '#' starts a REAL comment


def test_line_names_checked_as_one_list(tmp_path):
    """Seeded name lists against the per-name rule: the first name that is
    not one whitespace-free token, holds '#' or is led by '-' is named."""
    def bad(name):
        return name.split() != [name] or name.startswith("-") or "#" in name

    rng = random.Random(37)
    for _ in range(2000):
        names = list({"".join(rng.choice("ab-# \t\u2003\x1c") for _ in range(rng.randrange(4)))
                      for _ in range(rng.randrange(1, 5))})
        rng.shuffle(names)
        width = len(names)
        first = next((name for name in names if bad(name)), None)
        args = (width, (), tuple(names), (None,) * width, tuple(range(width)))
        if first is None:
            assert RevCircuit(*args).line_names == tuple(names)
        else:
            with pytest.raises(ValueError) as info:
                RevCircuit(*args)
            assert str(info.value) == f"bad line name {first!r}"
    # the reader names the fault at the .variables line
    p = tmp_path / "names.real"
    for names, first in (("a -b c", "-b"), ("-a b c", "-a"), ("a b- c", None)):
        p.write_text(f".version 2.0\n.numvars 3\n.variables {names}\n.begin\n.end\n")
        if first is None:
            assert read_real(p).line_names == tuple(names.split())
            continue
        with pytest.raises(ParseError) as info:
            read_real(p)
        assert str(info.value).endswith(f": bad line name {first!r}") and info.value.line == 3


def test_simulate_agrees_with_full(tmp_path):
    rng = random.Random(13)
    for _ in range(10):
        width = rng.randrange(1, 7)
        gates = []
        for _ in range(rng.randrange(1, 12)):
            t = rng.randrange(width)
            others = [l for l in range(width) if l != t]
            rng.shuffle(others)
            k = rng.randrange(0, len(others) + 1)
            pos = frozenset(others[: k // 2])
            neg = frozenset(others[k // 2 : k])
            gates.append((t, tuple(sorted([c << 1 for c in pos] + [c << 1 | 1 for c in neg]))))
        circ = generic(width, gates)
        perm = simulate_full(circ)
        for w in range(1 << width):
            assert simulate(circ, w) == perm.images[w]
        path = tmp_path / "rand.real"
        write_real(circ, path)
        assert read_real(path) == circ


def random_control_runs(rng: random.Random, width: int, length: int) -> list:
    """Mixed-polarity gates in runs that share their controls.

    Half the runs share one controls tuple, the others repeat it by value.
    Some runs add the previous run's target to its controls, and some go
    back to the controls of two runs before, so equal controls also recur
    after a gate that changed one of their planes.
    """
    gates = []
    runs = [()]
    while len(gates) < length:
        pick = rng.randrange(3)
        if pick == 0 and gates:
            t = gates[-1][0]
            controls = tuple(sorted(runs[-1] + (t << 1 | rng.randrange(2),)))
        elif pick == 1 and len(runs) > 2:
            controls = runs[-2]
        else:
            lines = rng.sample(range(width), rng.randrange(width))
            controls = tuple(sorted(line << 1 | rng.randrange(2) for line in lines))
        used = {c >> 1 for c in controls}
        free = [line for line in range(width) if line not in used]
        if not free:
            continue
        share = rng.randrange(2)
        for _ in range(rng.randrange(1, 5)):
            gates.append((rng.choice(free), controls if share else tuple(list(controls))))
        runs.append(controls)
    return gates


def test_run_planes_reuses_fire_exactly():
    rng = random.Random(17)
    # consecutive gates on one tuple object, and on equal but distinct tuples
    pairs = {"same": 0, "equal": 0}
    for _ in range(30):
        width = rng.randrange(1, 8)
        gates = random_control_runs(rng, width, 40)
        for g, h in zip(gates, gates[1:]):
            if g[1] is h[1]:
                pairs["same"] += 1
            elif g[1] == h[1]:
                pairs["equal"] += 1
        perm = simulate_full(generic(width, gates))
        assert perm.images == tuple(simulate(generic(width, gates), w) for w in range(1 << width))
        # every line's final plane, with the inputs on random lines and the
        # other lines held at random constants
        n = rng.randrange(width + 1)
        roles = [None] * n + [rng.randrange(2) for _ in range(width - n)]
        rng.shuffle(roles)
        circ = RevCircuit(width, tuple(gates), tuple(f"l{i}" for i in range(width)), tuple(roles),
                          (None,) * width)
        inputs = [line for line in range(width) if roles[line] is None]
        words = [sum(roles[line] << line for line in range(width) if roles[line])
                 | sum((x >> k & 1) << line for k, line in enumerate(inputs)) for x in range(1 << n)]
        finals = [simulate(circ, w) for w in words]
        planes = simulate_source_batch(circ)
        assert planes == [sum((y >> line & 1) << x for x, y in enumerate(finals)) for line in range(width)]
        n = rng.randrange(1, width + 1)
        m = rng.randrange(1, width + 1)
        first = rng.randrange(width - m + 1)
        circ = RevCircuit.layout(width, gates, (f"l{i}" for i in range(width)), n, m, first)
        low = (1 << m) - 1
        rows = [simulate(circ, x) >> first & low for x in range(1 << n)]
        assert first_mismatch(circ, TruthTable(n, m, tuple(rows))) is None
        # flip a few table bits: the smallest x, then the smallest output, is reported
        want = list(rows)
        flips = {(rng.randrange(1 << n), rng.randrange(m)) for _ in range(3)}
        for x, j in flips:
            want[x] ^= 1 << j
        x, j = min(flips)
        got = rows[x] >> j & 1
        assert first_mismatch(circ, TruthTable(n, m, tuple(want))) == (x, j, got, got ^ 1)
    assert min(pairs.values()) > 50


def random_gate(rng: random.Random, targets, reads) -> tuple:
    """A mixed-polarity gate, its target drawn from `targets` and up to
    three controls from the other lines of `reads`."""
    target = rng.choice(targets)
    others = [line for line in reads if line != target]
    lines = sorted(rng.sample(others, rng.randrange(min(len(others), 3) + 1)))
    return target, tuple(line << 1 | rng.randrange(2) for line in lines)


def random_mirrored(rng: random.Random, width: int, fault: "str | None" = None) -> tuple:
    """(A, B) for a cascade A · B · A⁻¹ on `width` lines.

    B writes one or two random lines and reads any; A reads and writes only
    the others, and half its steps reuse the previous gate's controls tuple.
    With `fault` "control", one gate of A also reads a line B writes; with
    "target", one gate of A writes it.
    """
    lines = list(range(width))
    rng.shuffle(lines)
    cut = rng.randrange(1, 3)
    middle, rest = lines[:cut], lines[cut:]
    a = []
    for _ in range(rng.randrange(1, 10)):
        if a and rng.randrange(2):
            controls = a[-1][1]
            free = [line for line in rest if line << 1 not in controls and line << 1 | 1 not in controls]
            a.append((rng.choice(free), controls))
        else:
            a.append(random_gate(rng, rest, rest))
    b = [random_gate(rng, middle, range(width)) for _ in range(rng.randrange(2, 5))]
    if fault:
        i = rng.randrange(len(a))
        target, controls = a[i]
        line = middle[0]
        if fault == "target":
            target = line
        else:
            controls = tuple(sorted(controls + (line << 1 | rng.randrange(2),)))
        a[i] = (target, controls)
    return a, b


def reference_table(circ: RevCircuit) -> TruthTable:
    """The table of the circuit's outputs, by reference_source_planes."""
    outs = [plane for plane, o in zip(reference_source_planes(circ), circ.outputs) if o is not None]
    n = circ.num_inputs
    return TruthTable(n, len(outs), tuple(sum((plane >> x & 1) << j for j, plane in enumerate(outs))
                                          for x in range(1 << n)))


def reference_first_mismatch(circ: RevCircuit, tt: TruthTable) -> "tuple | None":
    """first_mismatch by reference_source_planes, one input x, then one
    output j, at a time."""
    planes = reference_source_planes(circ)
    outs = [plane for plane, o in zip(planes, circ.outputs) if o is not None]
    for x, row in enumerate(tt.rows):
        for j, plane in enumerate(outs):
            got, want = plane >> x & 1, row >> j & 1
            if got != want:
                return x, j, got, want
    return None


def assert_simulates_every_gate(circ: RevCircuit, rng: random.Random) -> None:
    """simulate_source_batch, simulate_full and first_mismatch give what
    the references give, which simulate every gate."""
    assert simulate_source_batch(circ) == reference_source_planes(circ)
    assert simulate_full(circ).images == tuple(simulate(circ, w) for w in range(1 << circ.width))
    tt = reference_table(circ)
    assert first_mismatch(circ, tt) is None
    # the same table with a few bits flipped
    rows = list(tt.rows)
    for x, j in {(rng.randrange(len(rows)), rng.randrange(tt.num_outputs)) for _ in range(3)}:
        rows[x] ^= 1 << j
    tt = TruthTable(tt.num_inputs, tt.num_outputs, tuple(rows))
    assert first_mismatch(circ, tt) == reference_first_mismatch(circ, tt) is not None


def mirrored_circuit(rng: random.Random, width: int, gates) -> RevCircuit:
    """The gates on `width` lines with some inputs low, some outputs in a
    row, and the other lines constant 0."""
    n = rng.randrange(width + 1)
    m = rng.randrange(1, width + 1)
    return RevCircuit.layout(width, gates, (f"l{i}" for i in range(width)), n, m, rng.randrange(width - m + 1))


def test_mirror_simulates_like_every_gate():
    """On seeded A · B · A⁻¹ cascades, the mirror is the value reference's
    and the simulator matches the references bit for bit.  So it does when
    B writes a line A reads or writes; there, running A · B and resetting
    the other lines would be wrong on some seeds, which shows the check
    bites."""
    rng = random.Random(26)
    wrong_fold = Counter()
    for fault in (None, "control", "target"):
        for _ in range(60):
            width = rng.randrange(3, 8)
            a, b = random_mirrored(rng, width, fault)
            circ = mirrored_circuit(rng, width, a + b + a[::-1])
            # B's outer gates may be equal too, and then they join the mirror
            assert circ._mirror == reference_mirror(circ.gates) >= len(a)
            assert_simulates_every_gate(circ, rng)
            # A · B, then every line B does not write reset to its start
            start = reference_source_planes(RevCircuit(width, (), circ.line_names, circ.constants, circ.outputs))
            folded = reference_run_planes(a + b, start, 1 << circ.num_inputs)
            written = {target for target, _ in b}
            folded = [folded[line] if line in written else start[line] for line in range(width)]
            wrong_fold[fault] += folded != reference_source_planes(circ)
    assert wrong_fold[None] == 0 and wrong_fold["control"] > 10 and wrong_fold["target"] > 10


def test_mirror_edge_cases():
    """The mirror compares gates by value, so distinct but equal objects
    extend it; it stops at a gate that differs from its mirror, and is
    capped at half the cascade: a whole palindrome, with a middle of no
    gate or one, and the cascade [g, g]."""
    rng = random.Random(27)
    for _ in range(40):
        width = rng.randrange(3, 7)
        a, b = random_mirrored(rng, width)
        copies = [(target, controls) for target, controls in a[::-1]]
        assert all(g is not h for g, h in zip(copies, a[::-1]))
        # past A, the mirror of A · B · A⁻¹ goes on into B as far as B's own
        full = len(a) + reference_mirror(b)
        cases = [
            (a + b + copies, full),                     # equal by value only
            (a + b + copies[:-1] + [a[0]], full),       # the outermost gate shared
            (a + b + copies[:-1] + b[:1], 0),           # the outermost gate differs
            (a + b + b[:1] + copies[1:], len(a) - 1),   # the innermost gate differs
            (a + a[::-1], len(a)),                      # |B| = 0
            (a + b[:1] + a[::-1], len(a)),              # |B| = 1
            (a + b[:1] + b[:1] + a[::-1], len(a) + 1),  # B's own pair joins A
            (a[:1] * 2, 1),                             # [g, g]
        ]
        for gates, mirror in cases:
            circ = mirrored_circuit(rng, width, gates)
            assert circ._mirror == mirror == reference_mirror(gates)
            assert_simulates_every_gate(circ, rng)


@pytest.mark.parametrize("inplace_xor", HIER_VARIANTS.values(), ids=HIER_VARIANTS.keys())
def test_mirror_ends_at_a_changed_cleanup_gate(inplace_xor):
    """A hier circuit with one cleanup gate changed, at several depths from
    the end: the mirror ends at the change, and the simulator still finds
    the reference's counterexample and a dirtied ancilla.  A change to an
    equal gate (a NOT over a NOT, say) is no change, and is skipped."""
    rng = random.Random(28)
    nets = [design_xmg(DesignSpec(Design.INTDIV, 4))]
    nets += [random_xmg(rng, rng.randrange(2, 6), 20, rng.randrange(1, 4)) for _ in range(10)]
    dirty = 0
    for net in nets:
        circ = hier_synth(net, inplace_xor=inplace_xor)
        gates, k = list(circ.gates), circ._mirror
        if not k:
            continue
        tt = reference_table(circ)
        ancillas = [line for line in range(circ.width) if circ.constants[line] is not None
                    and circ.outputs[line] is None]
        for depth in sorted({0, 1, k // 2, k - 1} - {k}):
            target, controls = gates[-1 - depth]
            # the compute half never reads an output, so y0 is free to target
            for gate in ((circ.num_inputs, controls), (target, ())):
                if gate == (target, controls):
                    continue
                changed = RevCircuit(circ.width, tuple(gates[:-1 - depth] + [gate] + gates[len(gates) - depth:]),
                                     circ.line_names, circ.constants, circ.outputs)
                assert changed._mirror == depth
                planes = simulate_source_batch(changed)
                assert planes == reference_source_planes(changed)
                assert first_mismatch(changed, tt) == reference_first_mismatch(changed, tt)
                clean = all(planes[line] == 0 for line in ancillas)
                assert clean == clean_ancillas(changed)
                dirty += not clean
    assert dirty > 10


def test_mirror_cost_report_counts_every_gate():
    rng = random.Random(29)
    model = CostModel(((2, 4), (3, 9)))
    circuits = [hier_synth(design_xmg(DesignSpec(Design.NEWTON, 4)))]
    for _ in range(40):
        width = rng.randrange(3, 8)
        a, b = random_mirrored(rng, width, rng.choice((None, "control", "target")))
        gates = rng.choice((a + b + a[::-1], a + a[::-1], a + b[:1] + a[::-1], a + b))
        circuits.append(generic(width, gates))
    for circ in circuits:
        hist = Counter(len(controls) for _, controls in circ.gates)
        for m in (DEFAULT_COST_MODEL, model):
            rep = cost_report(circ, m)
            assert rep.gate_count == len(circ.gates)
            assert rep.control_histogram == tuple(sorted(hist.items()))
            assert rep.t_count == sum(m.t_of_controls(len(controls)) for _, controls in circ.gates)


def test_mirror_gate_check_names_the_first_fault():
    """A bad gate in the compute half sits in the cleanup half too: the
    circuit fails with the reference's message for it, the first fault."""
    rng = random.Random(30)
    bad_gates = [(-1, ()), (1, [0]), (2, (2, 0)), (1, (0, 2)), (1, (0, 3 << 1)), (3, ())]
    for _ in range(60):
        a, b = random_mirrored(rng, 3)
        bad = rng.choice(bad_gates)
        a.insert(rng.randrange(len(a) + 1), bad)
        with pytest.raises(ValueError) as info:
            generic(3, a + b + a[::-1])
        assert str(info.value) == reference_gate_error(*bad, 3)


class _Controls(tuple):
    """Controls equal by value to a plain tuple, but of another type."""


def test_mirror_ends_at_controls_of_another_type():
    """A gate whose controls is a tuple subclass equals its mirrored gate by
    value, but the type rule is no function of value: the mirror ends there,
    so the circuit fails as a full check fails, naming the first such gate,
    on either side of the mirror."""
    with pytest.raises(ValueError, match="gate controls must be a tuple"):
        generic(2, [(1, (0,)), (1, _Controls((0,)))])
    rng = random.Random(29)
    for _ in range(60):
        width = rng.randrange(3, 7)
        a, b = random_mirrored(rng, width)
        gates = a + b + a[::-1]
        place = rng.choice((rng.randrange(len(a)), len(gates) - 1 - rng.randrange(len(a))))
        target, controls = gates[place]
        gates[place] = (target, _Controls(controls))
        assert reference_mirror(gates) >= len(a)
        with pytest.raises(ValueError) as info:
            generic(width, gates)
        assert str(info.value) == next(filter(None, (reference_gate_error(*g, width) for g in gates)))


def test_simulate_full_is_bijective_by_construction():
    rng = random.Random(31)
    perm = Permutation(5, random_permutation(rng, 5))
    circ = tbs(perm)
    # Permutation's constructor would reject a non-bijective image list
    assert isinstance(simulate_full(circ), Permutation)


def test_simulate_full_width_guard():
    # past the table cap it raises before it builds a plane, at once
    for width in (DEFAULT_TT_LIMIT + 1, 30):
        circ = generic(width, [])
        start = time.perf_counter()
        with pytest.raises(TableLimitError, match=f"^width {width} exceeds the truth-table limit of {DEFAULT_TT_LIMIT};"):
            simulate_full(circ)
        assert time.perf_counter() - start < 1.0


def test_simulate_source_batch_input_guard():
    # every plane holds all 2^n source assignments: past the cap on inputs it
    # raises before it builds one, and at the cap it runs
    start = time.perf_counter()
    with pytest.raises(TableLimitError, match=f"^width {DEFAULT_TT_LIMIT + 1} exceeds the truth-table limit"):
        simulate_source_batch(generic(DEFAULT_TT_LIMIT + 1, []))
    assert time.perf_counter() - start < 1.0
    planes = simulate_source_batch(generic(DEFAULT_TT_LIMIT, []))
    half = 1 << (DEFAULT_TT_LIMIT - 1)
    assert len(planes) == DEFAULT_TT_LIMIT and planes[-1] == ((1 << half) - 1) << half


def test_verify_circuit_positive_and_negative():
    tt = TruthTable(2, 2, (1, 3, 0, 2))
    perm, emb = optimum_embed(tt)
    circ = tbs(perm, embedding=emb)
    assert verify_circuit(circ, tt)
    broken = RevCircuit(
        circ.width,
        circ.gates + ((circ.outputs.index(0), ()),),
        circ.line_names,
        circ.constants,
        circ.outputs,
    )
    assert not verify_circuit(broken, tt)


def test_first_mismatch_smallest_input_then_output():
    zero = TruthTable(2, 2, (0,) * 4)

    def circ(*gates):
        return RevCircuit.layout(4, gates, ("a", "b", "y0", "y1"), 2, 2, 2)

    assert first_mismatch(circ(), zero) is None
    # y1 = a fails first at x=1; y0 = b only from x=2
    assert first_mismatch(circ(cnot(1, 2), cnot(0, 3)), zero) == (1, 1, 1, 0)
    # both outputs fail at x=1: the lower output index wins
    assert first_mismatch(circ(cnot(0, 2), cnot(0, 3)), zero) == (1, 0, 1, 0)
    # y0 = not b fails at x=0
    assert first_mismatch(circ(cnot(0, 3), (2, (1 << 1 | 1,))), zero) == (0, 0, 1, 0)


def test_verify_circuit_shape_mismatch():
    circ = RevCircuit(3, ((2, (0 << 1, 1 << 1)),), ("a", "b", "y"), (None, None, 0), (None, None, 0))
    with pytest.raises(ValueError):
        verify_circuit(circ, TruthTable(3, 1, (0,) * 8))        # input count differs
    with pytest.raises(ValueError):
        verify_circuit(circ, TruthTable(2, 2, (0, 1, 1, 0)))    # output count differs


def test_source_batch_drives_constants():
    # one constant-1 line copied onto an output
    circ = RevCircuit(
        2,
        (cnot(1, 0),),
        ("y", "c"),
        (0, 1),
        (0, None),
    )
    planes = simulate_source_batch(circ)
    assert planes[0] == 1  # batch of one assignment, line holds 1


def test_default_cost_model_schedule():
    t = DEFAULT_COST_MODEL.t_of_controls
    assert t(0) == 0
    assert t(1) == 0
    assert t(2) == 7
    assert t(3) == 15
    assert t(4) == 23
    assert t(7) == 47


def test_cost_model_overrides_and_validation():
    m = CostModel.parse("2: 4\n3: 20\n# comment\n")
    assert m.t_of_controls(2) == 4
    assert m.t_of_controls(3) == 20
    assert m.t_of_controls(4) == 23
    with pytest.raises(ParseError):
        CostModel.parse("2 4\n")
    with pytest.raises(ParseError):
        CostModel.parse("2: -1\n")
    with pytest.raises(ParseError):
        CostModel.parse("2: 100\n3: 1\n")       # decreasing in controls
    # the default cost at 10^12 controls, and a cost far below it at 10^4000:
    # a walk of every count up to the entry would not return
    assert CostModel(((10**12, 8 * (10**12 - 2) + 7),)).t_of_controls(10**12 + 1) == 8 * (10**12 - 1) + 7
    with pytest.raises(ValueError, match="cost must not decrease with more controls"):
        CostModel(((10**4000, 1),))


def test_cost_report_matches_per_gate_sum():
    rng = random.Random(7)
    model = CostModel(((2, 4), (3, 9), (5, 35)))
    width = 8
    gates = []
    for _ in range(300):
        t = rng.randrange(width)
        others = [l for l in range(width) if l != t]
        ctl = rng.sample(others, rng.randrange(len(others) + 1))
        gates.append((t, tuple(sorted(c << 1 | rng.randrange(2) for c in ctl))))
    circ = generic(width, gates)
    rep = cost_report(circ, model)
    assert rep.t_count == sum(model.t_of_controls(len(controls)) for _, controls in gates)
    assert sum(k for _, k in rep.control_histogram) == rep.gate_count == len(gates)
    for c, k in rep.control_histogram:
        assert k == sum(1 for _, controls in gates if len(controls) == c)


def test_cost_report_counts():
    circ = generic(3, [(0, ()), cnot(1, 0), (2, (0 << 1, 1 << 1)),
                                  (0, (1 << 1, 2 << 1))])
    rep = cost_report(circ)
    assert rep.qubits == 3
    assert rep.gate_count == 4
    assert rep.t_count == 14
    assert rep.control_histogram == ((0, 1), (1, 1), (2, 2))
    d = rep.as_dict()
    assert d["gates"] == 4 and d["t_count"] == 14 and d["control_histogram"]["2"] == 2


def test_real_roundtrip_exact(tmp_path):
    tt = TruthTable(3, 3, tuple((x * 3 + 1) % 8 for x in range(8)))
    perm, emb = optimum_embed(tt)
    circ = tbs(perm, embedding=emb)
    path = tmp_path / "c.real"
    write_real(circ, path)
    assert read_real(path) == circ


def test_real_negative_controls_roundtrip(tmp_path):
    circ = generic(3, [(2, (0 << 1, 1 << 1 | 1))])
    path = tmp_path / "neg.real"
    write_real(circ, path)
    back = read_real(path)
    assert back.gates == circ.gates
    text = path.read_text()
    assert "-l1" in text


def test_real_parse_errors(tmp_path):
    cases = [
        ".numvars 2\n.variables a b\n.begin\nt1 a\n",          # no .end
        ".numvars 2\n.variables a a\n.begin\n.end\n",          # dup names
        ".numvars 2\n.variables a b\nt1 a\n.end\n",            # gate outside body
        ".numvars 2\n.variables a b\n.begin\nt2 a a\n.end\n",  # target as control
        ".numvars 2\n.variables a b\n.begin\nt2 c a\n.end\n",  # unknown line
        ".numvars 2\n.variables a b\n.begin\nq1 a\n.end\n",    # unknown gate kind
        ".numvars 2\n.constants --\n.variables a b\n.begin\n.end\n.numvars 2\n",
    ]
    for text in cases:
        p = tmp_path / "bad.real"
        p.write_text(text)
        with pytest.raises(ParseError):
            read_real(p)
    # "²" passes str.isdigit but not int()
    for text, line, why in ((".numvars \u00b2\n.variables a b\n.begin\n.end\n", 1, "bad .numvars"),
                            (".numvars 2\n.variables a b\n.begin\nt\u00b2 a b\n.end\n", 4,
                             "unknown gate kind")):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=why) as info:
            read_real(p)
        assert info.value.line == line
    # t1 is the smallest gate: t0 has no target, with or without operands
    for gate in ("t0", "t0 a", "t00 a b"):
        p.write_text(f".numvars 2\n.variables a b\n.begin\nt2 a b\n{gate}\n.end\n")
        with pytest.raises(ParseError, match=f"gate {gate.split()[0]} has no target") as info:
            read_real(p)
        assert info.value.line == 5
    # a circuit needs a line: .numvars 0 fails at its own line
    p.write_text("# empty\n.numvars 0\n.variables\n.begin\n.end\n")
    with pytest.raises(ParseError, match="at least one line") as info:
        read_real(p)
    assert info.value.line == 2
    # a target cannot be negative; the line itself is known
    for gate in ("t2 a -b", "t2  a  -b", "t1 -b"):
        p.write_text(f".numvars 2\n.variables a b\n.begin\n{gate}\n.end\n")
        with pytest.raises(ParseError, match="target 'b' cannot be negative") as info:
            read_real(p)
        assert info.value.line == 4
    # a control named twice, and a control in both polarities
    for gate in ("t3 a a b", "t3 a -a b"):
        p.write_text(f".numvars 3\n.variables a b c\n.begin\n{gate}\n.end\n")
        with pytest.raises(ParseError, match="'a' named twice") as info:
            read_real(p)
        assert info.value.line == 4
    # a header directive after .begin would rename the lines under the gates already read
    for directive in (".variables b a", ".numvars 2", ".begin"):
        p.write_text(f".numvars 2\n.variables a b\n.begin\nt2 a b\n{directive}\n.end\n")
        with pytest.raises(ParseError, match=f"{directive.split()[0]} after .begin") as info:
            read_real(p)
        assert info.value.line == 5
    # each header directive at most once: a repeat fails at its own line
    p.write_text(".numvars 2\n.variables a b\n.constants --\n.numvars 3\n"
                 ".variables a b c\n.begin\nt2 a c\n.end\n")
    with pytest.raises(ParseError, match=r"\.numvars declared twice") as info:
        read_real(p)
    assert info.value.line == 4
    head = [".numvars 2", ".variables a b", ".constants --", ".garbage --"]
    for k, repeat in enumerate((".variables b a", ".constants 00", ".garbage 11")):
        lines = head[: k + 2] + [repeat] + head[k + 2 :]
        p.write_text("\n".join(lines + [".begin", "t2 a b", ".end"]) + "\n")
        with pytest.raises(ParseError, match=f"\\{repeat.split()[0]} declared twice") as info:
            read_real(p)
        assert info.value.line == k + 3


def test_real_reader_edge_cases(tmp_path):
    p = tmp_path / "edge.real"
    head = ".numvars 3\n.variables a b c\n.begin\n"

    def read(body):
        p.write_text(head + body)
        return read_real(p)

    # a repeat of a cached gate line after .end is still content after .end
    with pytest.raises(ParseError, match="content after .end") as info:
        read("t3 a b c\n.end\nt3 a b c\n")
    assert info.value.line == 6
    # a cached controls text whose target is one of its controls
    with pytest.raises(ParseError, match="'a' named twice") as info:
        read("t3 a b c\nt3 a b a\n.end\n")
    assert info.value.line == 5
    # any whitespace separates operands
    assert read("t2\ta  b\n.end\n").gates == read("t2 a b\n.end\n").gates
    # only a single-spaced line is cached: "t3 a b\tc" must not cache "t3 a" as controls a, b
    with pytest.raises(ParseError, match="expects 3 operands") as info:
        read("t3 a b\tc\nt3 a c\n.end\n")
    assert info.value.line == 5
    p.write_text(".numvars 2\n.variables a b\n.begin\nt2 -c a\n.end\n")
    with pytest.raises(ParseError, match="unknown line 'c'"):
        read_real(p)
    # a name led by '-' would read as a negative control
    p.write_text(".numvars 2\n.variables a -a\n.begin\n.end\n")
    with pytest.raises(ParseError, match="bad line name") as info:
        read_real(p)
    assert info.value.line == 2


def test_real_unsorted_controls_read_sorted(tmp_path):
    """A written-form line with its controls out of order builds a gate
    ``RevCircuit`` rejects; the body is then read again through parse_gate,
    which sorts them, so the file reads as the circuit it describes."""
    p = tmp_path / "unsorted.real"
    circ = RevCircuit(4, ((2, (0, 3)), (3, (0, 3)), (1, (0,)), (2, (0, 3)), (0, (2, 4, 7))),
                      ("a", "b", "c", "d"), (None,) * 4, (0, 1, 2, 3))
    for body in ("t3 -b a c\nt3 -b a d\nt2 a b\nt3 a -b c\nt4 c b -d a\n",
                 "t3 a -b c\nt3 -b a d\nt2 a b\nt3 -b a c\nt4 b c -d a\n"):
        p.write_text(".numvars 4\n.variables a b c d\n.begin\n" + body + ".end\n")
        back = read_real(p)
        assert back == circ
        assert all(list(controls) == sorted(controls) for _, controls in back.gates)


def test_real_fault_after_unchecked_gate_at_its_line(tmp_path):
    """A fault is named at its own line, also after a line whose controls
    are out of order, and also when a later line holds a fault the first
    read stops at: the first fault in the file is named."""
    p = tmp_path / "fault.real"
    head = ".numvars 4\n.variables a b c d\n.begin\n"
    cases = [
        ("t3 b a c\nt3 b a b\n.end\n", "'b' named twice", 5),        # cached head, own target
        ("t3 b a c\nt2 a e\n.end\n", "unknown line 'e'", 5),
        ("t3 b a c\nt3 a b\n.end\n", "gate t3 expects 3 operands", 5),
        ("t3 b a c\n.numvars 2\n.end\n", r"\.numvars after \.begin", 5),
        ("t3 b a c\n.end\nt1 a\n", "content after .end", 6),
        ("t3 b a c\nt2 a b\n", "missing .end", None),
        # the first read stops at line 6, but line 5 is the first fault
        ("t3 a b c\nt3 a b a\nt2 a e\n.end\n", "'a' named twice", 5),
        ("t3 a b c\nt3 a -a d\n.variables a b c d\n.end\n", "'a' named twice", 5),
        ("t3 a b c\nt3 a b a\n.end\nt1 a\n", "'a' named twice", 5),
    ]
    for body, why, line in cases:
        p.write_text(head + body)
        with pytest.raises(ParseError, match=why) as info:
            read_real(p)
        assert info.value.line == line, body


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_real_from_a_pipe_is_read_checked(tmp_path):
    """A stream that cannot be read twice, a pipe say, is read checked in one
    pass: controls out of order read sorted, and a fault after a gate that
    would be built unchecked is named at its own line."""
    p = tmp_path / "pipe.real"
    head = ".numvars 3\n.variables a b c\n.begin\n"
    for body, why in (("t3 b a c\nt2 a b\n.end\n", None),
                      ("t3 a b c\nt3 a b a\nt2 a e\n.end\n", "'a' named twice")):
        os.mkfifo(p)
        # one short write, so it completes whatever the reader does
        writer = threading.Thread(target=p.write_text, args=(head + body,), daemon=True)
        writer.start()
        try:
            if why is None:
                assert read_real(p).gates == ((2, (0, 2)), (1, (0,)))
            else:
                with pytest.raises(ParseError, match=why) as info:
                    read_real(p)
                assert info.value.line == 5
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        p.unlink()


def test_real_equal_controls_share_one_tuple(tmp_path):
    ab = (0 << 1, 1 << 1)
    circ = generic(4, [(2, ab), (3, ab), (3, (0 << 1 | 1,)), (2, ab)])
    p = tmp_path / "shared.real"
    write_real(circ, p)
    back = read_real(p)
    assert back == circ
    g = back.gates
    assert g[0][1] is g[1][1] is g[3][1]
    assert g[0][1] is not g[2][1]


def test_real_repeated_line_reuses_its_gate(tmp_path):
    p = tmp_path / "repeat.real"
    p.write_text(".numvars 3\n.variables a b c\n.begin\n"
                 "t2 a b\nt2 a b\nt2 a c\nt2 a c\nt2 a b\nt1 c\n.end\n")
    g = read_real(p).gates
    assert g[1] is g[0]                           # same head, same target
    assert (g[2][0], g[4][0]) == (2, 1)   # same head, new target
    assert g[2][1] is g[0][1]
    assert g[3] is g[2]                           # the head now stands for the c gate
    assert [target for target, _ in g] == [1, 1, 2, 2, 1, 2]


@pytest.mark.parametrize("inplace_xor", HIER_VARIANTS.values(), ids=HIER_VARIANTS.keys())
def test_real_replay_shares_the_compute_gates(inplace_xor, tmp_path):
    """A hier circuit reads back with its reversed compute phase made of
    the compute phase's own gate objects, as hier_synth built it, and a
    MAJ's tear-down made of its set-up's.  The reader builds one object per
    gate object of hier's compute and copy halves, except that a gate equal
    to the last gate on its controls is read as that very object."""
    p = tmp_path / "hier.real"
    for design, ns in ((Design.INTDIV, range(4, 13)), (Design.NEWTON, range(4, 9))):
        for n in ns:
            circ = hier_synth(design_xmg(DesignSpec(design, n)), inplace_xor=inplace_xor)
            write_real(circ, p)
            back = read_real(p)
            assert back == circ
            g, mirror = circ.gates, circ._mirror
            assert mirror > len(g) // 3
            assert back._mirror == mirror, (design, n)
            last, seen, merged = {}, set(), 0  # controls -> the last gate on them
            for gate in g[:len(g) - mirror]:
                if id(gate) not in seen and last.get(gate[1]) == gate:
                    merged += 1
                seen.add(id(gate))
                last[gate[1]] = gate
            assert len(set(map(id, back.gates))) == len(seen) - merged, (design, n)


def test_real_replay_breaks_and_faults_at_their_lines(tmp_path):
    p = tmp_path / "replay.real"
    compute = ["t2 a b", "t3 a b c", "t2 a d", "t1 c", "t3 -b c d"]

    def read(replayed):
        p.write_text(".numvars 4\n.variables a b c d\n.begin\n"
                     + "".join(line + "\n" for line in compute + replayed) + ".end\n")
        return read_real(p)

    gates = [(1, (0,)), (2, (0, 2)), (3, (0,)), (2, ()), (3, (3, 4))]
    b = read(compute[::-1]).gates
    assert b == tuple(gates + gates[::-1])
    assert all(b[-1 - i] is b[i] for i in range(len(compute)))
    # one changed line gets its own gate, and the replay resumes after it
    changed = compute[::-1]
    changed[2] = "t2 -a d"
    b = read(changed).gates
    assert b == tuple(gates + gates[:2:-1] + [(3, (1,))] + gates[1::-1])
    assert all(b[7] is not gate for gate in b[:7])
    assert b[5] is b[4] and b[6] is b[3] and b[8] is b[1] and b[9] is b[0]
    # a fault inside a replay fails at its own line
    for fault, why in (("t2 a a", "'a' named twice"), ("t2 a e", "unknown line 'e'"),
                       ("t3 a b", "expects 3 operands")):
        broken = compute[::-1]
        broken[2] = fault
        with pytest.raises(ParseError, match=why) as info:
            read(broken)
        assert info.value.line == 4 + len(compute) + 2
    # a MAJ whose own CNOT, on its last set-up gate's head, sits between its
    # Toffoli and its tear-down: the tear-down's lines on that head get new
    # gates, and the cleanup half still replays every compute gate
    maj = ["t2 b s", "t2 a s", "t2 a c", "t3 c s t", "t2 a t", "t2 a c", "t2 a s", "t2 b s"]
    p.write_text(".numvars 6\n.variables a b c s t y\n.begin\n"
                 + "".join(line + "\n" for line in maj + ["t2 t y"] + maj[::-1]) + ".end\n")
    back = read_real(p)
    setup = [(3, (2,)), (3, (0,)), (2, (0,))]
    gates = setup + [(4, (4, 6)), (4, (0,))] + setup[::-1]
    b = back.gates
    assert b == tuple(gates + [(5, (8,))] + gates[::-1])
    assert back._mirror == len(maj)
    assert b[5] is not b[2] and b[6] is not b[1] and b[7] is b[0]
    assert len(set(map(id, b))) == 8


@pytest.mark.parametrize("inplace_xor", HIER_VARIANTS.values(), ids=HIER_VARIANTS.keys())
def test_real_respelled_cleanup_keeps_the_mirror(inplace_xor, tmp_path):
    """A hier file whose cleanup lines are spelled another way (a doubled
    space, tabs, controls in another order, ...) reads back with the
    written circuit's full mirror, cost and planes: the mirror is a
    property of the gates' values, not of how the reader built them."""
    rng = random.Random(32)
    p = tmp_path / "respelled.real"
    for design, ns in ((Design.NEWTON, range(4, 7)), (Design.INTDIV, range(4, 9))):
        for n in ns:
            circ = hier_synth(design_xmg(DesignSpec(design, n)), inplace_xor=inplace_xor)
            write_real(circ, p)
            g, mirror = circ.gates, circ._mirror
            # every fifth cleanup line, the innermost and the outermost
            picked = {len(g) - 1 - i for i in (*range(0, mirror, 5), mirror - 1)}
            p.write_bytes(respell_real(p.read_text(), rng, picked).encode())
            back = read_real(p)
            assert back == circ
            assert back._mirror == mirror, (design, n)
            assert cost_report(back) == cost_report(circ)
            assert simulate_source_batch(back) == reference_source_planes(circ)


def random_repeating_gates(rng: random.Random, width: int, length: int) -> list:
    """Mixed-polarity gates whose lines recur, the way a hier circuit's do.

    Some steps replay a stretch of earlier gates in reverse; some replay the
    whole prefix in reverse after a few gates of their own, the shape of
    Bennett cleanup; some give one controls tuple the targets b, c, b in turn.
    """
    gates = []
    while len(gates) < length:
        pick = rng.randrange(4)
        if pick == 0 and gates:
            start = rng.randrange(len(gates))
            gates.extend(reversed(gates[start : start + rng.randrange(1, 6)]))
            continue
        if pick == 3 and gates:
            prefix = gates[:]
            gates += random_repeating_gates(rng, width, rng.randrange(1, 4))
            gates.extend(reversed(prefix))
            continue
        lines = rng.sample(range(width), rng.randrange(width - 1))
        controls = tuple(sorted(line << 1 | rng.randrange(2) for line in lines))
        free = [line for line in range(width) if line not in lines]
        if pick == 1:
            b, c = rng.sample(free, 2)
            gates += [(b, controls), (c, controls), (b, controls)]
        else:
            gates.append((rng.choice(free), controls))
    return gates


def respell_real(text: str, rng: random.Random, lines: "set | None" = None) -> str:
    """The same circuit in other REAL spellings, chosen per body line.

    With `lines`, only the body lines at those indices (0 for the first
    gate line) are respelled, each in one of the other spellings.
    """
    out = []
    body = None
    for line in text.splitlines():
        if line == ".begin":
            body = -1  # the index of the body line at hand
        elif body is not None and line != ".end":
            body += 1
            if lines is None:
                kind = rng.randrange(11)
            elif body in lines:
                kind = rng.randrange(1, 10)
            else:
                kind = 0
            key, *ops = line.split(" ")
            if kind == 1:
                line = "\t".join([key] + ops)
            elif kind == 2:
                line = "   ".join([key] + ops)
            elif kind == 3:
                line += rng.choice((" # note", "#", "\t# t1 " + ops[-1]))
            elif kind == 4:
                line = rng.choice(("  ", "\t", " \t ")) + line
            elif kind == 5 and len(ops) > 2:
                controls = ops[:-1]
                rng.shuffle(controls)
                line = " ".join([key] + controls + ops[-1:])
            elif kind == 6:
                out.append(rng.choice(("", "# " + line, "   ")))
            elif kind == 7:
                line = " ".join(["t0" + key[1:]] + ops)
            elif kind == 8:
                line = "\t".join([key] + ops[:-1]) + " " + ops[-1]
            elif kind == 9:
                line = " ".join([key] + ops[:-1]) + "  " + ops[-1]
        out.append(line)
    newline = rng.choice(("\n", "\r\n"))
    return newline.join(out) + rng.choice(("", newline))


def test_real_reader_differential(tmp_path):
    """Written files and their respellings read back to the circuit; a fault
    after a head the reader has cached fails at its own line."""
    rng = random.Random(23)
    p = tmp_path / "diff.real"
    for _ in range(40):
        width = rng.randrange(3, 9)
        names = rng.sample(["a", "a1", "a10", "b", "x_2", "y", "q", "z9", "c"], width)
        gates = random_repeating_gates(rng, width, rng.randrange(1, 60))
        circ = RevCircuit.layout(width, gates, names, rng.randrange(1, width + 1), 1, 0)
        write_real(circ, p)
        text = p.read_text()
        assert read_real(p) == circ
        for _ in range(4):
            p.write_bytes(respell_real(text, rng).encode())
            assert read_real(p) == circ
        # two respelled lines, so that the replays run and some break inside
        for _ in range(4):
            p.write_bytes(respell_real(text, rng, set(rng.sample(range(len(gates)), min(2, len(gates))))).encode())
            assert read_real(p) == circ
        # a fault after a cached head: the head is the text up to the last space
        lines = text.splitlines(keepends=True)
        begin = lines.index(".begin\n") + 1
        at = rng.randrange(begin, len(lines) - 1)
        head = lines[rng.randrange(begin, at + 1)].rpartition(" ")[0]
        key, *controls = head.split(" ")
        free = [name for name in names if name not in {c.lstrip("-") for c in controls}]
        faults = [(" nowhere", "unknown line 'nowhere'"),
                  (f" {free[0]} {free[-1]}", f"gate {key} expects {len(controls) + 1} operands")]
        if controls:
            faults.append((" " + controls[-1].lstrip("-"), f"'{controls[-1].lstrip('-')}' named twice"))
        for fault, why in faults:
            p.write_text("".join(lines[: at + 1]) + head + fault + "\n" + "".join(lines[at + 1 :]))
            with pytest.raises(ParseError, match=why) as info:
                read_real(p)
            assert info.value.line == at + 2


def test_real_error_location(tmp_path):
    p = tmp_path / "bad.real"
    p.write_text(".numvars 2\n.variables a b\n.begin\nt2 a a\n.end\n")
    with pytest.raises(ParseError) as info:
        read_real(p)
    assert info.value.line == 4


def test_reversed_gates_inverts():
    rng = random.Random(41)
    perm = Permutation(4, random_permutation(rng, 4))
    circ = tbs(perm)
    inv = generic(circ.width, reversed(circ.gates))
    for w in range(16):
        assert simulate(inv, simulate(circ, w)) == w
