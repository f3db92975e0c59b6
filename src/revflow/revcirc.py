"""Reversible circuits built from mixed-polarity multiple-controlled Toffolis.

A circuit is a fixed set of lines and an ordered gate cascade.  Line metadata
records which lines are primary inputs versus constants and which lines carry
function outputs at the end; everything else is garbage.  Every flow lays its
lines out the same way, through ``RevCircuit.layout``: inputs on the low
lines, a constant 0 on every other line, and the outputs on consecutive
lines.  ``read_real`` accepts any roles a REAL file declares.  Simulation
works on whole input batches at once by keeping one bit-plane per line, in
the convention of ``logicnet`` (bit x is the line's value under assignment
x); ``logicnet._transpose`` turns planes into words and back.

A gate is the pair ``(target, controls)``: the target line, and the controls
as one tuple of line literals, ``line << 1 | neg`` (the edge encoding of
``logicnet.Xmg``), strictly ascending by line.  A literal with ``neg`` set is
a negative control: it holds when its line is 0.  The ascending form is
canonical, so equal gates compare equal and REAL files write and read the
controls in the same order.  ``RevCircuit`` checks every gate once, when the
circuit is built.

Bennett cleanup, as in ``hier_synth``, gives a circuit the shape A · B · A⁻¹,
and since every gate is its own inverse, A⁻¹ is A's gates in reverse.  A
circuit finds its mirror once, when it is built: the longest prefix A, at
most half the cascade, whose gates equal the gates at the mirrored places
from the end.  Gates are compared by value, so the mirror does not depend
on how the gates were built or spelled.  Then:

- the gate check skips the suffix, which holds gates already checked;
- ``cost_report`` counts A once and doubles it;
- the simulator runs only A · B when B writes no line that A reads or
  writes, and then sets every line B does not write back to its starting
  plane.  That is exact: A⁻¹ reads and writes only A's lines, which B left
  as A left them, so A⁻¹ returns them to their start, and it touches no
  other line, so a line outside A's and B's was never written at all.
  B's lines keep what B wrote.  A circuit whose B does write one of A's
  lines runs every gate.
"""

from collections import Counter
from collections.abc import Iterable
from itertools import compress, count, islice, repeat
from operator import is_not, itemgetter, ne

from .embedding import Permutation
from .logicnet import ParseError, TruthTable, _Record, _decimal, _input_pattern, _transpose, _uncomment

# Widths beyond this make full permutation extraction explode; callers that
# only need input-side behaviour should use simulate_source_batch instead.
FULL_SIM_MAX_WIDTH = 24


def _first_bad_name(names) -> "str | None":
    """The first line name that is not one non-empty whitespace-free token,
    free of '#' (a REAL comment) and not led by '-', or None.

    Joined by single spaces, the names split back into themselves iff each
    is one non-empty whitespace-free token; then no name is led by '-' iff
    the text neither starts with '-' nor holds ' -'.  So one pass over the
    joined text clears a whole list, and only a list that fails it is
    scanned name by name.
    """
    text = " ".join(names)
    if text.split() == list(names) and "#" not in text and " -" not in text and text[:1] != "-":
        return None
    return next(name for name in names if name.split() != [name] or name.startswith("-") or "#" in name)


class RevCircuit(_Record):
    """Gate cascade with per-line roles.

    constants[i] is None for a primary input line and 0/1 for a constant.
    outputs[i] is None for a garbage line, else the source output index the
    line carries; the non-None entries must be 0..m-1 in ascending line order
    so that the output word reads off low-to-high without a permutation.
    """

    width: int
    gates: "tuple[tuple[int, tuple[int, ...]], ...]"
    line_names: tuple[str, ...]
    constants: "tuple[int | None, ...]"
    outputs: "tuple[int | None, ...]"

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("circuit needs at least one line")
        for field in (self.line_names, self.constants, self.outputs):
            if len(field) != self.width:
                raise ValueError("line metadata length does not match width")
        if len(set(self.line_names)) != self.width:
            raise ValueError("line names must be unique")
        bad = _first_bad_name(self.line_names)
        if bad is not None:
            raise ValueError(f"bad line name {bad!r}")
        for c in self.constants:
            if c not in (None, 0, 1):
                raise ValueError("constants must be 0, 1 or None")
        declared = [o for o in self.outputs if o is not None]
        if declared != list(range(len(declared))):
            raise ValueError("output indices must be 0..m-1 in line order")
        gates = self.gates
        half = len(gates) // 2
        # the mirror: the first position, up to half, whose gate differs from
        # the gate at its place from the end, or whose suffix gate's controls
        # is not a plain tuple (a type is no value; the check below names it).
        # The `same` gates shared with the prefix need neither test.
        same = next(compress(count(), map(is_not, islice(gates, half), reversed(gates))), half)
        pairs = map(ne, islice(gates, same, half), islice(reversed(gates), same, None))
        mirror = next(compress(count(same), pairs), half)
        kinds = map(type, map(itemgetter(1), islice(reversed(gates), same, mirror)))
        mirror = next(compress(count(same), map(is_not, kinds, repeat(tuple))), mirror)
        object.__setattr__(self, "_mirror", mirror)
        # the suffix of `mirror` gates equals gates checked in the prefix, and
        # each other rule is a function of a plain int pair's value, so the
        # first fault, and its message, lies before it
        # controls are checked once per run of gates on one tuple object: last
        # keeps it alive, so no other object takes its id; hi is its top line
        width = self.width
        last, hi = None, -1
        for target, controls in islice(gates, len(gates) - mirror):
            if target < 0:
                raise ValueError("negative target line")
            if controls is not last:
                if type(controls) is not tuple:
                    raise ValueError("gate controls must be a tuple")
                prev = -1
                for c in controls:
                    if c >> 1 <= prev:
                        raise ValueError("control lines must be non-negative and in strictly ascending order")
                    prev = c >> 1
                last, hi = controls, prev
            # the controls ascend, so a target above their highest line is none of them
            if target <= hi and (target << 1 in controls or target << 1 | 1 in controls):
                raise ValueError("target used as its own control")
            if target >= width or hi >= width:
                raise ValueError("gate uses a line beyond the circuit width")

    @classmethod
    def layout(cls, width: int, gates: Iterable[tuple], names: Iterable[str],
               num_inputs: int, num_outputs: int, first_output: int) -> "RevCircuit":
        """The one line layout of every flow.

        Inputs sit on lines 0..num_inputs-1, every other line is a constant 0,
        and output j sits on line first_output + j; the rest is garbage.
        """
        tail = width - first_output - num_outputs
        return cls(
            width=width,
            gates=tuple(gates),
            line_names=tuple(names),
            constants=(None,) * num_inputs + (0,) * (width - num_inputs),
            outputs=(None,) * first_output + tuple(range(num_outputs)) + (None,) * tail,
        )

    @classmethod
    def generic(cls, width: int, gates: Iterable[tuple]) -> "RevCircuit":
        """All lines primary inputs, all lines outputs in place."""
        return cls.layout(width, gates, (f"l{i}" for i in range(width)), width, width, 0)

    @property
    def num_inputs(self) -> int:
        return self.constants.count(None)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs) - self.outputs.count(None)


def _apply(gates, planes: list, full: int) -> None:
    """Apply `gates` in order to the per-line bit planes, `full` a plane of ones.

    A gate on the previous gate's controls tuple object reuses its fire:
    that gate's target is not among those controls (``RevCircuit`` rejects
    it), so it left their planes unchanged.  The test is identity, not
    equality: a gate on an equal but distinct tuple recomputes the same
    fire, and the flows and ``read_real`` share one tuple where controls
    repeat.
    """
    last = fire = None
    for target, controls in gates:
        if controls is not last:
            last = controls
            fire = full
            for c in controls:
                fire &= ~planes[c >> 1] if c & 1 else planes[c >> 1]
        planes[target] ^= fire


def _run_planes(circ: RevCircuit, planes: list, batch: int) -> list:
    """Apply the cascade to per-line bit planes over `batch` assignments.

    A cascade A · B · A⁻¹ over its mirror A runs A · B only, when B writes
    no line that A reads or writes; then every line B does not write takes
    its starting plane back.  That is exact: A⁻¹ would return A's lines,
    which B left as A left them, to their start, and touch no other line.
    The check costs nothing per gate: while A runs, B's lines hold None, so
    A's first read or write of one raises TypeError, and then every gate
    runs from the start.
    """
    full = (1 << batch) - 1
    gates = circ.gates
    mirror = circ._mirror
    if mirror:
        middle = gates[mirror:len(gates) - mirror]
        written = {target for target, _ in middle}
        start = planes[:]
        for line in written:
            planes[line] = None
        try:
            _apply(islice(gates, mirror), planes, full)
        except TypeError:
            planes[:] = start  # A uses a line B writes
        else:
            for line in written:
                planes[line] = start[line]
            _apply(middle, planes, full)
            for line in written:
                start[line] = planes[line]
            planes[:] = start
            return planes
    _apply(gates, planes, full)
    return planes


def simulate_source_batch(circ: RevCircuit) -> list:
    """Final value of every line across all source-input assignments.

    Bit x of entry L is line L's final value when the primary inputs (taken
    in ascending line order) spell x and constant lines hold their values.
    """
    n = circ.num_inputs
    batch = 1 << n
    full = (1 << batch) - 1
    planes = []
    seen = 0
    for line in range(circ.width):
        c = circ.constants[line]
        if c is None:
            planes.append(_input_pattern(seen, n))
            seen += 1
        else:
            planes.append(full if c else 0)
    return _run_planes(circ, planes, batch)


def simulate_full(circ: RevCircuit) -> Permutation:
    """The permutation the cascade performs on all r-bit words."""
    r = circ.width
    if r > FULL_SIM_MAX_WIDTH:
        raise ValueError(f"width {r} too large for full simulation")
    planes = [_input_pattern(i, r) for i in range(r)]
    _run_planes(circ, planes, 1 << r)
    return Permutation(r, tuple(_transpose(planes, 1 << r)))


def first_mismatch(circ: RevCircuit, tt: TruthTable) -> "tuple[int, int, int, int] | None":
    """(x, output, got, want) where the circuit first departs from the table.

    Constant lines hold their values and every source assignment is checked
    at once.  The smallest failing assignment x wins, then the smallest
    output index; None means the circuit computes the table.  Raises
    ValueError when the input or output counts differ.
    """
    if circ.num_inputs != tt.num_inputs or circ.num_outputs != tt.num_outputs:
        raise ValueError(
            f"circuit has {circ.num_inputs} inputs / {circ.num_outputs} outputs, "
            f"table has {tt.num_inputs} / {tt.num_outputs}"
        )
    planes = simulate_source_batch(circ)
    # outputs sit in ascending line order, which RevCircuit validates
    outs = [plane for plane, o in zip(planes, circ.outputs) if o is not None]
    first = None
    for j, (got, want) in enumerate(zip(outs, tt.columns())):
        diff = got ^ want
        if diff:
            x = (diff & -diff).bit_length() - 1
            if first is None or x < first[0]:
                first = (x, j, got >> x & 1, want >> x & 1)
    return first


def verify_circuit(circ: RevCircuit, tt: TruthTable) -> bool:
    """True iff the circuit computes the table on its output lines."""
    return first_mismatch(circ, tt) is None


# --- cost accounting ---------------------------------------------------


def _default_t_cost(controls: int) -> int:
    if controls <= 1:
        return 0
    if controls == 2:
        return 7
    return 8 * (controls - 2) + 7


class CostModel(_Record):
    """T-gate cost per Toffoli as a function of its control count.

    Entries in overrides replace the built-in schedule at those control
    counts; everything else falls back to the default.
    """

    overrides: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # the overrides by control count, outside the fields, as RevCircuit's _mirror is
        table = {}
        for c, t in self.overrides:
            if c < 0 or t < 0:
                raise ValueError("cost entries must be non-negative")
            if c in table:
                raise ValueError(f"duplicate cost entry for {c} controls")
            table[c] = t
        object.__setattr__(self, "_table", table)
        # the default schedule never decreases, so a decrease from c - 1 to c
        # has an override at c - 1 or at c
        for c in {d for o in table for d in (o, o + 1) if d}:
            if self.t_of_controls(c) < self.t_of_controls(c - 1):
                raise ValueError("cost must not decrease with more controls")

    def t_of_controls(self, controls: int) -> int:
        t = self._table.get(controls)
        return _default_t_cost(controls) if t is None else t

    @classmethod
    def parse(cls, text: str, path: str = "<cost>") -> "CostModel":
        entries = []
        for lineno, raw in enumerate(_uncomment(text).split("\n"), start=1):
            line = raw.strip()
            if not line:
                continue
            head, sep, tail = line.partition(":")
            if not sep:
                raise ParseError("expected 'controls: t-cost'", path, lineno)
            fault = f"bad cost entry {line!r}"
            entries.append(tuple(_decimal(f.strip(), fault, path, lineno) for f in (head, tail)))
        try:
            return cls(tuple(entries))
        except ValueError as exc:
            raise ParseError(str(exc), path) from None

    @classmethod
    def from_file(cls, path) -> "CostModel":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read(), str(path))


DEFAULT_COST_MODEL = CostModel()


class CostReport(_Record):
    qubits: int
    gate_count: int
    t_count: int
    control_histogram: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {
            "qubits": self.qubits,
            "gates": self.gate_count,
            "t_count": self.t_count,
            "control_histogram": {str(c): k for c, k in self.control_histogram},
        }


def cost_report(circ: RevCircuit, model: CostModel = DEFAULT_COST_MODEL) -> CostReport:
    gates = circ.gates
    sizes = map(len, map(itemgetter(1), gates))
    # the mirror's suffix repeats its prefix: count the prefix twice, then the middle
    hist = Counter(islice(sizes, circ._mirror))
    for c in hist:
        hist[c] *= 2
    hist.update(islice(sizes, len(gates) - 2 * circ._mirror))
    return CostReport(
        qubits=circ.width,
        gate_count=len(circ.gates),
        t_count=sum(model.t_of_controls(c) * k for c, k in hist.items()),
        control_histogram=tuple(sorted(hist.items())),
    )


# --- circuit file format -----------------------------------------------


def write_real(circ: RevCircuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(".version 2.0\n")
        fh.write(f".numvars {circ.width}\n")
        fh.write(".variables " + " ".join(circ.line_names) + "\n")
        consts = "".join("-" if c is None else str(c) for c in circ.constants)
        fh.write(f".constants {consts}\n")
        garbage = "".join("1" if o is None else "-" for o in circ.outputs)
        fh.write(f".garbage {garbage}\n")
        # each gate line's newline leads it, so a gate is one concatenation
        fh.write(".begin")
        # literal c is written as lit_names[c]: the line name, "-" when negative
        names = circ.line_names
        lit_names = [s for name in names for s in (name, "-" + name)]
        # each distinct control set is formatted once, as "\ntK c1 .. cK-1 ";
        # a gate on the previous gate's controls object reuses its head unhashed
        heads: dict[tuple[int, ...], str] = {}
        last = head = None
        write = fh.write
        for target, controls in circ.gates:
            if controls is not last:
                last = controls
                head = heads.get(controls)
                if head is None:
                    head = heads[controls] = " ".join(
                        (f"\nt{len(controls) + 1}", *map(lit_names.__getitem__, controls), "")
                    )
            write(head + names[target])
        fh.write("\n.end\n")


# a .constants character -> the line's constant, None for a primary input
_CONSTANT = {"-": None, "0": 0, "1": 1}


def read_real(path) -> RevCircuit:
    """Read a circuit in the subset of RevLib's REAL format revflow uses.

    Accepted: ``#`` comments and blank lines; the directives ``.version``
    (ignored), ``.numvars``, ``.variables`` (distinct names, none led by
    ``-``), ``.constants`` (``0``, ``1`` or ``-`` per line), ``.garbage``
    (``1`` or ``-`` per line), each of these four at most once, ``.begin``
    and ``.end``; and in the body,
    where the only directive is ``.end``, only Toffoli gates
    ``tK c1 .. cK-1 target``, each control a line name, negative when led
    by ``-``, in any order, the target never negative, operands separated
    by any whitespace.  Anything else raises ``ParseError`` at its line, or
    at none for a fault of the whole file such as a missing ``.end``.

    The body has its own loop, cheap for lines in the form ``write_real``
    writes them: ``tK c1 .. cK-1 target``, single spaces, a newline.  The
    text up to such a line's last space is its head, and a dict maps each
    head to the position of the last gate read from it.  These lines build
    their gates unchecked; a body line takes one of four paths:

    - replay: Bennett cleanup writes the compute phase again in reverse,
      and the replay shares the compute half's gate objects with it, which
      saves allocation (the mirror is found by value either way).  A line
      that repeats its head's last gate appends that very gate object and
      starts a replay at its position; while one runs, a line whose target
      and head's controls tuple are those of the gate just before the
      replay position appends that very gate object and moves the position
      back by one.  Any other line ends the replay.
    - cached head: a line whose head is in the dict and whose last word and
      newline, ``target + "\\n"``, name a line costs two dict hits.  A new
      target builds one pair on the same ``controls`` tuple, which takes
      the head's place.
    - written form, new head: such a line whose key is ``tK`` for its K
      words, each word after the key a literal, builds its pair in one step
      (``split(" ")``, one tuple of literals) and caches its head.
    - full parse: every other line (a comment or blank line, tabs or runs of
      spaces, leading whitespace, a key such as ``t02``, no final newline,
      ``.end``) is lexed by ``logicnet._uncomment`` (text mode already ends
      lines at ``\\n``, ``\\r\\n`` and ``\\r``), and a gate line's tokens
      go to ``parse_gate``; its head is not cached.

    A pair these paths append is the line's gate, with its controls in the
    order written, so it can break a gate rule only by its controls (out of
    order, a line twice, the target among them), which ``RevCircuit``
    rejects.  Then, or at any fault in or after the body, the body is read
    again with every gate line through ``parse_gate``, which sorts the
    controls and names the first fault at its own line.
    """
    width = None
    names: list | None = None
    constants = None
    outputs = None
    declared: set[str] = set()

    def fail(msg, lineno=None):
        raise ParseError(msg, str(path), lineno)

    with open(path, encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        for lineno, raw in lines:
            tokens = _uncomment(raw).split()
            if not tokens:
                continue
            key = tokens[0]
            if key == ".version":
                continue
            if key in (".numvars", ".variables", ".constants", ".garbage"):
                if key in declared:
                    fail(f"{key} declared twice", lineno)
                declared.add(key)
            if key == ".numvars":
                if len(tokens) != 2:
                    fail("bad .numvars", lineno)
                width = _decimal(tokens[1], "bad .numvars", str(path), lineno)
                if not width:
                    fail("circuit needs at least one line", lineno)
                continue
            if key == ".variables":
                if width is None:
                    fail(".variables before .numvars", lineno)
                names = tokens[1:]
                if len(names) != width or len(set(names)) != width:
                    fail(f"expected {width} distinct variable names", lineno)
                bad = _first_bad_name(names)
                if bad is not None:
                    fail(f"bad line name {bad!r}", lineno)
                continue
            if key == ".constants":
                if width is None or len(tokens) != 2 or len(tokens[1]) != width:
                    fail("bad .constants", lineno)
                if set(tokens[1]) - set("01-"):
                    fail("constants must be 0, 1 or -", lineno)
                constants = tuple(map(_CONSTANT.__getitem__, tokens[1]))
                continue
            if key == ".garbage":
                if width is None or len(tokens) != 2 or len(tokens[1]) != width:
                    fail("bad .garbage", lineno)
                if set(tokens[1]) - set("1-"):
                    fail("garbage must be 1 or -", lineno)
                kept = iter(range(width))  # output indices in line order
                outputs = tuple(None if ch == "1" else next(kept) for ch in tokens[1])
                continue
            if key == ".begin":
                if names is None:
                    fail(".begin before .variables", lineno)
                if len(tokens) != 1:
                    fail(".begin takes no fields", lineno)
                break
            if key == ".end":
                fail(".end before .begin", lineno)
            if key.startswith("."):
                fail(f"unknown directive {key}", lineno)
            fail("gate outside .begin/.end", lineno)
        else:  # the file ended before .begin
            if width is None or names is None:
                fail("missing .numvars/.variables")
            fail("missing .end")
        if constants is None:
            constants = (None,) * width
        if outputs is None:
            outputs = tuple(range(width))
        if fh.seekable():  # else, a pipe say, the one read is the checked one
            try:
                return RevCircuit(width, tuple(_read_body(lines, names, str(path))), tuple(names),
                                  constants, outputs)
            except ValueError:
                pass  # an unchecked gate broke a rule, or a line is a fault: read again
            fh.seek(0)
            lines = enumerate(islice(fh, lineno, None), lineno + 1)
        gates = _read_body(lines, names, str(path), checked=True)
    try:
        return RevCircuit(width, tuple(gates), tuple(names), constants, outputs)
    except ValueError as exc:
        raise ParseError(str(exc), str(path)) from None


def _read_body(lines, names: list, path: str, checked: bool = False) -> list:
    """The gates of a REAL body, read from `lines` to the end of the file;
    if `checked`, every gate line goes to ``parse_gate`` (see ``read_real``)."""

    def fail(msg, lineno=None):
        raise ParseError(msg, path, lineno)

    top = len(names) << 1
    literals = dict(zip(names, range(0, top, 2)))
    literals.update(zip(map("-".__add__, names), range(1, top, 2)))
    # names hold no '#' or whitespace, so "name\n" ends only a comment-free
    # line, and the names joined by "\n " split at the spaces into those ends
    ends = dict(zip(("\n ".join(names) + "\n").split(" "), range(len(names))))

    def parse_gate(tokens, lineno) -> tuple:
        """The gate of a body line's comment-free tokens, or a ParseError."""
        key = tokens[0]
        fault = f"unknown gate kind {key!r}"
        if key[0] != "t":
            fail(fault, lineno)
        arity = _decimal(key[1:], fault, path, lineno)
        if arity < 1:
            fail(f"gate {key} has no target (t1 is the smallest gate)", lineno)
        operands = tokens[1:]
        if len(operands) != arity:
            fail(f"gate {key} expects {arity} operands", lineno)
        controls = []
        for op in operands[:-1]:
            lit = literals.get(op)
            if lit is None:
                name = op[1:] if op.startswith("-") else op
                fail(f"unknown line {name!r}", lineno)
            controls.append(lit)
        name = operands[-1]
        target = ends.get(name + "\n")
        if target is None:
            if name in literals:  # "-" before a known line
                fail(f"target {name[1:]!r} cannot be negative", lineno)
            fail(f"unknown line {name!r}", lineno)
        controls = tuple(sorted(controls))
        # the lines are known and the controls sorted, so only a repeat is left
        named = [target] + [c >> 1 for c in controls]
        if len(set(named)) < len(named):
            twice = next(x for x in named if named.count(x) > 1)
            fail(f"line {names[twice]!r} named twice in one gate", lineno)
        return target, controls

    gates: list = []
    last_at: dict[str, int] = {}  # head text -> index in gates of the last gate read from it
    # while nonzero, the next line may be gates[replay - 1]: a reversed replay
    replay = 0
    tails = {} if checked else ends  # a checked read takes no written-form path
    for lineno, raw in lines:
        head, _, end = raw.rpartition(" ")
        target = tails.get(end)
        if target is not None:
            at = last_at.get(head)
            if at is None:
                gate = None
                # written form: the key counts the words, each one after it a literal
                tokens = head.split(" ")
                if tokens[0] == f"t{len(tokens)}":
                    try:
                        gate = target, tuple(map(literals.__getitem__, tokens[1:]))
                    except KeyError:
                        pass  # parse_gate names the fault
            else:
                controls = gates[at][1]
                if replay:
                    # this line's gate is (target, controls), so a gate on
                    # that very tuple with that target equals it
                    prev = gates[replay - 1]
                    if prev[1] is controls and prev[0] == target:
                        gates.append(prev)
                        replay -= 1
                        continue
                if gates[at][0] == target:
                    # the head's last gate again: the lines before it may follow, in reverse
                    replay = at
                    last_at[head] = len(gates)
                    gates.append(gates[at])
                    continue
                gate = target, controls
            replay = 0
            if gate is not None:
                last_at[head] = len(gates)
                gates.append(gate)
                continue
        replay = 0
        tokens = _uncomment(raw).split()
        if not tokens:
            continue
        key = tokens[0]
        if key[0] == ".":
            if key != ".end":
                # a header directive here would reinterpret the gates already read
                fail(f"{key} after .begin", lineno)
            if len(tokens) != 1:
                fail(".end takes no fields", lineno)
            for lineno, raw in lines:
                if _uncomment(raw).strip():
                    fail("content after .end", lineno)
            return gates
        gates.append(parse_gate(tokens, lineno))
    fail("missing .end")
