"""Combinational logic representations: truth tables, ESOP cube lists, and
majority/xor networks, plus the text formats used to move them between tools.

A table is held either as row words (bit j of row x is output j under input
assignment x) or as bit-planes, one big integer per output or line whose bit
x is its value under row or assignment x.  ``_transpose`` is the one
conversion between the two layouts, in both directions.

A cube of an ESOP form is a plain ``(mask, polarity, output_mask)`` tuple.
The code that builds or rebuilds cubes (Reed-Muller expansion, the
minimizer, the .pla reader) checks none of them; ``EsopForm`` checks each
cube once, when a form is made.
"""

import os
import re
import sys
from array import array
from bisect import bisect_left, insort
from itertools import chain, islice

# Table cap: the widest 2^n step (a table, a form to tabulate, an embedding, a
# simulation).  REVFLOW_TT_LIMIT, when set, replaces it for every step.
DEFAULT_TT_LIMIT = 20

# Network width cap: the most inputs a read .xmg may declare and the widest
# design.  A network needs no table, so REVFLOW_TT_LIMIT does not move it;
# NEWTON is already millions of nodes at this width.
MAX_NET_WIDTH = 128


class ParseError(ValueError):
    """Malformed input file; carries the offending location when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = "".join(f"{part}:" for part in (path, line) if part is not None)
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line


_COMMENT = re.compile(r"#[^\n]*")


def _uncomment(text: str) -> str:
    """An input text with every line break a ``\\n`` and every comment cut.

    The four rules of every text input (.pla, .xmg, .real, cost tables): a
    ``#`` starts a comment that runs to the end of its line; lines end only
    at ``\\n``, ``\\r\\n`` or ``\\r``; a numeric field is ASCII decimal
    digits (``_decimal``); a fault of the whole file carries no line
    number.  This function keeps the first two, the readers the last two.
    """
    return _COMMENT.sub("", text.replace("\r\n", "\n").replace("\r", "\n"))


def _decimal(field: str, fault: str, path: str | None = None, line: int | None = None) -> int:
    """The value of a numeric field, the one rule for every number a file or
    the environment gives: ASCII decimal digits, no more of them than
    ``int()`` converts (``sys.get_int_max_str_digits()``, 4300 by default).
    Any other field raises ``ParseError(fault)`` at the given place, and a
    longer one a ParseError that says so."""
    if field.isascii() and field.isdigit():
        try:
            return int(field)
        except ValueError:
            raise ParseError(f"number of {len(field)} digits is too long", path, line) from None
    raise ParseError(fault, path, line)


class TableLimitError(ValueError):
    """Raised when a truth-table expansion would exceed the configured input limit."""


def _table_cap() -> int:
    """REVFLOW_TT_LIMIT when it is set, a positive number by ``_decimal``'s rule; else DEFAULT_TT_LIMIT."""
    raw = os.environ.get("REVFLOW_TT_LIMIT")
    if raw is None:
        return DEFAULT_TT_LIMIT
    value = _decimal(raw, f"expected ASCII decimal digits, got {raw!r}", "REVFLOW_TT_LIMIT")
    if value < 1:
        raise ParseError("REVFLOW_TT_LIMIT must be positive")
    return value


def _check_limit(width: int, limit: int | None = None) -> None:
    """Raise TableLimitError when the width of a 2^n step exceeds ``limit``,
    by default the table cap."""
    cap = _table_cap() if limit is None else limit
    if width > cap:
        raise TableLimitError(f"width {width} exceeds the truth-table limit of {cap}; "
                              "raise REVFLOW_TT_LIMIT to proceed")


class _Record:
    """Base of revflow's frozen records, written out once instead of
    generated per class.

    A record's fields are its class annotations, in order, and a class
    attribute of the same name is that field's default.  The fields are set
    once, by position or keyword, when the record is built; then
    ``__post_init__`` checks them.  Any later assignment or deletion raises
    AttributeError.  Records of one class compare and hash by their field
    values and print as ``Name(field=value, ...)``.  Each keeps its
    ``__dict__``, so copy, deepcopy and pickle restore it as they would any
    object.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # object's setter, not an update of __dict__: an instance whose
        # __dict__ is never asked for keeps CPython's faster attribute layout
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from positional, keyword and default values."""
        fields = cls._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}, each at most once")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing the fields {', '.join(missing)}")
        return [values[name] for name in fields]

    def __post_init__(self):
        """Check the fields; a record with nothing to check keeps this."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class TruthTable(_Record):
    """Complete multi-output truth table.

    rows[x] is the m-bit output word for input assignment x; bit i of x is
    input i, bit j of a row is output j.
    """

    num_inputs: int
    num_outputs: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.num_inputs < 0 or self.num_outputs < 0:
            raise ValueError("negative arity")
        if len(self.rows) != 1 << self.num_inputs:
            raise ValueError(
                f"expected {1 << self.num_inputs} rows, got {len(self.rows)}"
            )
        top = 1 << self.num_outputs
        for x, row in enumerate(self.rows):
            if not 0 <= row < top:
                raise ValueError(f"row {x} value {row} out of range for {self.num_outputs} outputs")

    def columns(self) -> list[int]:
        """One bit-plane per output: bit x of columns()[j] is output j of row x."""
        return _transpose(self.rows, self.num_outputs)


class EsopForm(_Record):
    """Exclusive-or sum of products over num_inputs inputs and num_outputs outputs.

    Each cube, a product term and the outputs it feeds, is the triple
    ``(mask, polarity, output_mask)``: mask bit i set means input i appears
    as a literal; polarity bit i (always a subset of mask) gives that
    literal's phase, 1 for positive.  output_mask bit j set means the cube
    is XORed into output j.
    """

    num_inputs: int
    num_outputs: int
    cubes: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_inputs < 0 or self.num_outputs < 0:
            raise ValueError("negative arity")
        for k, (mask, polarity, output_mask) in enumerate(self.cubes):
            if mask < 0 or polarity < 0:
                raise ValueError("negative literal masks")
            if polarity & ~mask:
                raise ValueError("polarity bits outside the literal mask")
            if output_mask <= 0:
                raise ValueError("cube must drive at least one output")
            # bit lengths, not 2^n bounds: a header's counts may be far too large to shift by
            if mask.bit_length() > self.num_inputs:
                raise ValueError(f"cube {k} uses inputs beyond {self.num_inputs}")
            if output_mask.bit_length() > self.num_outputs:
                raise ValueError(f"cube {k} drives outputs beyond {self.num_outputs}")

    def to_truth_table(self, limit: int | None = None) -> TruthTable:
        """Tabulate all assignments at once, one bit-parallel product per cube."""
        n = self.num_inputs
        _check_limit(n, limit)
        ones = (1 << (1 << n)) - 1
        inputs = [_input_pattern(i, n) for i in range(n)]
        cols = [0] * self.num_outputs
        for mask, polarity, output_mask in self.cubes:
            product = ones
            for i in _bits(mask):
                product &= inputs[i] if polarity >> i & 1 else ~inputs[i]
            for j in _bits(output_mask):
                cols[j] ^= product
        return TruthTable(n, self.num_outputs, tuple(_transpose(cols, 1 << n)))


def esop_from_tt(tt: TruthTable) -> EsopForm:
    """Canonical positive-polarity Reed-Muller expansion of a truth table.

    The butterfly transform runs on each output's bit-plane: step i XORs
    every row without input i into the row with it, one shift of the plane.
    The coefficient planes, turned back into words, become cube output
    masks.  Cubes carry only positive literals and are emitted in ascending
    monomial order.
    """
    n = tt.num_inputs
    cols = tt.columns()
    full = (1 << (1 << n)) - 1
    for i in range(n):
        keep = full ^ _input_pattern(i, n)
        shift = 1 << i
        cols = [col ^ (col & keep) << shift for col in cols]
    cubes = [(s, s, w) for s, w in enumerate(_transpose(cols, 1 << n)) if w]
    return EsopForm(n, tt.num_outputs, tuple(cubes))


def _combine_identical(cubes: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    # XOR-combine cubes with identical literal sets at the first one's place;
    # drop cancelled ones.
    acc: dict[tuple[int, int], int] = {}
    for m, p, w in cubes:
        key = m, p
        acc[key] = acc.get(key, 0) ^ w
    return [(m, p, w) for (m, p), w in acc.items() if w]


def esop_minimize(esop: EsopForm) -> EsopForm:
    """Reduce a cube list by exact cancellation and distance-1 merging.

    Runs to a fixpoint: identical literal sets XOR-combine (cancelling when the
    combined output mask is empty), and cube pairs at literal distance one fuse
    into one cube at the earlier place; the result computes the same function.
    Pairs merge as a scan restarted after each change finds them: the first
    cube by place, its first literal, ascending, with a partner of the same
    output mask and that literal's phase flipped or else left out.  So a pass
    sorts the places stably by output mask and each run, a group, finds its
    first merge, a pair by one XOR test, more cubes by lookups in an index of
    literal sets (each the int ``mask << n | polarity``); the least place goes
    first.  A merge blanks the deleted place and leaves the other groups and
    their first merges alone; its group searches again from that place and at
    the merged cube's neighbours.  Repeats combine and start a new pass.
    """
    n = esop.num_inputs
    # a cube is (mask, polarity, output_mask), so cube[2] is its output mask
    cubes: list[tuple[int, int, int] | None] = list(esop.cubes)
    lits = [(1 << i + n, 1 << i + n | 1 << i) for i in range(n)]  # literal i's key bits, - and +

    def pair_merge(k: int, other: int) -> tuple[int, int, tuple[int, int, int]] | None:
        # a group of two merges iff the literal maps differ in one bit
        (m, p, w), (dm, dp, _) = cubes[k], cubes[other]
        bit = m ^ dm | p ^ dp
        if bit & (bit - 1):
            return None
        if m == dm:
            return k, other, (m & ~bit, p & ~bit, w)
        if dm & bit:  # found at the cube with the literal
            return other, k, (dm, dp ^ bit, w)
        return k, other, (m, p ^ bit, w)

    def scan(places) -> tuple[int, int, tuple[int, int, int]] | None:
        # the first merge at one group's ascending places: its place, the partner's, the merged cube
        for k in places:
            if (c := cubes[k]) is None:
                continue
            m, p, w = c
            key = m << n | p
            for i in _bits(m):
                bit = 1 << i
                # partner has the opposite phase at i
                other = index.get(key ^ bit)
                if other is not None and other > k and cubes[other][2] == w:
                    return k, other, (m & ~bit, p & ~bit, w)
                # partner lacks the literal at i entirely
                other = index.get(key ^ (bit << n | p & bit))
                if other is not None and cubes[other][2] == w:
                    return k, other, (m, p ^ bit, w)
        return None

    while True:
        index = {m << n | p: k for k, (m, p, _) in enumerate(cubes)}
        if len(index) < len(cubes):
            cubes = _combine_identical(cubes)
            continue
        order = sorted(index.values(), key=lambda k: cubes[k][2])
        pending, s = [], 0  # each group's first merge, least place first
        for e in range(1, len(order) + 1):
            if e == len(order) or cubes[order[e]][2] != cubes[order[s]][2]:
                if found := pair_merge(*order[s:e]) if e - s == 2 else e - s > 2 and scan(order[s:e]):
                    pending.append((*found, s, e))
                s = e
        pending.sort()
        while pending:
            k, other, merged, s, e = pending.pop(0)
            lo, hi = (other, k) if other < k else (k, other)
            for m, p, _ in cubes[lo], cubes[hi]:
                del index[m << n | p]
            cubes[lo], cubes[hi] = merged, None
            m, p, w = merged
            if (key := m << n | p) in index:
                break
            index[key] = lo
            # no pair was found before place k; a new one holds the merged cube,
            # so it or a cube one literal's state away (a miss reads k) is there
            near = {index.get(key & ~pos | state, k) for neg, pos in lits for state in (0, neg, pos)}
            before = sorted(x for x in near if x < k and cubes[x][2] == w)
            if found := scan(chain(before, islice(order, bisect_left(order, k, s, e), e))):
                insort(pending, (*found, s, e))
        else:
            return EsopForm(esop.num_inputs, esop.num_outputs, tuple(filter(None, cubes)))
        cubes = _combine_identical(list(filter(None, cubes)))


# ---------------------------------------------------------------------------
# PLA text format (ESOP dialect): .i/.o/.type headers, one cube per line as
# an input pattern over {0,1,-} and an output pattern over {0,1}, then .e.


# a mask digit plus a polarity digit, both ASCII "0" or "1", to the input
# pattern's character: 0x60 no literal, 0x61 negative, 0x62 positive
_LITERAL_CHARS = bytes.maketrans(b"`ab", b"-01")


def write_pla(esop: EsopForm, path) -> None:
    """Write the form a column at a time.

    The cubes' masks, polarities and output masks are turned into planes
    over the cubes, bit k for cube k.  Each plane becomes one text column
    with one ``format``; an input column adds the mask's and the polarity's
    ASCII digits as two big integers, whose bytes never carry, and
    translates the sums.  The columns go into the text at the stride of a
    line.
    """
    n, m, cubes = esop.num_inputs, esop.num_outputs, esop.cubes
    count = len(cubes)
    # a line is the input pattern, a space, the output pattern and a newline
    stride = n + m + 2
    text = bytearray(b" ") * (stride * count)
    if cubes:
        text[stride - 1::stride] = b"\n" * count
        digits = f"0{count}b"
        masks, polarities, outputs = zip(*cubes)
        # the texts lead with the last cube, so the sum's bytes go out little-endian
        for i, (mask, polarity) in enumerate(zip(_transpose(masks, n), _transpose(polarities, n))):
            sums = (int.from_bytes(format(mask, digits).encode(), "big")
                    + int.from_bytes(format(polarity, digits).encode(), "big"))
            text[i::stride] = sums.to_bytes(count, "little").translate(_LITERAL_CHARS)
        for j, plane in enumerate(_transpose(outputs, m)):
            text[n + 1 + j::stride] = format(plane, digits)[::-1].encode()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f".i {n}\n.o {m}\n.type esop\n{text.decode()}.e\n")


# translate tables: the first two delete the characters a column may hold,
# so what is left of a pattern or column is its bad characters in order; the
# third marks each literal of an input pattern or column with 1
_INPUT_COLUMNS = str.maketrans("", "", "01-")
_OUTPUT_COLUMNS = str.maketrans("", "", "01")
_LITERAL_BITS = str.maketrans("01-", "110")


def _read_cube_run(run: str, n: int, m: int) -> list[tuple[int, int, int]] | None:
    """The cubes of a run of cube lines, read a column at a time, or None.

    None unless every line of the run is in the form ``write_pla`` writes,
    n input columns, one space, m output columns and a newline, and every
    cube drives an output.  A column of the run, reversed, is the binary
    numeral of a plane over the cubes, bit k for cube k; ``_transpose``
    turns the planes into the cubes' words.
    """
    stride = n + m + 2
    count = len(run) // stride
    if (len(run) != count * stride or run[n::stride] != " " * count
            or run[stride - 1::stride] != "\n" * count):
        return None
    masks, polarities, outputs = [], [], []
    for i in range(n):
        column = run[i::stride]
        if column.translate(_INPUT_COLUMNS):
            return None
        column = column[::-1]
        masks.append(int(column.translate(_LITERAL_BITS), 2))
        polarities.append(int(column.replace("-", "0"), 2))
    for j in range(n + 1, n + 1 + m):
        column = run[j::stride]
        if column.translate(_OUTPUT_COLUMNS):
            return None
        outputs.append(int(column[::-1], 2))
    outputs = _transpose(outputs, count)
    if 0 in outputs:
        return None
    # equal output masks share one int, so the form holds fewer (INTDIV n=13: 6,086 for 8,190 cubes)
    outputs = list(map({}.setdefault, outputs, outputs))
    masks = _transpose(masks, count)
    # a positive-polarity cube (every Reed-Muller cube) shares its mask's int
    polarities = [m if p == m else p for m, p in zip(masks, _transpose(polarities, count))]
    return list(zip(masks, polarities, outputs))


def read_pla(path) -> EsopForm:
    """Read an ESOP-dialect PLA file.

    The headers are read line by line.  At the first cube line, the run of
    cube lines up to the next line that starts with ``.`` or the end of the
    text is first read by ``_read_cube_run``.  A run that step turns down
    (a blank or comment line, a tab, a bad column, a cube that drives
    nothing), and any later run, is read line by line; that loop is the
    only code that names a fault.
    """
    name = str(path)
    num_inputs: int | None = None
    num_outputs: int | None = None
    cubes: list[tuple[int, int, int]] = []
    ended = False
    typed = False
    tried = False  # whether the cube run went to _read_cube_run
    with open(path, encoding="utf-8") as fh:
        text = _uncomment(fh.read())
    lineno = 0
    start = 0  # where line lineno + 1 starts in text
    while start < len(text):
        offset = start
        start = text.find("\n", offset) + 1 or len(text)
        lineno += 1
        fields = text[offset:start].split()
        if not fields:
            continue
        if ended:
            raise ParseError("content after .e", name, lineno)
        directive = fields[0]
        if directive[0] == ".":
            if directive == ".i" or directive == ".o":
                if cubes:
                    raise ParseError(f"{directive} header after the first cube", name, lineno)
                if (num_inputs if directive == ".i" else num_outputs) is not None:
                    raise ParseError(f"{directive} header given twice", name, lineno)
                fault = f"malformed {directive} header"
                if len(fields) != 2:
                    raise ParseError(fault, name, lineno)
                if directive == ".i":
                    num_inputs = _decimal(fields[1], fault, name, lineno)
                else:
                    num_outputs = _decimal(fields[1], fault, name, lineno)
            elif directive == ".type":
                if fields[1:] != ["esop"]:
                    raise ParseError("only .type esop is supported", name, lineno)
                typed = True
            elif directive == ".e":
                if len(fields) != 1:
                    raise ParseError(".e takes no fields", name, lineno)
                ended = True
            else:
                raise ParseError(f"unknown directive {directive}", name, lineno)
            continue
        if num_inputs is None or num_outputs is None:
            raise ParseError("cube before .i/.o headers", name, lineno)
        if not typed:
            # a plain PLA sums cubes with OR; reading it as ESOP would be wrong
            raise ParseError("cube before .type esop declaration", name, lineno)
        if not tried:
            tried = True
            end = text.find("\n.", offset) + 1 or len(text)
            run = _read_cube_run(text[offset:end], num_inputs, num_outputs)
            if run is not None:
                cubes += run
                lineno += len(run) - 1
                start = end
                continue
        if len(fields) == 1 and num_inputs == 0:
            # a cube with no inputs is its output pattern alone
            fields.insert(0, "")
        if len(fields) != 2:
            raise ParseError("cube line needs an input and an output pattern", name, lineno)
        ins, outs = fields
        if len(ins) != num_inputs:
            raise ParseError(f"input pattern has {len(ins)} columns, expected {num_inputs}", name, lineno)
        if len(outs) != num_outputs:
            raise ParseError(f"output pattern has {len(outs)} columns, expected {num_outputs}", name, lineno)
        bad = ins.translate(_INPUT_COLUMNS)
        if bad:
            raise ParseError(f"bad input column character {bad[0]!r}", name, lineno)
        bad = outs.translate(_OUTPUT_COLUMNS)
        if bad:
            raise ParseError(f"bad output column character {bad[0]!r}", name, lineno)
        # column i is bit i, so a reversed pattern reads as a binary numeral
        ins = ins[::-1]
        mask = int(ins.translate(_LITERAL_BITS) or "0", 2)
        polarity = int(ins.replace("-", "0") or "0", 2)
        output_mask = int(outs[::-1], 2)
        if not output_mask:
            raise ParseError("cube drives no outputs", name, lineno)
        cubes.append((mask, polarity, output_mask))
    if num_inputs is None or num_outputs is None:
        raise ParseError("missing .i/.o headers", name)
    if not ended:
        raise ParseError("missing .e terminator", name)
    return EsopForm(num_inputs, num_outputs, tuple(cubes))


# ---------------------------------------------------------------------------
# Majority/xor networks.  Nodes are stored topologically; edges are integer
# literals 2*node+phase, so a complemented edge costs nothing to represent
# and ``x ^ 1`` complements literal x.


class Xmg:
    """Logic network over 3-input majority and 2-input xor nodes.

    Node 0 is the constant 0; inputs follow, then gates in topological order
    (operands always reference earlier nodes).  AND and OR have no node kind
    of their own, they are majorities with a constant operand.  Construction
    folds trivial gates and hashes structurally, so equivalent add_* calls
    return the same literal.  The structural-hash key of a gate is its
    operand tuple after phase normalisation, which is also what
    ``fanins[node]`` holds: ``(a, b)`` with both phases stripped and a < b
    for an XOR, and the ascending ``(a, b, c)`` with at most one
    complemented operand for a MAJ.  A node's kind is the length of its
    fanin tuple: ``()`` for the constant and the inputs, 2 for an XOR, 3
    for a MAJ.  ``fanins`` is the one node list every pass indexes; only
    the add_* methods change it.
    """

    def __init__(self):
        self.fanins: list[tuple[int, ...]] = [()]
        self._strash: dict[tuple[int, ...], int] = {}
        self._num_inputs = 0
        self._outputs: list[int] = []

    # -- construction ------------------------------------------------------

    def add_input(self) -> int:
        index = len(self.fanins)
        self.fanins.append(())
        self._num_inputs += 1
        return index << 1

    def _check_lit(self, literal: int) -> None:
        if not 0 <= literal < len(self.fanins) << 1:
            raise ValueError(f"literal {literal} references an unknown node")

    # add_xor and add_maj run once per generated or read gate, so they work
    # on the literals directly: x >> 1 is the node, x & 1 the phase.

    def add_xor(self, a: int, b: int) -> int:
        bound = len(self.fanins) << 1
        if not (0 <= a < bound and 0 <= b < bound):
            self._check_lit(a)
            self._check_lit(b)
        neg = (a ^ b) & 1
        a &= ~1
        b &= ~1
        if a == b:
            return neg
        if a == 0:
            return b | neg  # a is the constant 0 once phases are stripped
        if b == 0:
            return a | neg
        key = (a, b) if a < b else (b, a)
        node = self._strash.get(key)
        if node is None:
            node = bound >> 1
            self.fanins.append(key)
            self._strash[key] = node
        return node << 1 | neg

    def add_maj(self, a: int, b: int, c: int) -> int:
        bound = len(self.fanins) << 1
        if not (0 <= a < bound and 0 <= b < bound and 0 <= c < bound):
            for x in (a, b, c):
                self._check_lit(x)
        # equal or complementary operand pairs collapse the gate
        if a == b:
            return a
        if a == b ^ 1:
            return c
        if a == c:
            return a
        if a == c ^ 1:
            return b
        if b == c:
            return b
        if b == c ^ 1:
            return a
        # majority is self-dual; keep at most one complemented operand
        neg = 1 if (a & 1) + (b & 1) + (c & 1) >= 2 else 0
        if neg:
            a ^= 1
            b ^= 1
            c ^= 1
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        key = (a, b, c)
        node = self._strash.get(key)
        if node is None:
            node = bound >> 1
            self.fanins.append(key)
            self._strash[key] = node
        return node << 1 | neg

    def add_and(self, a: int, b: int) -> int:
        return self.add_maj(a, b, 0)  # const0

    def add_or(self, a: int, b: int) -> int:
        return self.add_maj(a, b, 1)  # const1

    def add_output(self, literal: int) -> None:
        self._check_lit(literal)
        self._outputs.append(literal)

    # -- introspection -----------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return self._num_inputs

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_nodes(self) -> int:
        return len(self.fanins)

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(self._outputs)


def _bits(word: int):
    """Positions of the set bits of a non-negative word, ascending."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def _transpose(words, width: int) -> list[int]:
    """Transpose a bit matrix: bit k of result[i] is bit i of words[k].

    Every word must be below 2^width; the result has width entries, each
    below 2^len(words).  Applied to rows it gives the bit-planes, applied to
    planes (with width 2^n) it gives the rows back.

    When the words or the result entries fit 64 bits, each of them takes one
    lane of 8, 16, 32 or 64 bits, an ``array`` item whose typecode has that
    itemsize.  The array's bytes, in the host's order (``sys.byteorder``)
    and read as little-endian, byte-swapped first on a big-endian host, are
    one integer with word k in lane k; so one ``format`` of it holds every
    plane at a stride of one lane, and, the other way, the planes' binary
    texts written at that stride make one ``int(..., 2)`` whose bytes are
    the result's lanes.  That integer never passes through decimal text, so
    ``sys.set_int_max_str_digits`` does not apply: its limit exempts bases
    that are powers of two.  The lanes go in blocks of ``_BLOCK`` words,
    which bounds the packed copies, and each plane is put together from, or
    read off, its bytes, so the time stays linear in the matrix.  A matrix
    with more than 64 words and more than 64 bits per word, which no flow
    builds, takes one text of all the words instead.
    """
    count = len(words)
    if width <= 64:
        return _planes_of_lanes(words, width)
    if count <= 64:
        return _lanes_of_planes(words, width)
    # the last word leads the text, so each column reads off most significant bit first
    text = "".join(format(w, f"0{width}b") for w in reversed(words))
    return [int(text[p::width], 2) for p in range(width - 1, -1, -1)]


# an unsigned array typecode for each lane width in bits, narrowest first
_LANES = {array(code).itemsize * 8: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"
# words per lane-packed block, a multiple of 8 so that blocks meet at byte
# boundaries; a block's text, at most 64 KiB, stays below glibc's default
# mmap threshold (128 KiB): blocks of 256 KiB texts raised the peak RSS
_BLOCK = 1 << 10


def _lane(bits: int) -> tuple[int, str]:
    """The narrowest lane that holds a word of the given bits, and its typecode."""
    return next((lane, code) for lane, code in _LANES.items() if lane >= bits)


def _planes_of_lanes(words, width: int) -> list[int]:
    """``_transpose`` with each word in a lane; each block gives every
    plane its bytes, joined once at the end."""
    lane, code = _lane(width)
    parts: list[list[bytes]] = [[] for _ in range(width)]
    for start in range(0, len(words), _BLOCK):
        block = array(code, words[start:start + _BLOCK])
        if _BIG_ENDIAN:
            block.byteswap()
        size = len(block)
        # word k's bit p sits at text index lane * (size - k) - 1 - p
        text = format(int.from_bytes(block, "little"), f"0{lane * size}b")
        for p, part in enumerate(parts):
            part.append(int(text[lane - 1 - p::lane], 2).to_bytes((size + 7) // 8, "little"))
    return [int.from_bytes(b"".join(part), "little") for part in parts]


def _lanes_of_planes(planes, width: int) -> list[int]:
    """``_transpose`` with each result entry in a lane; each block reads
    its bits of every plane from the plane's bytes."""
    lane, code = _lane(len(planes))
    planes = [plane.to_bytes((width + 7) // 8, "little") for plane in planes]
    rows: list[int] = []
    for start in range(0, width, _BLOCK):
        size = min(_BLOCK, width - start)
        text = bytearray(b"0") * (lane * size)
        for p, plane in enumerate(planes):
            bits = int.from_bytes(plane[start // 8:(start + size + 7) // 8], "little")
            text[lane - 1 - p::lane] = format(bits, f"0{size}b").encode()
        block = array(code, int(text, 2).to_bytes(lane // 8 * size, "little"))
        if _BIG_ENDIAN:
            block.byteswap()
        rows.extend(block)
    return rows


def _input_pattern(i: int, n: int) -> int:
    """Bit-parallel value of input i over all 2^n assignments in index order.

    One period, 2^i zeros under 2^i ones, doubles until it spans the 2^n
    rows: shifts and ORs only, so the time stays linear in 2^n.
    """
    half = 1 << i
    pattern = ((1 << half) - 1) << half
    span = half << 1
    while span < 1 << n:
        pattern |= pattern << span
        span <<= 1
    return pattern


# ---------------------------------------------------------------------------
# Minimal XMG text format: a header with arities, one line per gate, one line
# per output, all operands as integer literals (2*node+phase).  Node ids are
# implicit: 0 is the constant, 1..I the inputs, then gates in file order.


# a gate line by its fanin arity
_GATE_LINES = {2: "xor %d %d\n", 3: "maj %d %d %d\n"}


def write_xmg(net: Xmg, path) -> None:
    gates = net.fanins[1 + net.num_inputs:]
    text = [f".xmg {net.num_inputs} {net.num_outputs} {len(gates)}\n"]
    text += [_GATE_LINES[len(fi)] % fi for fi in gates]
    text += ["out %d\n" % out for out in net.outputs]
    text.append(".end\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(text))


# the written form of a run of gate lines, one regex step a chunk
_GATE_RUN = re.compile(r"(?:maj \d+ \d+ \d+\n|xor \d+ \d+\n)*", re.ASCII)
# chunks of about 64 KiB, ending at a line end: a chunk's list of numbers
# stays small, and its text below glibc's default mmap threshold (see _BLOCK)
_CHUNK = 1 << 16
# a chunk's separators, to make its numbers a JSON array
_COMMAS = str.maketrans(" \n", ",,")


def _read_gate_run(net: Xmg, text: str, start: int, end: int) -> bool:
    """Add the gate lines of text[start:end] to the net a chunk at a time;
    whether every line was added.

    Each chunk is checked whole against the written form, ``maj a b c`` or
    ``xor a b``, single spaces, ASCII digits, a newline.  Its kinds become
    arities, ``maj`` 3 and ``xor`` 2 with a 0 pad, and the chunk becomes
    one JSON array, four numbers a line, which ``json.loads`` converts in
    one step.  The file's literals go straight to ``add_maj`` and
    ``add_xor`` for as long as each call returns the literal of the next
    fresh node, so the file's node ids are the net's.  False at the first
    chunk or call that breaks this: a fold, a strash hit, a complemented
    result, a literal out of range, too long or with a leading zero, any
    other text.  The gates added before it are those the per-line loop adds
    first, and re-adding them there returns the same nodes.
    """
    import json  # this reader's alone, so importing revflow does not load it

    add_maj, add_xor = net.add_maj, net.add_xor
    fresh = len(net.fanins) << 1  # the next fresh node's literal
    while start < end:
        stop = text.rfind("\n", start, min(start + _CHUNK, end)) + 1
        if stop <= start or not _GATE_RUN.fullmatch(text, start, stop):
            return False
        chunk = text[start:stop - 1].replace("maj", "3").replace("xor", "2 0").translate(_COMMAS)
        try:
            numbers = iter(json.loads("[" + chunk + "]"))
            for arity, a, b, c in zip(numbers, numbers, numbers, numbers):
                if (add_maj(a, b, c) if arity == 3 else add_xor(b, c)) != fresh:
                    return False
                fresh += 2
        except ValueError:  # json's errors and the net's range check are ValueErrors
            return False
        start = stop
    return True


def read_xmg(path) -> Xmg:
    """Read a network in the text format above.

    The header, comments and ``revflow gen``'s ``# design=... n=...`` stamp
    are read line by line.  At the first gate line, the run of gate lines
    up to the first ``out`` line is first read by ``_read_gate_run``.  A
    run that step turns down (a comment, blank line, tab or other text out
    of the written form; a gate that folds, repeats or comes out
    complemented; a literal out of range) is read line by line, once; that
    loop is the only code that names a fault.
    """
    name = str(path)
    net = Xmg()
    add_maj, add_xor = net.add_maj, net.add_xor
    header: tuple[int, int, int] | None = None
    # translate file node ids through folding: id -> literal in the new net
    by_id: list[int] = [0]
    ended = False
    tried = False  # whether the gate run went to _read_gate_run
    with open(path, encoding="utf-8") as fh:
        text = _uncomment(fh.read())
    lineno = 0
    start = 0  # where line lineno + 1 starts in text
    while start < len(text):
        offset = start
        start = text.find("\n", offset) + 1 or len(text)
        lineno += 1
        fields = text[offset:start].split()
        if not fields:
            continue
        if ended:
            raise ParseError("content after .end", name, lineno)
        kind = fields[0]
        if kind == ".xmg":
            if header is not None:
                raise ParseError("duplicate header", name, lineno)
            if len(fields) != 4:
                raise ParseError("malformed .xmg header", name, lineno)
            header = tuple(_decimal(f, "malformed .xmg header", name, lineno) for f in fields[1:])
            if header[0] > MAX_NET_WIDTH:
                raise ParseError(f"{header[0]} inputs exceed the network width cap of {MAX_NET_WIDTH}",
                                 name, lineno)
            for _ in range(header[0]):
                by_id.append(net.add_input())
            continue
        if header is None:
            raise ParseError("missing .xmg header", name, lineno)
        if kind == ".end":
            if len(fields) != 1:
                raise ParseError(".end takes no fields", name, lineno)
            ended = True
            continue
        if kind == "maj" or kind == "xor":
            if net.num_outputs:
                raise ParseError("gate after outputs", name, lineno)
            arity = 3 if kind == "maj" else 2
            if len(fields) != 1 + arity:
                raise ParseError(f"{kind} gate needs {arity} operands", name, lineno)
            if not tried:
                tried = True
                end = text.find("\nout", offset) + 1 or len(text)
                if _read_gate_run(net, text, offset, end):
                    # the file's ids are the net's: by_id stays the identity
                    by_id.extend(range(len(by_id) << 1, net.num_nodes << 1, 2))
                    lineno += text.count("\n", offset, end) - 1
                    start = end
                    continue
        elif kind == "out":
            if len(fields) != 2:
                raise ParseError("out line needs one literal", name, lineno)
        else:
            raise ParseError(f"unknown line kind {kind!r}", name, lineno)
        ops = []
        for token in fields[1:]:
            value = _decimal(token, f"bad literal {token!r}", name, lineno)
            if value >> 1 >= len(by_id):
                raise ParseError(f"literal {value} references a later node", name, lineno)
            ops.append(by_id[value >> 1] ^ (value & 1))
        if kind == "out":
            net.add_output(ops[0])
        else:
            by_id.append(add_maj(*ops) if kind == "maj" else add_xor(*ops))
    if header is None:
        raise ParseError("missing .xmg header", name)
    if not ended:
        raise ParseError("missing .end terminator", name)
    num_gates = len(by_id) - 1 - header[0]  # by_id: the constant, the inputs, each gate line
    if num_gates != header[2] or net.num_outputs != header[1]:
        raise ParseError(
            f"header promises {header[2]} gates and {header[1]} outputs, "
            f"found {num_gates} and {net.num_outputs}",
            name,
        )
    return net
