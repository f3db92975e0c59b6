"""Tables, ESOP forms and their minimizer, the strashed net, and file I/O."""

import copy
import pickle
import random
from collections import Counter

import pytest

from conftest import (
    ReferenceXmg,
    naive_esop_eval,
    naive_transpose,
    naive_xmg_eval,
    random_xmg,
    reference_esop_from_tt,
    reference_esop_minimize,
    reference_read_pla,
    reference_write_pla,
    reference_write_xmg,
    xmg_kind,
)
from revflow import logicnet
from revflow.arith import Design, DesignSpec, NewtonTrace, design_truth_table
from revflow.embedding import Embedding, Permutation
from revflow.logicnet import (
    EsopForm,
    ParseError,
    TableLimitError,
    TruthTable,
    Xmg,
    _combine_identical,
    _transpose,
    esop_from_tt,
    esop_minimize,
    read_pla,
    read_xmg,
    write_pla,
    write_xmg,
)
from revflow.revcirc import CostModel, CostReport, RevCircuit


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, 1, (0, 1, 0))          # wrong row count
    with pytest.raises(ValueError):
        TruthTable(1, 1, (0, 2))             # row out of range
    tt = TruthTable(2, 2, (0, 1, 2, 3))
    assert tt.columns() == [0b1010, 0b1100]


# each record's fields by keyword, in order, and one field changed
RECORDS = [
    (TruthTable, dict(num_inputs=1, num_outputs=1, rows=(0, 1)), "rows", (1, 0)),
    (EsopForm, dict(num_inputs=2, num_outputs=1, cubes=((1, 1, 1),)), "cubes", ((3, 1, 1),)),
    (DesignSpec, dict(design=Design.INTDIV, bitwidth=4), "bitwidth", 5),
    (NewtonTrace, dict(exponent=1, normalized=2, iterates=(3, 4), output=5), "output", 6),
    (Permutation, dict(width=1, images=(1, 0)), "images", (0, 1)),
    (Embedding, dict(source_inputs=2, source_outputs=1, width=3), "width", 4),
    (RevCircuit, dict(width=2, gates=((0, (2,)), (1, ()), (0, (2,))), line_names=("a", "b"),
                      constants=(None, 0), outputs=(0, None)), "line_names", ("a", "c")),
    (CostModel, dict(overrides=((2, 6),)), "overrides", ((2, 7),)),
    (CostReport, dict(qubits=3, gate_count=2, t_count=14, control_histogram=((2, 2),)), "t_count", 15),
]


@pytest.mark.parametrize("cls, fields, name, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_values(cls, fields, name, other):
    """Every record is built by keyword or position, compares, hashes and
    prints by its field values, refuses assignment and deletion, and comes
    back equal from copy, deepcopy and pickle."""
    record = cls(**fields)
    assert record == cls(*fields.values()) and hash(record) == hash(cls(**fields))
    changed = cls(**{**fields, name: other})
    assert record != changed and changed != record and record != tuple(fields.values())
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, fields[field])
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, field) for field in fields] == list(fields.values())
    for back in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(back) is cls and back == record
        if cls is RevCircuit:
            assert back._mirror == record._mirror == 1
    if cls is CostModel:
        assert CostModel() == CostModel(overrides=()) and CostModel().overrides == ()


# every lane boundary (8, 16, 32 and 64 bits) on either side of the matrix,
# and past 64 on both sides the text path
LANE_WIDTHS = (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)
LANE_COUNTS = (0, 1, 63, 64, 65, 130)


def test_transpose_agrees_with_naive(monkeypatch):
    rng = random.Random(23)
    shapes = [(w, c) for w in range(10) for c in range(71)]
    shapes += [(w, c) for w in LANE_WIDTHS for c in LANE_COUNTS]
    # a block of 8 words splits the lane-packed paths into blocks, the last one short
    for block in (logicnet._BLOCK, 8):
        monkeypatch.setattr(logicnet, "_BLOCK", block)
        for width, count in shapes:
            words = [rng.getrandbits(width) for _ in range(count)]
            planes = _transpose(words, width)
            assert planes == naive_transpose(words, width), (block, width, count)
            back = _transpose(planes, count)
            assert back == naive_transpose(planes, count) == words, (block, width, count)


def test_input_pattern_agrees_with_naive():
    for n in range(1, 13):
        for i in range(n):
            want = sum(1 << x for x in range(1 << n) if x >> i & 1)
            assert logicnet._input_pattern(i, n) == want, (i, n)


def test_table_limit_guard():
    spec = DesignSpec(Design.INTDIV, 5)
    with pytest.raises(TableLimitError):
        design_truth_table(spec, limit=4)
    assert design_truth_table(spec, limit=5).num_inputs == 5


def test_cube_matching():
    # x0 and not x2 holds at x = 0b001 and 0b011 only
    c = (0b101, 0b001, 1)
    assert EsopForm(3, 1, (c,)).to_truth_table().rows == (0, 1, 0, 1, 0, 0, 0, 0)
    # EsopForm checks every cube; a faulty one behind a good one is caught
    for cube, message in [
        ((-1, 0, 1), "negative literal masks"),
        ((1, -1, 1), "negative literal masks"),
        ((0b01, 0b10, 1), "polarity bits outside the literal mask"),
        ((0, 0, 0), "cube must drive at least one output"),
        ((0b1000, 0, 1), "cube 1 uses inputs beyond 3"),
        ((0b1, 0b1, 2), "cube 1 drives outputs beyond 1"),
    ]:
        with pytest.raises(ValueError) as info:
            EsopForm(3, 1, (c, cube))
        assert str(info.value) == message
    # cubes are checked in order: cube 0's bit-length fault comes before cube 1's negative mask
    with pytest.raises(ValueError) as info:
        EsopForm(3, 1, ((0b1000, 0, 1), (-1, 0, 1)))
    assert str(info.value) == "cube 0 uses inputs beyond 3"


def test_pprm_is_positive_polarity_and_exact():
    rng = random.Random(11)
    for n, m in [(1, 1), (3, 2), (5, 3), (6, 1)]:
        tt = TruthTable(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))
        esop = esop_from_tt(tt)
        assert all(polarity == mask for mask, polarity, _ in esop.cubes)
        masks = [mask for mask, _, _ in esop.cubes]
        assert len(set(masks)) == len(masks)   # canonical: one cube per monomial
        assert esop.to_truth_table().rows == tt.rows


def test_pprm_known_forms():
    # AND: single top cube
    esop = esop_from_tt(TruthTable(2, 1, (0, 0, 0, 1)))
    assert [(m, p) for m, p, _ in esop.cubes] == [(0b11, 0b11)]
    # XOR: the two singletons
    esop = esop_from_tt(TruthTable(2, 1, (0, 1, 1, 0)))
    assert sorted(m for m, _, _ in esop.cubes) == [0b01, 0b10]
    # OR = x + y + xy over GF(2)
    esop = esop_from_tt(TruthTable(2, 1, (0, 1, 1, 1)))
    assert sorted(m for m, _, _ in esop.cubes) == [0b01, 0b10, 0b11]


def _random_tables(seed: int):
    """One seeded table per shape: n = 0..13 (n = 0, n past a multiple of 4,
    and n past 8, where write_pla transposes cube masks in 16-bit lanes)
    and m = 0..4."""
    rng = random.Random(seed)
    for n in range(14):
        for m in range(5):
            yield TruthTable(n, m, tuple(rng.getrandbits(m) for _ in range(1 << n)))


def test_pprm_matches_reference():
    # the plane butterfly against the row-word one, cube for cube in order
    for tt in _random_tables(77):
        assert esop_from_tt(tt) == reference_esop_from_tt(tt), (tt.num_inputs, tt.num_outputs)


def test_minimize_merges_distance_one():
    # x0 xor x0x1 == x0 and-not x1
    form = EsopForm(2, 1, (
        (0b01, 0b01, 1),
        (0b11, 0b11, 1),
    ))
    out = esop_minimize(form)
    assert out.cubes == ((0b11, 0b01, 1),)
    assert out.to_truth_table().rows == form.to_truth_table().rows


def test_minimize_opposite_polarities_drop_literal():
    # x0x1 xor x0'x1 == x1
    form = EsopForm(2, 1, (
        (0b11, 0b11, 1),
        (0b11, 0b10, 1),
    ))
    out = esop_minimize(form)
    assert out.cubes == ((0b10, 0b10, 1),)


def test_minimize_cancels_identical_cubes():
    c = (1, 1, 1)
    out = esop_minimize(EsopForm(1, 1, (c, c)))
    assert out.cubes == ()
    assert out.to_truth_table().rows == (0, 0)


def test_combine_identical_keeps_a_list_without_repeats():
    # no literal set repeats and no pair merges: the very same cubes come back
    a, b, c = (1, 1, 1), (3, 1, 2), (2, 0, 3)
    out = esop_minimize(EsopForm(2, 2, (a, b, c)))
    assert len(out.cubes) == 3 and all(x is y for x, y in zip(out.cubes, (a, b, c)))
    # repeats XOR their output masks at the first one's place; a cancelled key drops
    out = _combine_identical([a, b, (1, 1, 3), c, (3, 1, 2)])
    assert out == [(1, 1, 2), c]


def test_producers_build_plain_tuples(tmp_path, monkeypatch):
    """Every cube producer hands EsopForm plain tuples: the Reed-Muller
    expansion, both .pla reader paths, and the minimizer with a combine
    step in mid-run."""
    def plain(form):
        return form.cubes and all(type(c) is tuple for c in form.cubes)

    assert plain(esop_from_tt(TruthTable(2, 2, (0, 1, 3, 2))))
    runs = []
    read_run = logicnet._read_cube_run
    monkeypatch.setattr(logicnet, "_read_cube_run", lambda *args: runs.append(read_run(*args)) or runs[-1])
    p = tmp_path / "f.pla"
    write_pla(EsopForm(2, 1, ((0b11, 0b11, 1), (0b01, 0b00, 1))), p)
    assert plain(read_pla(p))
    p.write_text(".i 2\n.o 1\n.type esop\n11 1\n# a comment line\n-0 1\n.e\n")
    assert plain(read_pla(p))
    assert runs[0] is not None and runs[1] is None  # the column step, then the per-line loop
    # x0x1 and x0x1' merge to x0, which repeats cube 0's literals: combine runs after the merge
    combines = []
    monkeypatch.setattr(logicnet, "_combine_identical", lambda cubes: combines.append(1) or _combine_identical(cubes))
    out = esop_minimize(EsopForm(2, 2, ((0b01, 0b01, 3), (0b11, 0b11, 1), (0b11, 0b01, 1))))
    assert out.cubes == ((0b01, 0b01, 2),) and combines == [1] and plain(out)


def _random_mixed_form(rng: random.Random, max_inputs: int = 5, max_cubes: int = 12) -> EsopForm:
    """Random literals in both phases, with exact copies (which cancel) and
    same-literal cubes on other outputs (which combine) mixed in."""
    n = rng.randrange(1, max_inputs + 1)
    m = rng.randrange(1, 4)
    cubes = []
    for _ in range(rng.randrange(max_cubes + 1)):
        mask = rng.randrange(1 << n)
        cubes.append((mask, rng.randrange(1 << n) & mask, rng.randrange(1, 1 << m)))
    for _ in range(rng.randrange(4) if cubes else 0):
        c = rng.choice(cubes)
        copy = c if rng.randrange(2) else (c[0], c[1], rng.randrange(1, 1 << m))
        cubes.insert(rng.randrange(len(cubes) + 1), copy)
    return EsopForm(n, m, tuple(cubes))


def test_minimize_matches_reference_on_mixed_polarity():
    rng = random.Random(1301)
    repeats = 0
    for _ in range(2500):
        form = _random_mixed_form(rng)
        out = esop_minimize(form)
        assert out == reference_esop_minimize(form), form
        assert out.to_truth_table().rows == form.to_truth_table().rows
        repeats += len({(m, p) for m, p, _ in form.cubes}) < len(form.cubes)
    assert repeats > 1000  # the combine step ran on these at least


def _negative_reed_muller(tt: TruthTable) -> EsopForm:
    """The table's Reed-Muller form with every literal negative: the positive
    form of the table with every input complemented, its rows reversed."""
    form = esop_from_tt(TruthTable(tt.num_inputs, tt.num_outputs, tt.rows[::-1]))
    return EsopForm(form.num_inputs, form.num_outputs, tuple((m, 0, w) for m, _, w in form.cubes))


def test_minimize_matches_reference_on_larger_forms(monkeypatch):
    """Up to 7 inputs and 60 cubes, and the all-negative INTDIV forms at
    n=2..8: one-output forms (one output-mask group), groups of three cubes
    or more, and merged cubes that repeat a literal set in mid-run, where
    the combine step runs after a merge."""
    combines = []
    monkeypatch.setattr(logicnet, "_combine_identical", lambda cubes: combines.append(1) or _combine_identical(cubes))
    rng = random.Random(2901)
    forms = [_random_mixed_form(rng, 7, 60) for _ in range(500)]
    forms += [_negative_reed_muller(design_truth_table(DesignSpec(Design.INTDIV, n))) for n in range(2, 9)]
    one_output = big_groups = mid_run = 0
    for form in forms:
        combines.clear()
        out = esop_minimize(form)
        assert out == reference_esop_minimize(form), form
        assert out.to_truth_table().rows == form.to_truth_table().rows
        one_output += form.num_outputs == 1
        sizes = Counter(w for _, _, w in form.cubes)
        big_groups += max(sizes.values(), default=0) >= 3
        repeats = len({(m, p) for m, p, _ in form.cubes}) < len(form.cubes)
        mid_run += len(combines) > repeats
    assert one_output > 100 and big_groups > 400 and mid_run > 150, (one_output, big_groups, mid_run)
    # the INTDIV forms merge: 50 cubes at n=8 minimize to 42
    assert len(esop_minimize(forms[-1]).cubes) == 42


def test_minimize_preserves_function_never_grows():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 6)
        m = rng.randrange(1, 4)
        tt = TruthTable(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))
        raw = esop_from_tt(tt)
        out = esop_minimize(raw)
        assert len(out.cubes) <= len(raw.cubes)
        assert out.to_truth_table().rows == tt.rows


def test_pla_roundtrip_identity(tmp_path):
    rng = random.Random(5)
    tt = TruthTable(4, 3, tuple(rng.randrange(8) for _ in range(16)))
    # under .i 0 a cube line is its output pattern alone
    constant = esop_from_tt(TruthTable(0, 2, (3,)))
    assert constant.cubes == ((0, 0, 3),)
    path = tmp_path / "f.pla"
    for esop in (esop_minimize(esop_from_tt(tt)), constant, EsopForm(0, 2, ()), EsopForm(0, 0, ())):
        write_pla(esop, path)
        assert read_pla(path) == reference_read_pla(path) == esop


def test_pla_writer_matches_reference(tmp_path):
    """write_pla against the per-cube writer, byte for byte: Reed-Muller
    forms, empty cube lists, minimized forms and random mixed-polarity cube
    lists, up to 13 inputs and past a lane-packed block of cubes."""
    rng = random.Random(31)
    forms = [esop_from_tt(tt) for tt in _random_tables(78)]
    forms += [EsopForm(n, m, ()) for n in range(14) for m in range(5)]
    for n in range(1, 8):
        m = rng.randrange(1, 5)
        tt = TruthTable(n, m, tuple(rng.getrandbits(m) for _ in range(1 << n)))
        forms.append(esop_minimize(esop_from_tt(tt)))
    for n in range(14):
        m = rng.randrange(1, 5)
        cubes = []
        for _ in range(rng.choice((1, 7, 64, 65, 1500))):
            mask = rng.getrandbits(n)
            cubes.append((mask, rng.getrandbits(n) & mask, rng.randrange(1, 1 << m)))
        forms.append(EsopForm(n, m, tuple(cubes)))
    assert any(p != m for form in forms for m, p, _ in form.cubes)
    got, want = tmp_path / "got.pla", tmp_path / "want.pla"
    for form in forms:
        write_pla(form, got)
        reference_write_pla(form, want)
        assert got.read_bytes() == want.read_bytes(), (form.num_inputs, len(form.cubes))


def test_pla_parse_errors(tmp_path):
    head = ".i 2\n.o 1\n.type esop\n"
    cases = [
        (".i 2\n.o 1\n.type esop\n11 1\n", "missing .e terminator", None),
        (".i 2\n.o 1\n11 1\n.e\n", "cube before .type esop declaration", 3),
        (head + "12 1\n.e\n", "bad input column character '2'", 4),
        (head + "11 11\n.e\n", "output pattern has 2 columns, expected 1", 4),
        (head + "11 1\n-0 0\n.e\n", "cube drives no outputs", 5),
    ]
    # a bad column names its first bad character, inputs before outputs;
    # "\u00b2" and "\u0661" are digits to str.isdigit, and int(.., 2) reads "\u0661" as 1
    for bad in ("x", "2", "\u00b2", "\u0661"):
        cases += [
            (head + f"1{bad} 1\n.e\n", f"bad input column character {bad!r}", 4),
            (head + f"{bad}- {bad}\n.e\n", f"bad input column character {bad!r}", 4),
            (head + f"-{bad} 0\n.e\n", f"bad input column character {bad!r}", 4),
            (head + f"10 {bad}\n.e\n", f"bad output column character {bad!r}", 4),
        ]
    cases += [
        (head + "x2 1\n.e\n", "bad input column character 'x'", 4),
        (head + "2x 1\n.e\n", "bad input column character '2'", 4),
        (".i 2\n.o 3\n.type esop\n01 0\u00b2x\n.e\n", "bad output column character '\u00b2'", 4),
    ]
    p = tmp_path / "bad.pla"
    for text, why, line in cases:
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_pla(p)
        assert str(info.value).endswith(": " + why) and info.value.line == line, text
    # "²" passes str.isdigit but not int()
    p.write_text(".i \u00b2\n.o 1\n.type esop\n.e\n", encoding="utf-8")
    with pytest.raises(ParseError, match="malformed .i header") as info:
        read_pla(p)
    assert info.value.line == 1
    # a header after the first cube would reshape the cubes already read
    for text in (".i 2\n.o 1\n.type esop\n11 1\n.i 3\n111 1\n.e\n",
                 ".i 2\n.o 1\n.type esop\n11 1\n.o 2\n11 11\n.e\n"):
        p.write_text(text)
        with pytest.raises(ParseError, match="header after the first cube") as info:
            read_pla(p)
        assert info.value.line == 5
    # a repeated header before the first cube would silently replace the first
    for text, line in ((".i 2\n.i 3\n.o 1\n.type esop\n111 1\n.e\n", 2),
                       (".i 2\n.o 1\n.o 2\n.type esop\n11 11\n.e\n", 3)):
        p.write_text(text)
        with pytest.raises(ParseError, match="header given twice") as info:
            read_pla(p)
        assert info.value.line == line


def _mutate_pla(rng: random.Random, text: str) -> str:
    """One to three random edits: a character replaced, deleted or inserted,
    a line dropped or repeated, or a cube line given a comment, a blank line
    before it or a tab for its space, which keeps it a cube line but not in
    the written form.  "\r" breaks a line; "\x0c" and U+2028 do not."""
    pool = "01-01-01 x2\u00b2\u0661_b+\t#.e\r\x0c\u2028"
    for _ in range(rng.randrange(1, 4)):
        lines = text.split("\n")
        k = rng.randrange(len(lines))
        line = lines[k]
        op = rng.randrange(6)
        i = rng.randrange(len(line) + 1)
        if op == 0 and line:
            i = min(i, len(line) - 1)
            line = line[:i] + rng.choice(pool) + line[i + 1:]
        elif op == 1 and line:
            line = line[:i] + line[i + 1:]
        elif op == 2:
            line = line[:i] + rng.choice(pool) + line[i:]
        elif op == 3:
            line = None
        elif op == 4:
            lines.insert(k, line)
        elif line and line[0] in "01- ":
            line = rng.choice((line + " # a cube", "\n" + line, line.replace(" ", "\t")))
        lines[k:k + 1] = [] if line is None else [line]
        text = "\n".join(lines)
    return text


def _random_form(rng: random.Random, n: int, m: int, count: int) -> EsopForm:
    cubes = []
    for _ in range(count):
        mask = rng.getrandbits(n)
        cubes.append((mask, rng.getrandbits(n) & mask, rng.randrange(1, 1 << m)))
    return EsopForm(n, m, tuple(cubes))


def test_pla_reader_differential(tmp_path, monkeypatch):
    """read_pla against a per-character reader on seeded mutated files:
    the same form, or the same message at the same line.

    The forms reach every lane width of ``_transpose`` in the column step:
    up to 64 cubes, each cube takes a lane; past 64, each of up to 13
    input planes does; past 64 of both, the text branch runs.  A rejected
    run is handed to the per-line loop once, not retried at its lines.
    """
    rng = random.Random(41)
    p = tmp_path / "m.pla"
    outcomes = set()
    forms = [EsopForm(0, 2, ((0, 0, 1), (0, 0, 3)))]
    for _ in range(100):
        n, m = rng.randrange(1, 6), rng.randrange(1, 4)
        tt = TruthTable(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))
        forms.append(esop_from_tt(tt))
    for count in (33, 64, 65, 300, 1500):
        forms.append(_random_form(rng, rng.randrange(6, 14), rng.randrange(1, 4), count))
    forms.append(_random_form(rng, 70, 2, 80))
    for form in forms:
        write_pla(form, p)
        assert read_pla(p) == form
        clean = p.read_text(encoding="utf-8")
        for _ in range(20):
            p.write_text(_mutate_pla(rng, clean), encoding="utf-8")
            try:
                want = reference_read_pla(p)
            except ParseError as exc:
                with pytest.raises(ParseError) as info:
                    read_pla(p)
                assert (str(info.value), info.value.line) == (str(exc), exc.line)
                outcomes.add(str(exc).split(": ", 1)[1].split(" '")[0])
            else:
                assert read_pla(p) == want
                outcomes.add("read" if want == form else "read another form")
    assert {"read", "read another form", "bad input column character",
            "bad output column character"} <= outcomes
    # a tab in the first cube line turns the whole run down, once
    calls = []
    read_run = logicnet._read_cube_run
    monkeypatch.setattr(logicnet, "_read_cube_run", lambda *args: calls.append(args) or read_run(*args))
    head, typed, run = clean.partition(".type esop\n")
    p.write_text(head + typed + run.replace(" ", "\t", 1), encoding="utf-8")
    assert read_pla(p) == forms[-1] and len(calls) == 1


def test_pla_error_carries_location(tmp_path):
    p = tmp_path / "bad.pla"
    p.write_text(".i 2\n.o 1\n.type esop\n1x 1\n.e\n")
    with pytest.raises(ParseError) as info:
        read_pla(p)
    assert info.value.line == 4


def test_xmg_folding_rules():
    net = Xmg()
    a = net.add_input()
    b = net.add_input()
    assert net.add_xor(a, a) == 0
    assert net.add_xor(a, 0) == a
    assert net.add_xor(a, 1) == (a ^ 1)
    assert net.add_maj(a, a, b) == a
    assert net.add_maj(a, a ^ 1, b) == b
    assert net.add_and(a, 0) == 0
    assert net.add_or(a, 1) == 1
    # structural hashing: same structure, same literal
    assert net.add_xor(a, b) == net.add_xor(b, a)
    assert net.add_maj(a, b, 0) == net.add_and(b, a)


def test_xmg_self_dual_normalization():
    net = Xmg()
    a, b, c = net.add_input(), net.add_input(), net.add_input()
    lit = net.add_maj(a ^ 1, b ^ 1, c)
    # two complements flip into one complemented output edge
    assert lit & 1
    fanins = net.fanins[lit >> 1]
    assert sum(e & 1 for e in fanins) <= 1


def test_xmg_kernels_match_reference():
    """add_xor/add_maj/add_and/add_or agree with the plain builder call for
    call: same literal or same ValueError message, same kinds and fanins."""

    def outcome(builder, op, args):
        try:
            return getattr(builder, "add_" + op)(*args)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(41)
    errors = 0
    for _ in range(300):
        net, ref = Xmg(), ReferenceXmg()
        lits = [0, 1]
        for _ in range(rng.randrange(1, 5)):
            lit = net.add_input()
            assert ref.add_input() == lit
            lits.append(lit)
        for _ in range(rng.randrange(1, 60)):
            op = rng.choice(("xor", "maj", "and", "or"))
            args = []
            for _ in range(3 if op == "maj" else 2):
                roll = rng.random()
                if args and roll < 0.15:
                    args.append(rng.choice(args))            # equal operands
                elif args and roll < 0.3:
                    args.append(rng.choice(args) ^ 1)        # complementary operands
                elif roll < 0.38:
                    args.append(rng.randrange(2))            # a constant
                elif roll < 0.41:
                    args.append(2 * net.num_nodes + rng.randrange(4))  # unknown node
                elif roll < 0.43:
                    args.append(-rng.randrange(1, 4))        # negative
                else:
                    args.append(rng.choice(lits) ^ rng.randrange(2))
            got = outcome(net, op, args)
            assert got == outcome(ref, op, args), (op, args)
            if isinstance(got, int):
                lits.append(got)
            else:
                assert got.endswith("references an unknown node")
                errors += 1
        assert net.num_nodes == len(ref.kinds)
        assert [xmg_kind(net, v) for v in range(net.num_nodes)] == ref.kinds
        assert [net.fanins[v] for v in range(net.num_nodes)] == ref.fanins
    assert errors > 100


def test_xmg_eval_agrees_with_naive():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randrange(1, 6)
        net = random_xmg(rng, n, rng.randrange(1, 20), rng.randrange(1, 4))
        tt = net.to_truth_table()
        for x in range(1 << n):
            assert tt.rows[x] == naive_xmg_eval(net, x)


def test_esop_table_agrees_with_naive():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randrange(0, 7)
        m = rng.randrange(1, 4)
        cubes = []
        for _ in range(rng.randrange(0, 12)):
            mask = rng.randrange(1 << n)
            cubes.append((mask, rng.randrange(1 << n) & mask, rng.randrange(1, 1 << m)))
        esop = EsopForm(n, m, tuple(cubes))
        tt = esop.to_truth_table()
        assert tt.rows == tuple(naive_esop_eval(esop, x) for x in range(1 << n))


def test_xmg_file_roundtrip_functional(tmp_path):
    rng = random.Random(9)
    for k in range(10):
        n = rng.randrange(1, 5)
        net = random_xmg(rng, n, rng.randrange(1, 15), rng.randrange(1, 3))
        path = tmp_path / f"net{k}.xmg"
        write_xmg(net, path)
        back = read_xmg(path)
        assert back.num_inputs == net.num_inputs
        assert back.num_outputs == net.num_outputs
        assert back.to_truth_table() == net.to_truth_table()


def test_xmg_writer_matches_reference(tmp_path):
    # write_xmg against the per-node writer, byte for byte, on seeded nets
    rng = random.Random(61)
    got, want = tmp_path / "got.xmg", tmp_path / "want.xmg"
    for _ in range(40):
        net = random_xmg(rng, rng.randrange(0, 8), rng.randrange(0, 60), rng.randrange(0, 5))
        write_xmg(net, got)
        reference_write_xmg(net, want)
        assert got.read_bytes() == want.read_bytes()


def test_xmg_read_rejects_forward_references(tmp_path):
    p = tmp_path / "bad.xmg"
    p.write_text(".xmg 1 1 1\nxor 2 6\nout 4\n.end\n")
    with pytest.raises(ParseError):
        read_xmg(p)


def test_xmg_read_rejects_non_ascii_digits(tmp_path):
    # "²" passes str.isdigit but not int(); each file fails at its own line
    p = tmp_path / "bad.xmg"
    for text, line, why in ((".xmg \u00b2 1 0\nout 0\n.end\n", 1, "malformed .xmg header"),
                            (".xmg 1 1 0\nout \u00b2\n.end\n", 2, "bad literal"),
                            (".xmg 1 1 1\nmaj 2 \u00b2 0\nout 4\n.end\n", 2, "bad literal")):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=why) as info:
            read_xmg(p)
        assert info.value.line == line


def _mutate_xmg(rng: random.Random, text: str) -> str:
    """One edit: a gate line given a comment, a blank line before it, a tab
    or a double space, or a literal given a leading zero or made one of a
    later node, or dropped or repeated; CRLF line breaks; an out line moved before a gate; a header
    count off by one; .end dropped; or a line after .end.  The first four
    keep the file valid but out of the written form."""
    lines = text.split("\n")[:-1]
    gates = [k for k, line in enumerate(lines) if line[:4] in ("maj ", "xor ")]
    k = rng.choice(gates)
    fields = lines[k].split(" ")
    i = rng.randrange(1, len(fields))
    op = rng.randrange(12)
    if op == 0:
        lines[k] += " # a gate"
    elif op == 1:
        lines.insert(k, "")
    elif op == 2:
        lines[k] = lines[k].replace(" ", "\t", 1)
    elif op == 3:
        lines[k] = lines[k].replace(" ", "  ", 1)
    elif op == 4:
        fields[i] = "0" + fields[i]
        lines[k] = " ".join(fields)
    elif op == 5:
        return "\r\n".join(lines) + "\r\n"
    elif op == 6:
        # the gate's own node, or one after it; the stamp line, if any, comes first
        node = k - gates[0] + 1 + int(lines[gates[0] - 1].split()[1])
        fields[i] = str(2 * (node + rng.randrange(3)) + rng.randrange(2))
        lines[k] = " ".join(fields)
    elif op == 7:
        out = next(j for j, line in enumerate(lines) if line.startswith("out "))
        lines.insert(k, lines.pop(out))
    elif op == 8:
        head = gates[0] - 1
        counts = lines[head].split()
        j = rng.randrange(1, 4)
        counts[j] = str(int(counts[j]) + rng.choice((-1, 1)))
        lines[head] = " ".join(counts)
    elif op == 9:
        lines.pop()
    elif op == 10:
        lines.append(rng.choice(("out 2", "xor 2 4")))
    else:
        fields[i:i + 1] = rng.choice(([], [fields[i]] * 2))
        lines[k] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _raw_xmg(rng: random.Random, num_inputs: int, num_gates: int) -> str:
    """A valid .xmg whose gate lines are random literals of earlier nodes,
    not in the written form: gates that fold, repeat (strash hits) or come
    out complemented, and XOR operands in any order and phase."""
    lines = [f".xmg {num_inputs} 1 {num_gates}"]
    for g in range(num_gates):
        bound = 2 * (1 + num_inputs + g)
        if g and rng.random() < 0.1:
            lines.append(lines[-1])
        elif rng.random() < 0.5:
            lines.append("maj %d %d %d" % tuple(rng.randrange(bound) for _ in range(3)))
        else:
            lines.append("xor %d %d" % tuple(rng.randrange(bound) for _ in range(2)))
    lines.append(f"out {rng.randrange(2 * (1 + num_inputs + num_gates))}")
    return "\n".join(lines) + "\n.end\n"


def test_xmg_reader_differential(tmp_path, monkeypatch):
    """read_xmg against its per-line loop alone (``_read_gate_run`` patched
    to turn every run down) on written, raw and mutated files: the same
    net, or the same message at the same line.  A clean run takes the run
    step once; a run the step turns down goes to the loop once."""
    p = tmp_path / "m.xmg"

    def outcome():
        try:
            net = read_xmg(p)
        except ParseError as exc:
            return str(exc), exc.line
        return net.fanins, net.outputs, net.num_inputs

    def by_lines():
        with monkeypatch.context() as m:
            m.setattr(logicnet, "_read_gate_run", lambda *args: False)
            return outcome()

    runs = []
    read_run = logicnet._read_gate_run
    monkeypatch.setattr(logicnet, "_read_gate_run",
                        lambda *args: runs.append(read_run(*args)) or runs[-1])
    rng = random.Random(23)
    faults, paths = set(), set()
    for k in range(120):
        net = Xmg()
        while net.num_nodes == 1 + net.num_inputs:  # a net with gates
            net = random_xmg(rng, rng.randrange(1, 8), rng.randrange(1, 80), rng.randrange(1, 4))
        write_xmg(net, p)
        clean = p.read_text(encoding="utf-8")
        if k % 2:
            clean = f"# design=intdiv n={k}\n" + clean
            p.write_text(clean, encoding="utf-8")
        runs.clear()
        got = outcome()
        assert got == by_lines() and got[0] == net.fanins and runs == [True]
        for _ in range(10):
            p.write_text(_mutate_xmg(rng, clean), encoding="utf-8")
            runs.clear()
            got = outcome()
            assert got == by_lines() and len(runs) <= 1
            paths.update(runs)
            faults.add(got[0].split(": ", 1)[1].split(" ")[0] if isinstance(got[0], str) else "read")
    assert paths == {True, False}
    assert {"read", "literal", "gate", "maj", "xor", "header", "missing", "content"} <= faults
    for _ in range(60):
        p.write_text(_raw_xmg(rng, rng.randrange(1, 6), rng.randrange(1, 60)), encoding="utf-8")
        runs.clear()
        assert outcome() == by_lines() and len(runs) == 1
    # folds, a strash hit and a complemented majority, each after a clean line
    for gate in ("maj 2 2 4", "xor 4 4", "maj 2 4 6\nmaj 2 4 6", "maj 3 5 6", "xor 4 2", "xor 3 4"):
        count = 2 + gate.count("\n")
        p.write_text(f".xmg 2 1 {count}\nmaj 0 2 4\n{gate}\nout 6\n.end\n", encoding="utf-8")
        runs.clear()
        got = outcome()
        assert got == by_lines() and len(got) == 3, gate
        assert runs == [gate == "xor 4 2"], gate


def test_xmg_counts():
    net = Xmg()
    a, b, c = (net.add_input() for _ in range(3))
    net.add_output(net.add_maj(a, b, c))
    net.add_output(net.add_xor(a, b))
    kinds = [xmg_kind(net, node) for node in range(1 + net.num_inputs, net.num_nodes)]
    assert kinds == ["maj", "xor"]
