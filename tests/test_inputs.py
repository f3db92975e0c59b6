"""The rules every text input keeps (.pla, .xmg, .real and cost tables): a
'#' starts a comment that runs to the end of its line, lines end only at
"\\n", "\\r\\n" or "\\r", a numeric field is ASCII decimal digits, and a fault
that belongs to no line carries no line number."""

import random

import pytest

from conftest import random_xmg, xmg_truth_table
from revflow.logicnet import (
    EsopForm,
    ParseError,
    TruthTable,
    esop_from_tt,
    read_pla,
    read_xmg,
    write_pla,
    write_xmg,
)
from revflow.revcirc import DEFAULT_COST_MODEL, CostModel, RevCircuit, read_real, write_real

# what a comment may hold: "\x0c" and U+2028 end a line only to str.splitlines
COMMENT_CHARS = "ab 1.e#\t\x0c\u2028"


def xmg_structure(net):
    return net.num_inputs, [net.fanins[node] for node in range(net.num_nodes)], net.outputs


def written_pla(rng, path):
    n, m = rng.randrange(1, 6), rng.randrange(1, 4)
    esop = esop_from_tt(TruthTable(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n))))
    write_pla(esop, path)
    # the first place a cube may go is after .type esop
    return esop, 3, "x" * n + " " + "1" * m, "bad input column character 'x'"


def written_xmg(rng, path):
    net = random_xmg(rng, rng.randrange(1, 5), rng.randrange(1, 15), rng.randrange(1, 3))
    write_xmg(net, path)
    return xmg_structure(net), 1, "out x", "bad literal 'x'"


def written_real(rng, path):
    width = rng.randrange(3, 7)
    gates = []
    for _ in range(rng.randrange(1, 30)):
        lines = rng.sample(range(width), rng.randrange(1, width + 1))
        controls = tuple(sorted(line << 1 | rng.randrange(2) for line in lines[1:]))
        gates.append((lines[0], controls))
    names = rng.sample(["a", "b", "c1", "x_2", "y", "z9", "q"], width)
    circ = RevCircuit.layout(width, gates, names, rng.randrange(1, width + 1), 1, 0)
    write_real(circ, path)
    # the body starts after .begin, the sixth line write_real writes
    return circ, 6, "t1 nowhere", "unknown line 'nowhere'"


def written_cost(rng, path):
    # a non-decreasing schedule for 0..k controls that the default continues
    k = rng.randrange(1, 6)
    cap = DEFAULT_COST_MODEL.t_of_controls(k + 1)
    entries = list(zip(range(k + 1), sorted(rng.randrange(cap + 1) for _ in range(k + 1))))
    rng.shuffle(entries)
    path.write_text("".join(f"{c}: {t}\n" for c, t in entries), encoding="utf-8")
    return CostModel(tuple(entries)), 0, "2 9", "expected 'controls: t-cost'"


FORMATS = {
    "pla": (written_pla, read_pla),
    "xmg": (written_xmg, lambda p: xmg_structure(read_xmg(p))),
    "real": (written_real, read_real),
    "cost": (written_cost, CostModel.from_file),
}


def comment(rng):
    return rng.choice(("", " ", "\t")) + "#" + "".join(
        rng.choice(COMMENT_CHARS) for _ in range(rng.randrange(6)))


def decorate(lines, rng):
    """The lines with trailing comments, comment-only lines and blank lines
    added; returns them and the new position of each given line."""
    out, where = [], []
    for line in lines:
        if rng.random() < 0.3:
            out += [rng.choice(("", "  ", "\t", comment(rng)))
                    for _ in range(rng.randrange(1, 3))]
        if rng.random() < 0.4:
            line += comment(rng)
        where.append(len(out))
        out.append(line)
    return out, where


def test_every_format_reads_through_comments_and_line_breaks(tmp_path):
    """Written files with comments, blank lines and any of the three line
    breaks read back to the same object, and a fault planted among them
    fails at its own line."""
    rng = random.Random(15)
    path, bad = tmp_path / "written", tmp_path / "decorated"
    for fmt, (write, read) in FORMATS.items():
        for _ in range(30):
            want, first, fault, why = write(rng, path)
            lines = path.read_text(encoding="utf-8").split("\n")[:-1]
            newline = rng.choice(("\n", "\r\n", "\r"))
            ending = rng.choice(("", newline))
            text = newline.join(decorate(lines, rng)[0]) + ending
            bad.write_bytes(text.encode("utf-8"))
            assert read(bad) == want, (fmt, text)
            if fmt == "cost":
                assert CostModel.parse(text) == want
            # a fault before the terminator, or anywhere in a cost table
            at = rng.randrange(first, len(lines) + (fmt == "cost"))
            decorated, where = decorate(lines[:at] + [fault] + lines[at:], rng)
            bad.write_bytes((newline.join(decorated) + ending).encode("utf-8"))
            with pytest.raises(ParseError, match=why) as info:
                read(bad)
            assert info.value.line == where[at] + 1, (fmt, decorated)


@pytest.mark.parametrize("entry", ["\u0662: 9", "+2: 9", "1_0: 5", "2: \u0669", "2: +9", "2: 1_0", "-1: 5"])
def test_cost_entries_take_ascii_digits(entry):
    # int() reads each of these as a number; a cost table does not
    text = f"# costs\n3: 15\n{entry}\n"
    with pytest.raises(ParseError) as info:
        CostModel.parse(text, "c.txt")
    assert str(info.value) == f"c.txt:3: bad cost entry {entry!r}"
    assert info.value.line == 3


def test_comments_and_line_breaks_by_example(tmp_path):
    p = tmp_path / "f.pla"
    p.write_text(".i 2\n.o 1\n.type esop\n11 1 # the AND\n.e\n")
    assert read_pla(p) == EsopForm(2, 1, ((0b11, 0b11, 1),))
    # "\x0c" is whitespace inside a line, so the bad cube is line 5
    p.write_text(".i 2\n.o 1\n.type esop\n11 1\x0c\n1x 1\n.e\n")
    with pytest.raises(ParseError, match="bad input column character 'x'") as info:
        read_pla(p)
    assert info.value.line == 5
    p = tmp_path / "f.xmg"
    p.write_text(".xmg 2 1 1\nmaj 0 2 4 # an AND\nout 6\n.end\n")
    assert xmg_truth_table(read_xmg(p)).rows == (0, 0, 0, 1)
    # U+2028 inside a comment does not end the line
    p.write_text(".xmg 2 1 1\nmaj 0 2 4 # an\u2028AND\nout 6\n.end\n", encoding="utf-8")
    assert xmg_truth_table(read_xmg(p)).rows == (0, 0, 0, 1)
    assert CostModel.parse("2: 9 # dearer\u2028Toffolis\r\n3: 20\r") == CostModel(((2, 9), (3, 20)))


WHOLE_FILE_FAULTS = [
    ("f.pla", ".i 2\n.o 1\n.type esop\n11 1\n", "missing .e terminator"),
    ("f.pla", "# nothing\n", "missing .i/.o headers"),
    ("f.xmg", ".xmg 1 1 0\nout 2\n", "missing .end terminator"),
    ("f.xmg", "", "missing .xmg header"),
    ("f.xmg", ".xmg 1 1 1\nout 2\n.end\n", "header promises 1 gates and 1 outputs, found 0 and 1"),
    # both gate lines fold away, and still count as read
    ("f.xmg", ".xmg 1 0 3\nxor 0 2\nxor 2 2\n.end\n", "header promises 3 gates and 0 outputs, found 2 and 0"),
    ("f.real", ".numvars 2\n.variables a b\n.begin\nt1 a\n", "missing .end"),
    ("f.real", ".numvars 2\n.variables a b\n", "missing .end"),
    ("f.real", ".numvars 2\n", "missing .numvars/.variables"),
    ("c.txt", "2: 100\n3: 1\n", "cost must not decrease with more controls"),
    ("c.txt", "2: 9\n2: 9\n", "duplicate cost entry for 2 controls"),
]


def test_whole_file_faults_carry_no_line(tmp_path):
    readers = {".pla": read_pla, ".xmg": read_xmg, ".real": read_real, ".txt": CostModel.from_file}
    for name, text, why in WHOLE_FILE_FAULTS:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            readers[path.suffix](path)
        assert str(info.value) == f"{path}: {why}" and info.value.line is None, name


BARE_DIRECTIVES = [
    ("f.pla", ".i 1\n.o 1\n.type esop\n1 1\n{}\n", ".e", 5),
    ("f.xmg", ".xmg 1 1 0\nout 2\n{}\n", ".end", 3),
    ("f.real", ".numvars 1\n.variables a\n{}\nt1 a\n.end\n", ".begin", 3),
    ("f.real", ".numvars 1\n.variables a\n.begin\nt1 a\n{}\n", ".end", 5),
]


@pytest.mark.parametrize("name,text,directive,line", BARE_DIRECTIVES,
                         ids=[f"{name}:{directive}" for name, _, directive, _ in BARE_DIRECTIVES])
def test_bare_directive_takes_no_fields(tmp_path, name, text, directive, line):
    readers = {".pla": read_pla, ".xmg": read_xmg, ".real": read_real}
    path = tmp_path / name
    read = readers[path.suffix]
    for clean in (directive, directive + " # a comment"):
        path.write_text(text.format(clean))
        read(path)
    path.write_text(text.format(directive + " junk here"))
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"{path}:{line}: {directive} takes no fields"
