"""End-to-end CLI behavior: gen, synth, verify, stats, sweep, and exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import DESIGN_FLOW_IDS, DESIGN_FLOWS, FLOWS
from revflow import logicnet
from revflow.arith import Design, DesignSpec, design_truth_table
from revflow.cli import _METHODS, CliError, flow_source, main, run_flow
from revflow.logicnet import MAX_NET_WIDTH, ParseError, TruthTable, esop_from_tt, read_pla, read_xmg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


@pytest.mark.parametrize("fmt,reader", [("xmg", read_xmg), ("pla", read_pla)])
def test_gen_formats_parse_back(tmp_path, capsys, fmt, reader):
    # gen writes the format its -o suffix names
    out = tmp_path / f"d.{fmt}"
    code, _, _ = run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(out))
    assert code == 0
    assert out.read_text().startswith("# design=intdiv n=4")
    obj = reader(out)
    assert obj.num_inputs == 4


def test_gen_writes_only_xmg_and_pla(tmp_path, capsys):
    """gen takes its format from -o's suffix alone: any other suffix exits 2
    before the design is built, and leaves no file."""
    for name in ("d.txt", "d.PLA", "d.real", "d"):
        out = tmp_path / name
        code, rec, err = run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(out))
        assert code == 2 and rec is None and f"gen writes .xmg or .pla, not {name!r}" in err, name
        assert not out.exists(), name
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--design", "intdiv", "-n", "4", "--format", "pla", "-o", str(tmp_path / "d.pla")])
    assert exc.value.code == 2 and not (tmp_path / "d.pla").exists()
    # NEWTON n=128 is 4.4M nodes: the timeout fails the test if gen builds them
    out = tmp_path / "x.txt"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "revflow", "gen", "--design", "newton", "-n", "128",
                           "-o", str(out)], capture_output=True, text=True, timeout=5)
    assert proc.returncode == 2 and "not 'x.txt'" in proc.stderr
    assert time.perf_counter() - start < 5 and not out.exists()


@pytest.mark.parametrize("design,flow", DESIGN_FLOWS, ids=DESIGN_FLOW_IDS)
def test_gen_synth_verify_pipeline(tmp_path, capsys, design, flow):
    method, _, switches = FLOWS[flow]
    src = tmp_path / f"d{_METHODS[method]}"
    real = tmp_path / "d.real"
    assert run(capsys, "gen", "--design", design.value, "-n", "4", "-o", str(src))[0] == 0
    code, rec, _ = run(capsys, "synth", str(src), "--method", method, *switches, "-o", str(real))
    assert code == 0
    assert rec["design"] == design.value and rec["n"] == 4 and rec["method"] == method
    assert rec["qubits"] >= 7 and rec["gates"] > 0 and rec["runtime_s"] >= 0
    code, rec, _ = run(capsys, "verify", str(real), "--design", design.value, "-n", "4")
    assert code == 0
    assert rec["verified"] is True and rec["counterexample"] is None


def test_verify_catches_mutation(tmp_path, capsys):
    src, real = tmp_path / "d.pla", tmp_path / "d.real"
    run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src))
    run(capsys, "synth", str(src), "--method", "esop", "-o", str(real))
    lines = real.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("t"))
    del lines[k]
    real.write_text("\n".join(lines) + "\n")
    code, rec, _ = run(capsys, "verify", str(real), "--design", "intdiv", "-n", "4")
    assert code == 1
    assert rec["verified"] is False
    cx = rec["counterexample"]
    assert cx["got"] != cx["want"] and 0 <= cx["x"] < 16


def test_verify_shape_mismatch_is_operational(tmp_path, capsys):
    src, real = tmp_path / "d.pla", tmp_path / "d.real"
    run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src))
    run(capsys, "synth", str(src), "--method", "esop", "-o", str(real))
    code, _, err = run(capsys, "verify", str(real), "--design", "intdiv", "-n", "5")
    assert code == 2 and "inputs" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "synth", str(tmp_path / "nope.pla"),
                       "--method", "esop", "-o", str(tmp_path / "x.real"))
    assert code == 2 and err


def test_verify_checks_its_arguments_before_the_file(capsys, tmp_path):
    # the table is built first, so a bad width or size is reported, not the path
    missing = str(tmp_path / "missing.real")
    code, _, err = run(capsys, "verify", missing, "--design", "intdiv", "-n", "25")
    assert code == 2 and "exceeds the truth-table limit" in err
    code, _, err = run(capsys, "verify", missing, "--design", "newton", "-n", "1")
    assert code == 2 and "bitwidth must be at least 2" in err


def test_bad_width(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--design", "newton", "-n", "1",
                       "-o", str(tmp_path / "x.xmg"))
    assert code == 2 and err


def test_method_input_mismatch(tmp_path, capsys):
    src = tmp_path / "d.xmg"
    run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src))
    code, _, err = run(capsys, "synth", str(src), "--method", "esop",
                       "-o", str(tmp_path / "x.real"))
    assert code == 2 and ".pla" in err
    src2 = tmp_path / "d.pla"
    run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src2))
    code, _, err = run(capsys, "synth", str(src2), "--method", "hier",
                       "-o", str(tmp_path / "y.real"))
    assert code == 2 and ".xmg" in err


def test_stats_file_mode(tmp_path, capsys):
    src, real = tmp_path / "d.pla", tmp_path / "d.real"
    run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src))
    _, rec, _ = run(capsys, "synth", str(src), "--method", "esop", "-o", str(real))
    _, stats, _ = run(capsys, "stats", str(real))
    assert stats["qubits"] == rec["qubits"]
    assert stats["gates"] == rec["gates"]
    assert stats["t_count"] == rec["t_count"]
    assert stats["control_histogram"] == rec["control_histogram"]


def test_stats_cost_model_override(tmp_path, capsys):
    src, real = tmp_path / "d.pla", tmp_path / "d.real"
    run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src))
    run(capsys, "synth", str(src), "--method", "esop", "-o", str(real))
    model = tmp_path / "costs.txt"
    model.write_text("# pricier doubly-controlled gates\n2: 9\n")
    _, base, _ = run(capsys, "stats", str(real))
    _, bump, _ = run(capsys, "stats", str(real), "--cost-model", str(model))
    assert bump["qubits"] == base["qubits"]
    assert bump["t_count"] == base["t_count"] + 2 * base["control_histogram"]["2"]


def test_stats_file_mode_rejects_sweep_options(tmp_path, capsys):
    # a sweep's range, design and flow switches would do nothing to a circuit file
    real = tmp_path / "c.real"
    real.write_text(".numvars 2\n.variables a b\n.begin\nt2 a b\n.end\n")
    for options in (["--sweep", "4..5"], ["--design", "newton"], ["--method", "hier"],
                    ["--embedding", "bennett"], ["--cleanup", "bennett"], ["--inplace-xor"]):
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(real), *options])
        assert exc.value.code == 2, options
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--sweep", "4..5", "--design", "intdiv", "--method", "esop"])
    assert exc.value.code == 2
    assert run(capsys, "stats", str(real))[0] == 0


def test_run_flow_rejects_an_unknown_embedding():
    form = flow_source("functional", DesignSpec(Design.INTDIV, 4))
    with pytest.raises(CliError, match="unknown embedding 'optimal', expected 'optimum' or 'bennett'"):
        run_flow("functional", form, embedding="optimal")
    # the two it names give 7 and 8 lines
    assert run_flow("functional", form, embedding="optimum").width == 7
    assert run_flow("functional", form, embedding="bennett").width == 8


def test_run_flow_takes_what_synth_reads():
    """hier compiles an Xmg and the table flows an EsopForm, the designs of
    synth's .xmg and .pla files; anything else raises CliError naming both."""
    spec = DesignSpec(Design.INTDIV, 4)
    table = design_truth_table(spec)
    for method, source, want in (("esop", table, r"EsopForm \(\.pla\), not TruthTable"),
                                 ("functional", table, r"EsopForm \(\.pla\), not TruthTable"),
                                 ("functional", flow_source("hier", spec), r"EsopForm \(\.pla\), not Xmg"),
                                 ("hier", flow_source("esop", spec), r"Xmg \(\.xmg\), not EsopForm")):
        with pytest.raises(CliError, match=f"^method {method} takes an {want}$"):
            run_flow(method, source)
    with pytest.raises(CliError, match="unknown method 'tbs'"):
        run_flow("tbs", flow_source("esop", spec))


def test_stats_sweep(capsys):
    code = main(["sweep", "4..6", "--design", "intdiv", "--method", "esop"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    assert [r["n"] for r in rows] == [4, 5, 6]
    assert all(r["qubits"] == 2 * r["n"] for r in rows)


# every method with each of its flow switches, as synth and sweep take them
FLOW_SWITCHES = [(method, switches) for method, _, switches in FLOWS.values()]


@pytest.mark.parametrize("method,switches", FLOW_SWITCHES,
                         ids=[" ".join([m, *s]) for m, s in FLOW_SWITCHES])
def test_sweep_matches_synth(tmp_path, capsys, method, switches):
    code = main(["sweep", "4..6", "--design", "intdiv", "--method", method, *switches])
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert code == 0 and [r["n"] for r in rows] == [4, 5, 6]
    for row in rows:
        src = tmp_path / f"d{row['n']}{_METHODS[method]}"
        run(capsys, "gen", "--design", "intdiv", "-n", str(row["n"]), "-o", str(src))
        code, rec, _ = run(capsys, "synth", str(src), "--method", method, *switches,
                           "-o", str(tmp_path / "d.real"))
        assert code == 0
        for key in ("qubits", "gates", "t_count", "control_histogram"):
            assert rec[key] == row[key], (row["n"], key)


def test_no_minimize_switch_is_gone(tmp_path, capsys):
    # minimization is the only esop configuration
    for argv in (["synth", str(tmp_path / "d.pla"), "-o", str(tmp_path / "d.real")],
                 ["sweep", "4..5", "--design", "intdiv"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--method", "esop", "--no-minimize"])
        assert exc.value.code == 2
    with pytest.raises(TypeError):
        run_flow("esop", esop_from_tt(TruthTable(1, 1, (0, 1))), minimize=False)


def test_eager_cleanup_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", str(tmp_path / "d.xmg"), "--method", "hier",
              "--cleanup", "eager", "-o", str(tmp_path / "d.real")])
    assert exc.value.code == 2


@pytest.mark.parametrize("embedding", ["optimum", "bennett"])
def test_functional_width_limit(tmp_path, capsys, embedding):
    # INTDIV n=11 embeds on 21 (optimum) or 22 (bennett) lines, past the
    # default limit of 20, so synth must refuse before building 2^r images
    src = tmp_path / "d.pla"
    run(capsys, "gen", "--design", "intdiv", "-n", "11", "-o", str(src))
    start = time.perf_counter()
    code, _, err = run(capsys, "synth", str(src), "--method", "functional",
                       "--embedding", embedding, "-o", str(tmp_path / "d.real"))
    assert code == 2 and "limit" in err
    assert time.perf_counter() - start < 5


def test_oversized_pla_header_exits_2(tmp_path, capsys):
    # a cube-less form past the limit: 2^n must never be built, nor n lines laid out
    src = tmp_path / "d.pla"
    for header in (".i 99999999999999999999\n.o 1", ".i 1000000000000000000\n.o 1",
                   ".i 2\n.o 99999999999999999999", ".i 2\n.o 1000000000000000000"):
        src.write_text(f"{header}\n.type esop\n.e\n", encoding="utf-8")
        for method in ("esop", "functional"):
            start = time.perf_counter()
            code, out, err = run(capsys, "synth", str(src), "--method", method,
                                 "-o", str(tmp_path / "d.real"))
            assert code == 2 and out is None and "exceeds the truth-table limit" in err, (header, method)
            assert time.perf_counter() - start < 5


def test_network_width_cap_exits_2(tmp_path):
    # without the cap these would add 10^20 inputs, or build a 100000-bit
    # divider, without end: the timeout fails the test instead of hanging it
    src = tmp_path / "d.xmg"
    src.write_text(".xmg 99999999999999999999 0 0\n.end\n", encoding="utf-8")
    for argv in (["synth", "--method", "hier", str(src), "-o", str(tmp_path / "d.real")],
                 ["gen", "--design", "intdiv", "-n", "100000", "-o", str(tmp_path / "x.xmg")]):
        proc = subprocess.run([sys.executable, "-m", "revflow", *argv],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2 and f"network width cap of {MAX_NET_WIDTH}" in proc.stderr, argv
    assert not (tmp_path / "d.real").exists() and not (tmp_path / "x.xmg").exists()


def test_cost_model_of_a_large_count_exits_at_once(tmp_path):
    # a check of every count up to the entry would not finish: the timeout
    # fails the test instead of hanging it
    real = tmp_path / "c.real"
    real.write_text(".numvars 2\n.variables a b\n.begin\nt2 a b\n.end\n", encoding="utf-8")
    model = tmp_path / "costs.txt"
    for entry, code in ((f"{10**12}: {8 * (10**12 - 2) + 7}", 0), (f"{10**4000}: 1", 2)):
        model.write_text(entry + "\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "revflow", "stats", str(real), "--cost-model", str(model)],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == code, entry[:20]
    assert f"{model}: cost must not decrease with more controls" in proc.stderr


def test_cost_model_of_many_entries_exits_at_once(tmp_path):
    # 100,000 entries of the default schedule: a scan of the entries for each
    # count looked up would take minutes, so the timeout fails the test instead
    real = tmp_path / "c.real"
    real.write_text(".numvars 3\n.variables a b c\n.begin\nt3 a b c\n.end\n", encoding="utf-8")
    model = tmp_path / "costs.txt"
    entries = "".join(f"{c}: {8 * c - 9 if c > 2 else 7 * (c == 2)}\n" for c in range(100_000))
    for tail, code, reply in (("", 0, '"t_count": 7'),
                              ("5: 31\n", 2, "duplicate cost entry for 5 controls"),
                              ("100000: 1\n", 2, "cost must not decrease with more controls")):
        model.write_text(entries + tail, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "revflow", "stats", str(real), "--cost-model", str(model)],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == code and reply in proc.stdout + proc.stderr, tail


def test_width_cap_bounds_every_design_command(tmp_path, capsys):
    circuit = str(tmp_path / "d.real")
    big = str(MAX_NET_WIDTH + 1)
    for argv in (("verify", circuit, "--design", "intdiv", "-n", big),
                 ("gen", "--design", "newton", "-n", big, "-o", str(tmp_path / "d.xmg")),
                 ("sweep", f"2..{big}", "--design", "intdiv", "--method", "hier"),
                 ("sweep", "2..99999999999999999999", "--design", "newton", "--method", "hier")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out is None and f"network width cap of {MAX_NET_WIDTH}" in err, argv
    src = tmp_path / "d.xmg"
    src.write_text(f".xmg {MAX_NET_WIDTH} 0 0\n.end\n", encoding="utf-8")
    assert read_xmg(src).num_inputs == MAX_NET_WIDTH
    src.write_text(f".xmg {big} 0 0\n.end\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"{big} inputs exceed the network width cap") as info:
        read_xmg(src)
    assert info.value.line == 1


def test_sweep_checks_the_table_cap_before_its_first_width(capsys, monkeypatch):
    """A flow that tabulates checks the range end against REVFLOW_TT_LIMIT
    before it prints a record; hier needs no table, so the cap leaves it be."""
    monkeypatch.setenv("REVFLOW_TT_LIMIT", "6")
    for method in ("esop", "functional"):
        code = main(["sweep", "4..8", "--design", "intdiv", "--method", method])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", method
        assert "width 8 exceeds the truth-table limit of 6" in captured.err, method
    assert main(["sweep", "4..7", "--design", "intdiv", "--method", "hier"]) == 0
    assert [json.loads(ln)["n"] for ln in capsys.readouterr().out.splitlines()] == [4, 5, 6, 7]
    # an embedding adds lines to the table's: n=4 fits the cap of 8, but the
    # optimum embedding of n=5 needs 9 lines and the bennett one 10
    monkeypatch.setenv("REVFLOW_TT_LIMIT", "8")
    for switches, width in (([], 9), (["--embedding", "bennett"], 10)):
        code = main(["sweep", "4..8", "--design", "intdiv", "--method", "functional", *switches])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", switches
        assert f"width {width} exceeds the truth-table limit of 8" in captured.err, switches


def test_sweep_requires_design_and_method(capsys):
    for argv in (["4..5", "--design", "intdiv"], ["4..5", "--method", "esop"],
                 ["--design", "intdiv", "--method", "esop"]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *argv])
        assert exc.value.code == 2, argv


def test_bad_sweep_range(capsys):
    # a range is ASCII digits A..B with A <= B; int() would read "\u0664" as 4
    for text in ("6..4", "\u0664..\u0666", "4..", "4-6", "+4..6"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", text, "--design", "intdiv", "--method", "esop"])
        assert exc.value.code == 2, text
    assert "bad sweep range '6..4'" in capsys.readouterr().err


def test_flow_switch_goes_with_its_method(tmp_path, capsys):
    """A flow switch either acts or exits 2: embedding only on functional,
    inplace_xor only on hier."""
    form = flow_source("esop", DesignSpec(Design.INTDIV, 4))
    with pytest.raises(CliError, match="inplace_xor goes with method hier, not esop"):
        run_flow("esop", form, inplace_xor=True)
    with pytest.raises(CliError, match="embedding goes with method functional, not hier"):
        run_flow("hier", flow_source("hier", DesignSpec(Design.INTDIV, 4)), embedding="bennett")
    switches = {"functional": ["--embedding", "optimum"], "hier": ["--inplace-xor"]}
    for method in ("functional", "esop", "hier"):
        for owner, switch in switches.items():
            code, out, err = run(capsys, "sweep", "4..4", "--design", "intdiv",
                                 "--method", method, *switch)
            assert (code == 0) == (method == owner), (method, switch)
            assert code == 0 or (out is None and f"not {method}" in err)
    src = tmp_path / "d.pla"
    run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src))
    code, out, err = run(capsys, "synth", str(src), "--method", "esop", "--inplace-xor",
                         "-o", str(tmp_path / "d.real"))
    assert code == 2 and out is None and "inplace_xor" in err


def test_gen_xmg_files_take_the_gate_run_path(tmp_path, capsys, monkeypatch):
    """Every stamped file ``gen -o d.xmg`` writes, both designs at
    n=2..12, is read by ``_read_gate_run`` in one call, to the net the
    per-line loop alone builds."""
    runs = []
    read_run = logicnet._read_gate_run
    monkeypatch.setattr(logicnet, "_read_gate_run",
                        lambda *args: runs.append(read_run(*args)) or runs[-1])
    src = tmp_path / "d.xmg"
    for design in Design:
        for n in range(2, 13):
            assert run(capsys, "gen", "--design", design.value, "-n", str(n), "-o", str(src))[0] == 0
            runs.clear()
            net = read_xmg(src)
            assert runs == [True], (design, n)
            with monkeypatch.context() as m:
                m.setattr(logicnet, "_read_gate_run", lambda *args: False)
                by_lines = read_xmg(src)
            assert (net.fanins, net.outputs, net.num_inputs) == (
                by_lines.fanins, by_lines.outputs, by_lines.num_inputs), (design, n)


def test_overlong_number_is_a_fault_at_its_place(tmp_path):
    """A number of more digits than int() converts (4300 by default) exits 2
    from the console script, naming its file and line or the variable, not
    with Python's conversion error."""
    big = "9" * 5000
    real = tmp_path / "ok.real"
    real.write_text(".numvars 1\n.variables a\n.begin\nt1 a\n.end\n", encoding="utf-8")
    cases = [  # file, its text, the command, where the fault is
        ("h.xmg", f".xmg {big} 0 0\n.end\n", ["synth", "--method", "hier"], "h.xmg:1:"),
        ("l.xmg", f".xmg 1 1 1\nmaj 2 {big} 0\nout 4\n.end\n", ["synth", "--method", "hier"], "l.xmg:2:"),
        ("o.xmg", f".xmg 1 1 0\nout {big}\n.end\n", ["synth", "--method", "hier"], "o.xmg:2:"),
        ("s.xmg", f"# design=intdiv n={big}\n.xmg 1 1 0\nout 2\n.end\n",
         ["synth", "--method", "hier"], "s.xmg:1:"),
        ("i.pla", f".i {big}\n.o 1\n.type esop\n.e\n", ["synth", "--method", "esop"], "i.pla:1:"),
        ("o.pla", f".i 1\n.o {big}\n.type esop\n.e\n", ["synth", "--method", "esop"], "o.pla:2:"),
        ("v.real", f".numvars {big}\n.variables a\n.begin\n.end\n", ["stats"], "v.real:1:"),
        ("k.real", f".numvars 1\n.variables a\n.begin\nt{big} a\n.end\n", ["stats"], "k.real:4:"),
        ("c.txt", f"2: 7\n3: {big}\n", ["stats", str(real), "--cost-model"], "c.txt:2:"),
    ]
    for name, text, command, where in cases:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        output = ["-o", str(tmp_path / "out.real")] if command[0] == "synth" else []
        proc = subprocess.run([sys.executable, "-m", "revflow", *command, str(path), *output],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2 and f"{path.parent}/{where} number of 5000 digits" in proc.stderr, name
        assert "Exceeds the limit" not in proc.stderr, name
    assert not (tmp_path / "out.real").exists()
    proc = subprocess.run([sys.executable, "-m", "revflow", "gen", "--design", "intdiv", "-n", "4",
                           "-o", str(tmp_path / "d.xmg")], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, REVFLOW_TT_LIMIT=big))
    assert proc.returncode == 2 and "REVFLOW_TT_LIMIT: number of 5000 digits" in proc.stderr
    assert "Exceeds the limit" not in proc.stderr


def test_stamp_takes_ascii_digits(tmp_path, capsys):
    src = tmp_path / "d.pla"
    run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src))
    body = src.read_text(encoding="utf-8").split("\n", 1)[1]
    src.write_text("# design=intdiv n=\u0664\n" + body, encoding="utf-8")
    code, rec, _ = run(capsys, "synth", str(src), "--method", "esop", "-o", str(tmp_path / "d.real"))
    assert code == 0 and rec["design"] is None and rec["n"] is None


# not ASCII decimal digits, though int() reads the first six as numbers
NOT_NUMBERS = ("+4", "1_0", " 4", "4 ", "\u0664", "-4", "\u00b2", "")


def test_table_limit_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REVFLOW_TT_LIMIT", "5")
    code, _, err = run(capsys, "gen", "--design", "intdiv", "-n", "8", "-o", str(tmp_path / "big.pla"))
    assert code == 2 and "limit" in err.lower()
    for raw in NOT_NUMBERS + ("banana",):
        monkeypatch.setenv("REVFLOW_TT_LIMIT", raw)
        code, _, err = run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(tmp_path / "small.pla"))
        assert code == 2 and "REVFLOW_TT_LIMIT" in err, raw


def test_bits_are_ascii_digits(tmp_path, capsys):
    for text in NOT_NUMBERS:
        for argv in (["gen", "--design", "intdiv", "-n", text, "-o", str(tmp_path / "d.pla")],
                     ["verify", str(tmp_path / "d.real"), "--design", "intdiv", "-n", text]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "expected ASCII decimal digits" in capsys.readouterr().err, argv
    assert not (tmp_path / "d.pla").exists()


def test_synth_reads_only_xmg_and_pla(tmp_path, capsys):
    src = tmp_path / "d.tt"
    code, _, err = run(capsys, "gen", "--design", "intdiv", "-n", "4", "-o", str(src))
    assert code == 2 and "gen writes .xmg or .pla, not 'd.tt'" in err
    assert not src.exists()
    src.write_text("0\n1\n")
    code, _, err = run(capsys, "synth", str(src), "--method", "esop",
                       "-o", str(tmp_path / "d.real"))
    assert code == 2 and ".xmg" in err and ".pla" in err


def test_cnot_only_circuit_costs_zero_t(tmp_path, capsys):
    path = tmp_path / "c.real"
    path.write_text(
        ".version 2.0\n.numvars 2\n.variables a b\n.begin\nt2 a b\n.end\n")
    _, stats, _ = run(capsys, "stats", str(path))
    assert stats["t_count"] == 0 and stats["gates"] == 1


def test_module_entry_point(tmp_path):
    src = tmp_path / "d.pla"
    proc = subprocess.run(
        [sys.executable, "-m", "revflow", "gen", "--design", "intdiv", "-n", "4", "-o", str(src)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    proc = subprocess.run([sys.executable, "-m", "revflow"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
