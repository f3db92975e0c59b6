"""Command-line pipeline: generate designs, synthesize, verify, report.

Each run of synth, stats and sweep prints one JSON record per result on
stdout so sweeps can be post-processed with standard tools.  Exit codes: 0
success, 1 verification mismatch, 2 operational error (bad arguments,
unreadable files, size limits).
"""

import argparse
import json
import re
import sys
import time
from pathlib import Path

from .arith import Design, DesignSpec, design_truth_table, design_xmg
from .embedding import bennett_embed, bennett_width, optimum_embed, optimum_width
from .logicnet import (
    EsopForm,
    ParseError,
    Xmg,
    _check_limit,
    _decimal,
    _table_cap,
    esop_from_tt,
    esop_minimize,
    read_pla,
    read_xmg,
    write_pla,
    write_xmg,
)
from .revcirc import (
    DEFAULT_COST_MODEL,
    CostModel,
    RevCircuit,
    cost_report,
    first_mismatch,
    read_real,
    write_real,
)
from .synth_esop import esop_synth
from .synth_functional import tbs
from .synth_hier import hier_synth

_STAMP = re.compile(r"#\s*design=(\w+)\s+n=(\d+)", re.ASCII)

# the functional flow's embeddings, by the name run_flow and --embedding take
_EMBEDDINGS = {"optimum": optimum_embed, "bennett": bennett_embed}

# a design file's format is its suffix: the design it holds in memory, how
# gen builds that from a spec under the table cap, and its reader and writer
_FORMATS = {
    ".xmg": (Xmg, design_xmg, read_xmg, write_xmg),
    ".pla": (EsopForm, lambda spec: esop_from_tt(design_truth_table(spec)), read_pla, write_pla),
}
# the format each method compiles
_METHODS = {"functional": ".pla", "esop": ".pla", "hier": ".xmg"}


class CliError(Exception):
    """Operational failure reported on stderr with exit code 2."""


def _number(text: str) -> int:
    """A number given on the command line, by the rule every input reader
    keeps (``logicnet._decimal``)."""
    try:
        return _decimal(text, f"expected ASCII decimal digits, got {text!r}")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# --- shared plumbing ------------------------------------------------------


def _sniff_stamp(path) -> tuple[str | None, int | None]:
    """gen's stamp, if one of a design file's first three lines holds it."""
    with open(path, encoding="utf-8") as fh:
        for lineno in range(1, 4):
            m = _STAMP.search(fh.readline())
            if m:
                return m.group(1), _decimal(m.group(2), "bad stamp", str(path), lineno)
    return None, None


def _format(path: Path, verb: str) -> tuple:
    """The _FORMATS entry of a file's suffix; CliError on any other suffix."""
    entry = _FORMATS.get(path.suffix)
    if entry is None:
        raise CliError(f"{verb} {' or '.join(_FORMATS)}, not {path.name!r}")
    return entry


def flow_source(method: str, spec: DesignSpec) -> Xmg | EsopForm:
    """The in-memory design ``method`` compiles, as gen writes it to the file
    synth reads: an Xmg for hier, an EsopForm for functional and esop."""
    return _FORMATS[_METHODS[method]][1](spec)


def _report(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _report_flow(circ, model: CostModel, design, n, method: str, t0: float) -> None:
    record = cost_report(circ, model).as_dict()
    record.update(
        design=design,
        n=n,
        method=method,
        runtime_s=round(time.perf_counter() - t0, 6),
    )
    _report(record)


def run_flow(
    method: str,
    source: Xmg | EsopForm,
    *,
    embedding: str | None = None,
    inplace_xor: bool = False,
) -> RevCircuit:
    """Compile an in-memory design with one synthesis flow; returns the circuit.

    ``hier`` takes an Xmg and ``functional`` and ``esop`` an EsopForm, the
    designs synth reads (``flow_source`` builds either).  ``embedding``
    (default optimum) goes only with functional and ``inplace_xor`` only
    with hier: either raises CliError on another method.  esop always
    minimizes its cube list.  The table cap bounds the form's input and
    output counts and the embedding width, bennett's before the form is tabulated.
    """
    if embedding is not None and method != "functional":
        raise CliError(f"embedding goes with method functional, not {method}")
    if inplace_xor and method != "hier":
        raise CliError(f"inplace_xor goes with method hier, not {method}")
    suffix = _METHODS.get(method)
    if suffix is None:
        raise CliError(f"unknown method {method!r}")
    kind = _FORMATS[suffix][0]
    if not isinstance(source, kind):
        raise CliError(f"method {method} takes an {kind.__name__} ({suffix}), not {type(source).__name__}")
    if method == "hier":
        return hier_synth(source, inplace_xor=inplace_xor)
    # a .pla header sets these counts, so check them before either flow builds anything
    _check_limit(source.num_inputs)
    _check_limit(source.num_outputs)
    if method == "esop":
        return esop_synth(esop_minimize(source))
    embed = _EMBEDDINGS.get("optimum" if embedding is None else embedding)
    if embed is None:
        choices = " or ".join(map(repr, _EMBEDDINGS))
        raise CliError(f"unknown embedding {embedding!r}, expected {choices}")
    if embed is bennett_embed:
        _check_limit(bennett_width(source))
    perm, emb = embed(source.to_truth_table())
    return tbs(perm, embedding=emb)


# --- subcommands ----------------------------------------------------------


def cmd_gen(args) -> int:
    # the suffix first: a file no command reads is never built
    out = Path(args.output)
    _, build, _, write = _format(out, "gen writes")
    write(build(DesignSpec(Design(args.design), args.bits)), out)
    text = out.read_text(encoding="utf-8")
    out.write_text(f"# design={args.design} n={args.bits}\n" + text, encoding="utf-8")
    return 0


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    path = Path(args.input)
    source = _format(path, "synth reads")[2](path)
    design, n = _sniff_stamp(path)  # after the design: the file is there and readable
    circ = run_flow(args.method, source, embedding=args.embedding, inplace_xor=args.inplace_xor)
    write_real(circ, args.output)
    _report_flow(circ, DEFAULT_COST_MODEL, design, n, args.method, t0)
    return 0


def cmd_verify(args) -> int:
    # the table first: a bad width or size fails before the circuit is read
    table = design_truth_table(DesignSpec(Design(args.design), args.bits))
    circ = read_real(args.circuit)
    mismatch = first_mismatch(circ, table)
    counterexample = None if mismatch is None else dict(zip(("x", "output", "got", "want"), mismatch))
    _report(
        {
            "design": args.design,
            "n": args.bits,
            "verified": counterexample is None,
            "counterexample": counterexample,
        }
    )
    return 0 if counterexample is None else 1


def _parse_sweep(text: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text, re.ASCII)
    if m:
        first, last = map(_number, m.groups())
    if not m or first > last:
        raise argparse.ArgumentTypeError(f"bad sweep range {text!r}, expected A..B with A <= B")
    return range(first, last + 1)


def cmd_stats(args) -> int:
    model = CostModel.from_file(args.cost_model) if args.cost_model else DEFAULT_COST_MODEL
    _report(cost_report(read_real(args.circuit), model).as_dict())
    return 0


def cmd_sweep(args) -> int:
    model = CostModel.from_file(args.cost_model) if args.cost_model else DEFAULT_COST_MODEL
    # the widest spec first, so a range past the width cap, or the table cap
    # of a flow that tabulates, fails before any work
    DesignSpec(Design(args.design), args.widths[-1])
    if args.method != "hier":
        _check_limit(args.widths[-1])
    if args.method == "functional":
        # an embedding adds lines to the table's: check each before the first record
        width = bennett_width if args.embedding == "bennett" else optimum_width
        for n in args.widths:
            _check_limit(width(design_truth_table(DesignSpec(Design(args.design), n))))
    for n in args.widths:
        t0 = time.perf_counter()
        source = flow_source(args.method, DesignSpec(Design(args.design), n))
        circ = run_flow(args.method, source, embedding=args.embedding, inplace_xor=args.inplace_xor)
        _report_flow(circ, model, args.design, n, args.method, t0)
    return 0


def _add_flow_options(parser: argparse.ArgumentParser) -> None:
    """synth's and sweep's flow switches; an absent one is None or False, as in run_flow."""
    parser.add_argument("--method", choices=tuple(_METHODS), required=True)
    parser.add_argument("--embedding", choices=tuple(_EMBEDDINGS),
                        help="functional flow: embedding (default optimum)")
    # bennett is the only cleanup left; the switch stays for scripts that name it
    parser.add_argument("--cleanup", choices=("bennett",),
                        help="ancilla cleanup strategy; every method accepts it")
    parser.add_argument("--inplace-xor", action="store_true",
                        help="hier flow: fuse single-reader xor operands in place")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revflow",
        description="Reversible-logic synthesis flows for reciprocal designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a reciprocal design file")
    gen.add_argument("--design", choices=[d.value for d in Design], required=True)
    gen.add_argument("-n", "--bits", type=_number, required=True, help="output bit width")
    gen.add_argument("-o", "--output", required=True, help="an .xmg network or .pla cube list, by suffix")
    gen.set_defaults(func=cmd_gen)

    synth = sub.add_parser("synth", help="compile a design file to a REAL circuit")
    synth.add_argument("input")
    synth.add_argument("-o", "--output", required=True)
    _add_flow_options(synth)
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="check a REAL circuit against a design oracle")
    verify.add_argument("circuit")
    verify.add_argument("--design", choices=[d.value for d in Design], required=True)
    verify.add_argument("-n", "--bits", type=_number, required=True)
    verify.set_defaults(func=cmd_verify)

    stats = sub.add_parser("stats", help="cost-report a REAL circuit")
    stats.add_argument("circuit")
    stats.add_argument("--cost-model", help="file of 'controls: t-cost' overrides")
    stats.set_defaults(func=cmd_stats)

    sweep = sub.add_parser("sweep", help="run gen and synth in memory for each n in A..B")
    sweep.add_argument("widths", type=_parse_sweep, metavar="A..B", help="n from A to B")
    sweep.add_argument("--design", choices=[d.value for d in Design], required=True)
    _add_flow_options(sweep)
    sweep.add_argument("--cost-model", help="file of 'controls: t-cost' overrides")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _table_cap()  # a malformed REVFLOW_TT_LIMIT fails every command, before it starts
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:  # ParseError and TableLimitError are ValueErrors
        print(f"revflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
