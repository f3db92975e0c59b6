"""Reversible-logic synthesis flows for n-bit reciprocal designs.

The package generates combinational reciprocal designs (restoring integer
division and fixed-point Newton iteration), embeds them into reversible
functions, compiles them to Toffoli cascades through functional, ESOP, and
hierarchical flows, and verifies and costs the results.
"""

from .arith import (
    Design,
    DesignSpec,
    design_truth_table,
    gen_intdiv_xmg,
    gen_newton_xmg,
    newton_trace,
    oracle_reciprocal,
)
from .embedding import bennett_embed, min_additional_lines, optimum_embed
from .logicnet import esop_from_tt, esop_minimize, read_pla, read_xmg, write_pla, write_xmg
from .revcirc import CostModel, cost_report, read_real, simulate_full, verify_circuit, write_real
from .synth_esop import esop_synth
from .synth_functional import tbs
from .synth_hier import hier_synth

__version__ = "0.1.0"

__all__ = [
    "Design",
    "DesignSpec",
    "design_truth_table",
    "gen_intdiv_xmg",
    "gen_newton_xmg",
    "newton_trace",
    "oracle_reciprocal",
    "bennett_embed",
    "min_additional_lines",
    "optimum_embed",
    "esop_from_tt",
    "esop_minimize",
    "read_pla",
    "read_xmg",
    "write_pla",
    "write_xmg",
    "CostModel",
    "cost_report",
    "read_real",
    "simulate_full",
    "verify_circuit",
    "write_real",
    "esop_synth",
    "tbs",
    "hier_synth",
    "__version__",
]
