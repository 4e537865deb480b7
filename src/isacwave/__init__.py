"""Dual-function radar-communication waveform design and evaluation.

A transmit block for an N-antenna array is designed to sit as close as
possible to the interference-free communication waveform while staying
inside a similarity ball around a radar chirp, under a block PAPR cap
and a unit total-energy budget.  The package provides the splitting
solver, the physical-layer signal objects, the figures of merit, a
Monte-Carlo experiment harness, and a command line front end.
"""

__version__ = "0.1.0"

from .admm import (
    AdmmState,
    ConstraintViolations,
    DegenerateProjectionError,
    ProblemSpec,
    ResidualHistory,
    SingularChannelError,
    SolveResult,
    solve,
    zero_forcing_target,
)
from .kpi import KpiReport, build_report
from .montecarlo import (
    CurveTable,
    ExperimentConfig,
    analytic_qpsk_ser,
    detect_qpsk,
    run_ccdf,
    run_ser,
    run_sumrate,
)
from .signal_model import (
    ChannelRealization,
    ReferenceWaveform,
    SymbolBlock,
    Waveform,
    chirp_reference,
    constellation_points,
    draw_channel,
    draw_symbols,
    lift,
    unlift,
    unvec,
    vec,
)

__all__ = [
    "AdmmState",
    "ChannelRealization",
    "ConstraintViolations",
    "CurveTable",
    "DegenerateProjectionError",
    "ExperimentConfig",
    "KpiReport",
    "ProblemSpec",
    "ReferenceWaveform",
    "ResidualHistory",
    "SingularChannelError",
    "SolveResult",
    "SymbolBlock",
    "Waveform",
    "analytic_qpsk_ser",
    "build_report",
    "chirp_reference",
    "constellation_points",
    "detect_qpsk",
    "draw_channel",
    "draw_symbols",
    "lift",
    "run_ccdf",
    "run_ser",
    "run_sumrate",
    "solve",
    "unlift",
    "unvec",
    "vec",
    "zero_forcing_target",
    "__version__",
]
