"""The package's public surface."""

import isacwave
from isacwave import admm

PUBLIC = (
    "ChannelRealization",
    "ConstraintViolations",
    "CurveTable",
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
)

# the ADMM iteration as separate step functions, with the per-sample
# (Re, Im) pair layout they hold gamma and w in; they live with the
# tests (reference_admm), and the library runs only its fused loop, in
# the slot layout
REFERENCE_STEPS = (
    "AdmmState",
    "DegenerateProjectionError",
    "alpha_update",
    "augmented_lagrangian",
    "beta_update",
    "coupling_pairs",
    "dual_updates",
    "gamma_update",
    "scatter_pairs",
    "x_update",
)


def test_the_public_surface_is_pinned_and_has_one_admm_kernel():
    assert isacwave.__all__ == list(PUBLIC)
    for name in PUBLIC:
        assert hasattr(isacwave, name), name
    assert [name for name in REFERENCE_STEPS if hasattr(admm, name)] == []
