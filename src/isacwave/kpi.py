"""Figures of merit for a designed transmit block.

Communication metrics treat the symbol block S as the signal the users
should receive: whatever H X delivers beyond S is multi-user
interference.  With a unit-average-energy constellation the per-user
SINR is

    SINR_k = 1 / ( (1/L) * ||row k of (H X - S)||^2 + noise_variance )

so the interference term is the per-sample interference energy of that
user.  sinr_per_user also takes stacks of instances on leading axes,
so a sweep evaluates a whole chunk of trials in one call.  Radar
metrics compare the block against the reference chirp: Euclidean
distance to x0 and the peak-to-average power ratio of the vectorized
block.  dB values are power ratios, 10*log10.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .signal_model import ChannelRealization, ReferenceWaveform, SymbolBlock, Waveform


def _as_array(obj) -> np.ndarray:
    """Accept the typed wrappers or bare arrays interchangeably."""
    for attr in ("matrix", "entries", "symbols"):
        if hasattr(obj, attr):
            return getattr(obj, attr)
    return np.asarray(obj)


def _interference(channel, waveform, symbols) -> np.ndarray:
    """The residual H X - S, after checking that the shapes of the last
    two axes agree; leading axes broadcast as stacks."""
    h = _as_array(channel)
    x = _as_array(waveform)
    s = _as_array(symbols)
    if (h.shape[-1] != x.shape[-2] or h.shape[-2] != s.shape[-2]
            or x.shape[-1] != s.shape[-1]):
        raise ValueError(
            f"inconsistent shapes: H {h.shape}, X {x.shape}, S {s.shape}"
        )
    return h @ x - s


def mui_energy(channel, waveform, symbols) -> float:
    """Total multi-user interference energy ||H X - S||_F^2."""
    return float(np.linalg.norm(_interference(channel, waveform, symbols)) ** 2)


def sinr_per_user(channel, waveform, symbols, noise_variance: float) -> np.ndarray:
    """Per-user SINR under a unit-average-energy constellation.

    Interference is measured per user as the time-averaged energy of
    row k of (H X - S); the numerator is the unit symbol energy.  Stacks
    of instances on leading axes give the stack of their (..., K) SINRs,
    each equal to that instance's alone.
    """
    if not noise_variance > 0:
        raise ValueError("noise_variance must be > 0")
    residual = _interference(channel, waveform, symbols)
    per_user_mui = np.sum(np.abs(residual) ** 2, axis=-1) / residual.shape[-1]
    return 1.0 / (per_user_mui + noise_variance)


def sum_rate(sinr: np.ndarray) -> float:
    """Sum over users of log2(1 + SINR_k), in bits/s/Hz."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("SINR values must be >= 0")
    return float(np.sum(np.log2(1.0 + sinr)))


def awgn_capacity_per_user(snr: float) -> float:
    """Interference-free per-user rate log2(1 + snr); snr is linear."""
    if snr < 0:
        raise ValueError("snr must be >= 0")
    return float(np.log2(1.0 + snr))


def papr(x) -> float:
    """Peak-to-average power ratio of a sampled signal (linear).

    The block PAPR of a waveform is the PAPR of its vectorized N*L
    samples.  Scale invariant; always in [1, number of samples].
    """
    return float(_last_axis_papr(np.ravel(_as_array(x))))


def _last_axis_papr(x: np.ndarray) -> np.ndarray:
    """Linear PAPR of each signal on the last axis of ``x``."""
    power = np.abs(x) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean == 0):
        raise ValueError("PAPR is undefined for an all-zero signal")
    return power.max(axis=-1) / mean


def papr_db(x) -> float:
    """Block PAPR in dB."""
    return float(10.0 * np.log10(papr(x)))


def stacked_papr_db(x) -> np.ndarray:
    """Block PAPR in dB of each signal on the last axis of a stack.

    Each entry is bitwise the :func:`papr_db` of that signal alone: the
    peak and the mean of its powers are reduced over the one contiguous
    axis in the order a lone signal's are.  Raises ValueError if any
    signal is all zero.
    """
    return 10.0 * np.log10(_last_axis_papr(_as_array(x)))


def similarity_distance(waveform, reference) -> float:
    """Euclidean distance ||x - x0||_2 between vectorized blocks."""
    x = np.ravel(_as_array(waveform), order="F")
    x0 = np.ravel(_as_array(reference), order="F")
    if x.shape != x0.shape:
        raise ValueError(f"shape mismatch: waveform {x.shape}, reference {x0.shape}")
    return float(np.linalg.norm(x - x0))


def ccdf(samples_db: np.ndarray, gamma_db_grid: np.ndarray) -> np.ndarray:
    """Empirical complementary CDF: fraction of samples strictly above
    each grid value.  Nonincreasing in the grid value by construction."""
    samples = np.asarray(samples_db, dtype=float)
    grid = np.asarray(gamma_db_grid, dtype=float)
    if samples.size == 0:
        raise ValueError("ccdf needs at least one sample")
    return (samples[None, :] > grid[:, None]).mean(axis=1)


@dataclass(frozen=True)
class KpiReport:
    """All figures of merit for one designed block."""

    mui_energy: float
    per_user_sinr: tuple[float, ...]
    per_user_rate: tuple[float, ...]
    sum_rate: float
    papr_linear: float
    papr_db: float
    similarity_distance: float

    def as_dict(self) -> dict:
        return asdict(self)


def build_report(
    channel: ChannelRealization,
    waveform: Waveform,
    symbols: SymbolBlock,
    reference: ReferenceWaveform,
    noise_variance: float,
) -> KpiReport:
    """Evaluate every KPI of a designed block against its scenario.

    ``noise_variance`` is the receiver noise the rates are evaluated
    at; the design itself does not depend on it.
    """
    sinr = sinr_per_user(channel, waveform, symbols, noise_variance)
    rates = np.log2(1.0 + sinr)
    p_lin = papr(waveform.vec)
    return KpiReport(
        mui_energy=mui_energy(channel, waveform, symbols),
        per_user_sinr=tuple(float(v) for v in sinr),
        per_user_rate=tuple(float(v) for v in rates),
        sum_rate=float(rates.sum()),
        papr_linear=p_lin,
        papr_db=float(10.0 * np.log10(p_lin)),
        similarity_distance=similarity_distance(waveform, reference),
    )
