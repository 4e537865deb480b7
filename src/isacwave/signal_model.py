"""Transmit-side signal objects for a MIMO dual-function transmitter.

A block of L snapshots from an N-antenna uniform linear array is an N x L
complex matrix X.  The optimizer works on the vectorized block
x = vec(X) (column-major, length N*L) and on its real lifting
x_bar = [Re(x); Im(x)] (length 2*N*L).  This module provides:

* Rayleigh channel and constellation-symbol draws (explicitly seeded),
* the unit-energy chirp block used as the radar reference,
* vec / lift round-trip helpers shared by the solver and the KPIs.

Energy conventions used throughout: channel entries are unit-variance
complex normal, constellations have unit average energy, and reference
blocks carry unit total energy ||X0||_F = 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_CONSTELLATIONS = {
    "qpsk": np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0),
    "16qam": np.array(
        [a + 1j * b for a in (-3.0, -1.0, 1.0, 3.0) for b in (-3.0, -1.0, 1.0, 3.0)]
    )
    / np.sqrt(10.0),
}


# --- argument rules, shared by every object that takes the argument -------


def _integer(name: str, value, least: int = 1) -> int:
    """``value`` as an int, rejecting a bool and any value that is not
    an integer >= ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")
    return int(value)


def _positive(name: str, value) -> None:
    """Reject a ``value`` that is not finite and > 0."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0")


def _nonnegative(name: str, value) -> None:
    """Reject a ``value`` that is not finite and >= 0."""
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and >= 0")


def _one_of(name: str, value, choices: tuple) -> None:
    """Reject a ``value`` that is not one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}")


def _finite_matrix(name: str, value, axes: str) -> np.ndarray:
    """``value`` as a complex array, rejecting one that is not 2-D, with
    ``axes`` naming its two axes, or not finite."""
    matrix = np.asarray(value, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be 2-D ({axes})")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{name} must be finite")
    return matrix


def _db_to_linear(value_db: float) -> float:
    """10^(value_db/10), or inf where that overflows a float."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


def constellation_points(name: str) -> np.ndarray:
    """Return the points of a unit-average-energy constellation.

    Parameters
    ----------
    name : str
        "qpsk" or "16qam" (case-insensitive).
    """
    if not isinstance(name, str):
        raise ValueError(f"constellation must be a string, got {name!r}")
    key = name.lower()
    if key not in _CONSTELLATIONS:
        raise ValueError(
            f"unknown constellation {name!r}; choose from {sorted(_CONSTELLATIONS)}"
        )
    return _CONSTELLATIONS[key].copy()


@dataclass(frozen=True)
class ChannelRealization:
    """Flat-fading downlink channel H (K users x N antennas).

    The receiver noise is not part of the channel: it enters only when a
    finished block is evaluated (see :mod:`isacwave.kpi`).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _finite_matrix(
            "channel matrix", self.matrix, "users x antennas"))

    @property
    def k_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[1]


def snr_noise_variance(snr_db: float) -> float:
    """Receiver noise variance 10^(-snr_db/10) of an SNR given in dB.

    An snr_db whose linear SNR or noise variance is 0 or not finite is
    rejected, so no caller meets an overflow or a zero-noise link.
    """
    snr, noise_variance = _db_to_linear(snr_db), _db_to_linear(-snr_db)
    if not (0.0 < snr < math.inf and 0.0 < noise_variance < math.inf):
        raise ValueError(
            f"snr_db = {snr_db:g} dB must give a linear SNR and a noise "
            "variance that are finite and > 0"
        )
    return noise_variance


def draw_channel(
    k_users: int, n_antennas: int, rng_seed: int | np.random.Generator
) -> ChannelRealization:
    """Draw H with i.i.d. unit-variance complex normal entries.

    Each entry is (a + jb)/sqrt(2) with a, b standard normal, so
    E|h|^2 = 1.  ``rng_seed`` is an int seed, of which the draw is a pure
    function, or a Generator, which the draw advances.
    """
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    rng = np.random.default_rng(rng_seed)
    shape = (k_users, n_antennas)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return ChannelRealization(h)


@dataclass(frozen=True)
class SymbolBlock:
    """K x L matrix of constellation symbols intended for the K users."""

    symbols: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", _finite_matrix(
            "symbols", self.symbols, "users x samples"))

    @property
    def k_users(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_samples(self) -> int:
        return self.symbols.shape[1]


def draw_symbols(
    k_users: int,
    n_samples: int,
    constellation: str,
    rng_seed: int | np.random.Generator,
) -> SymbolBlock:
    """Draw a K x L block of i.i.d. uniform constellation symbols.

    ``rng_seed`` is an int seed, of which the draw is a pure function, or
    a Generator, which the draw advances.
    """
    if k_users < 1 or n_samples < 1:
        raise ValueError("k_users and n_samples must be >= 1")
    points = constellation_points(constellation)
    rng = np.random.default_rng(rng_seed)
    idx = rng.integers(0, len(points), size=(k_users, n_samples))
    return SymbolBlock(points[idx])


@dataclass(frozen=True)
class Waveform:
    """Designed transmit block: N x L complex entries, rows are antennas."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _finite_matrix(
            "waveform entries", self.entries, "antennas x samples"))

    @property
    def n_antennas(self) -> int:
        return self.entries.shape[0]

    @property
    def n_samples(self) -> int:
        return self.entries.shape[1]

    @property
    def vec(self) -> np.ndarray:
        """Column-major vectorization (length N*L)."""
        return vec(self.entries)


@dataclass(frozen=True)
class ReferenceWaveform(Waveform):
    """Radar reference block x0 with unit total energy ||X0||_F = 1."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if abs(np.linalg.norm(self.entries) - 1.0) > 1e-9:
            raise ValueError("reference block must have unit Frobenius norm")

    @property
    def lifted(self) -> np.ndarray:
        """Real lifting of the vectorized block (length 2*N*L)."""
        return lift(self.vec)


def chirp_reference(n_antennas: int, n_samples: int) -> ReferenceWaveform:
    """Unit-energy linear-FM chirp block.

    Entry (n, l) is exp(j*pi*(n*L + l)^2 / (N*L)) / sqrt(N*L): one
    quadratic phase ramp over the N*L samples of the block, split
    row-wise across antennas.  Every entry has the same magnitude, so
    the reference has peak-to-average power ratio exactly 1.
    """
    if n_antennas < 1 or n_samples < 1:
        raise ValueError("n_antennas and n_samples must be >= 1")
    total = n_antennas * n_samples
    ramp = (
        np.arange(n_antennas)[:, None] * n_samples + np.arange(n_samples)[None, :]
    ).astype(float)
    entries = np.exp(1j * np.pi * ramp**2 / total) / np.sqrt(total)
    return ReferenceWaveform(entries)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one vector."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("vec expects a 2-D matrix")
    return m.reshape(-1, order="F")


def unvec(x: np.ndarray, n_antennas: int) -> np.ndarray:
    """Inverse of :func:`vec` for a known row count."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("unvec expects a 1-D vector")
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    if x.size % n_antennas != 0:
        raise ValueError("vector length is not a multiple of n_antennas")
    return x.reshape(n_antennas, -1, order="F")


def lift(x: np.ndarray) -> np.ndarray:
    """Real lifting [Re(x); Im(x)] of a complex vector.

    The lifting is an isometry: norms and real inner products
    Re <x, y> are preserved exactly.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError("lift expects a 1-D vector")
    return np.concatenate((x.real, x.imag))


def unlift(x_bar: np.ndarray) -> np.ndarray:
    """Rebuild the complex vector from its real lifting."""
    x_bar = np.asarray(x_bar, dtype=float)
    if x_bar.ndim != 1:
        raise ValueError("unlift expects a 1-D vector")
    if x_bar.size % 2 != 0:
        raise ValueError("lifted vector length must be even")
    half = x_bar.size // 2
    return x_bar[:half] + 1j * x_bar[half:]
