"""Seeded experiment harness: PAPR statistics, rate trade-offs, link SER.

Every experiment draws independent (channel, symbol) trials, designs one
block per trial with the splitting solver, and reduces the results into a
CurveTable of named series over a fixed axis.  The trials of a grid point
are designed in solver stacks of up to 256 trials, at least one per
worker process.  All randomness flows through per-trial streams keyed by
(base_seed, trial, purpose), and a stacked design does not depend on its
neighbours, so a table is bitwise reproducible and invariant to the
number of worker processes.

SNR convention.  With "zf-normalized" (the default) each trial rescales
the drawn channel so the zero-forcing block has exactly unit energy.
The designed block then spends its unit energy budget against a noise
variance of 1/SNR, which gives the convention its meaning: a block with
no residual interference attains a per-user SINR equal to the SNR, the
zero-MUI baseline transmits the symbols themselves over additive noise,
and its symbol error rate obeys the closed-form QPSK expression.  With
"raw" the channel is used as drawn and SNR keeps only its nominal
reading 1/sigma^2; the zero-MUI baseline is then no longer calibrated.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import __version__, kpi
from .admm import ProblemSpec, papr_cap, solve, zero_forcing_target
from .signal_model import (
    ArrayConfig,
    ChannelRealization,
    chirp_reference,
    constellation_points,
    draw_channel,
    draw_symbols,
    unvec,
)

SNR_CONVENTIONS = ("zf-normalized", "raw")

# per-trial stream purposes; extending the key tuple never collides
_PURPOSE_CHANNEL = 1
_PURPOSE_SYMBOLS = 2
_PURPOSE_NOISE = 3
_SERIES_DESIGNED = 0
_SERIES_ZERO_MUI = 1

# SER stopping rule: accumulate trials per point until enough errors or
# the symbol budget is spent
_MIN_ERRORS = 100
_MAX_SYMBOLS = 1_000_000

_GAMMA_GRID_DB = np.linspace(0.0, 10.0, 201)

# most trials designed as one solver stack.  A stack amortises numpy's
# per-call overhead over its rows; on 4 x 16 blocks the time per trial is
# lowest near 256 rows and grows beyond, as the iterate leaves the cache.
# It also bounds the memory a grid point holds at once.
_CHUNK_TRIALS = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the three experiment drivers.

    Each driver sweeps its own grids and takes the first entry of the
    grids it does not sweep: run_ccdf sweeps (rho_grid, eta_grid_db) at
    epsilon_grid[0]; run_sumrate sweeps (epsilon_grid, eta_grid_db) at
    rho_grid[0] and the single SNR; run_ser sweeps snr_grid_db at
    rho_grid[0], eta_grid_db[0], epsilon_grid[0].
    """

    n_antennas: int
    k_users: int
    n_samples: int
    rho_grid: tuple
    eta_grid_db: tuple
    epsilon_grid: tuple
    snr_grid_db: tuple
    n_trials: int = 200
    base_seed: int = 0
    constellation: str = "qpsk"
    m_iter: int = 2000
    snr_convention: str = "zf-normalized"

    def __post_init__(self) -> None:
        for name in ("n_antennas", "k_users", "n_samples", "n_trials",
                     "m_iter"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.k_users > self.n_antennas:
            raise ValueError(
                f"need k_users <= n_antennas, got K={self.k_users} > "
                f"N={self.n_antennas}"
            )
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        for name in ("rho_grid", "eta_grid_db", "epsilon_grid",
                     "snr_grid_db"):
            grid = tuple(float(g) for g in getattr(self, name))
            if not grid:
                raise ValueError(f"{name} must be nonempty")
            object.__setattr__(self, name, grid)
        if any(r <= 0 for r in self.rho_grid):
            raise ValueError("rho_grid entries must be > 0")
        if any(e < 0 for e in self.epsilon_grid):
            raise ValueError("epsilon_grid entries must be >= 0")
        for eta_db in self.eta_grid_db:
            papr_cap(eta_db, self.n_antennas * self.n_samples)
        constellation_points(self.constellation)  # rejects unknown names
        if self.snr_convention not in SNR_CONVENTIONS:
            raise ValueError(
                f"snr_convention must be one of {SNR_CONVENTIONS}"
            )

    def as_dict(self) -> dict:
        plain = asdict(self)
        for name in ("rho_grid", "eta_grid_db", "epsilon_grid",
                     "snr_grid_db"):
            plain[name] = list(plain[name])
        return plain


@dataclass(frozen=True)
class CurveTable:
    """Axis plus equally long named series, ready for CSV/JSON dumping."""

    axis_name: str
    axis_values: np.ndarray
    series: dict
    metadata: dict

    def __post_init__(self) -> None:
        if np.asarray(self.axis_values).size == 0:
            raise ValueError("axis_values must be nonempty")
        n = np.asarray(self.axis_values).size
        for label, values in self.series.items():
            if np.asarray(values).size != n:
                raise ValueError(
                    f"series {label!r} has {np.asarray(values).size} values, "
                    f"axis has {n}"
                )


def _provenance(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.as_dict(), sort_keys=True).encode()
    return f"isacwave-{__version__}-g{hashlib.sha256(blob).hexdigest()[:12]}"


def _metadata(cfg: ExperimentConfig, **extra) -> dict:
    meta = {"config": cfg.as_dict(), "provenance": _provenance(cfg)}
    meta.update(extra)
    return meta


def _stream_seed(base_seed: int, trial: int, purpose: int, *extra) -> int:
    seq = np.random.SeedSequence([base_seed, trial, purpose, *extra])
    return int(seq.generate_state(1, np.uint64)[0])


def _noise_rng(cfg: ExperimentConfig, trial: int, *extra):
    return np.random.default_rng(
        np.random.SeedSequence(
            [cfg.base_seed, trial, _PURPOSE_NOISE, *extra]
        )
    )


def draw_instance(n_antennas: int, k_users: int, n_samples: int,
                  constellation: str, snr_convention: str, channel_seed: int,
                  symbol_seed: int, noise_variance: float):
    """Draw one (channel, symbols) design instance from two seeds.

    Under the zf-normalized convention the channel is rescaled so the
    zero-forcing block has unit energy; the rescale factor is determined
    by the draw itself, keeping the stream layout identical across
    conventions.
    """
    channel = draw_channel(k_users, ArrayConfig(n_antennas=n_antennas),
                           noise_variance=noise_variance,
                           rng_seed=channel_seed)
    symbols = draw_symbols(k_users, n_samples, constellation,
                           rng_seed=symbol_seed)
    if snr_convention == "zf-normalized":
        scale = float(np.linalg.norm(zero_forcing_target(channel, symbols)))
        channel = ChannelRealization(matrix=channel.matrix * scale,
                                     noise_variance=noise_variance)
    return channel, symbols


def _trial_instance(cfg: ExperimentConfig, trial: int):
    """The instance of one trial, on the unit-noise trial streams."""
    return draw_instance(
        cfg.n_antennas, cfg.k_users, cfg.n_samples, cfg.constellation,
        cfg.snr_convention,
        _stream_seed(cfg.base_seed, trial, _PURPOSE_CHANNEL),
        _stream_seed(cfg.base_seed, trial, _PURPOSE_SYMBOLS), 1.0,
    )


def _solve_trials(cfg: ExperimentConfig, trials, epsilon: float,
                  eta: float, rho: float) -> list:
    """Draw and design a chunk of trials as one stack.

    Returns (channel, symbols, SolveResult) per trial, in trial order.
    """
    instances = [_trial_instance(cfg, trial) for trial in trials]
    reference = chirp_reference(cfg.n_antennas, cfg.n_samples)
    results = solve([
        ProblemSpec(
            channel=channel,
            symbols=symbols,
            reference=reference,
            epsilon=epsilon,
            eta=eta,
            rho=rho,
            max_iterations=cfg.m_iter,
            # the ccdf experiment compares penalty weights, which only
            # holds when each rho_grid entry stays the weight of the
            # whole solve
            rho_schedule="fixed",
        )
        for channel, symbols in instances
    ])
    return [(channel, symbols, result)
            for (channel, symbols), result in zip(instances, results)]


def _map_trials(fn, trials, threads: int) -> list:
    """Per-trial results of ``fn``, which maps a chunk of trial indices
    to one result per trial.

    Each call gets a contiguous chunk of at most _CHUNK_TRIALS trials,
    one or more per worker process.  Results come back in trial order and
    do not depend on the chunking.
    """
    trials = list(trials)
    per_worker = math.ceil(len(trials) / max(threads, 1))
    size = max(1, min(_CHUNK_TRIALS, per_worker))
    chunks = [trials[i:i + size] for i in range(0, len(trials), size)]
    if threads <= 1 or len(trials) <= 1:
        return [row for chunk in chunks for row in fn(chunk)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return [row for rows in pool.map(fn, chunks) for row in rows]


def detect_qpsk(received, constellation="qpsk") -> np.ndarray:
    """Indices of the nearest constellation points, ties to lowest index."""
    points = constellation_points(constellation)
    y = np.asarray(received, dtype=complex)
    return np.argmin(np.abs(y[..., None] - points), axis=-1)


# --- experiment 1: PAPR CCDF over (rho, eta) --------------------------------

def _ccdf_trials(cfg: ExperimentConfig, epsilon: float, eta: float,
                 rho: float, trials) -> list:
    return [kpi.papr_db(result.waveform.vec)
            for _, _, result in _solve_trials(cfg, trials, epsilon, eta, rho)]


def run_ccdf(cfg: ExperimentConfig, threads: int = 1) -> CurveTable:
    """CCDF of designed-block PAPR for every (rho, eta) pair.

    Uses epsilon_grid[0] as the similarity radius of every solve.
    """
    epsilon = cfg.epsilon_grid[0]
    series = {}
    for rho in cfg.rho_grid:
        for eta_db in cfg.eta_grid_db:
            eta = papr_cap(eta_db, cfg.n_antennas * cfg.n_samples)
            fn = partial(_ccdf_trials, cfg, epsilon, eta, rho)
            samples = np.array(_map_trials(fn, range(cfg.n_trials), threads))
            label = f"rho={rho:g},eta={eta_db:g}dB"
            series[label] = kpi.ccdf(samples, _GAMMA_GRID_DB)
    return CurveTable(
        axis_name="gamma_db",
        axis_values=_GAMMA_GRID_DB.copy(),
        series=series,
        metadata=_metadata(cfg, epsilon=epsilon, n_trials=cfg.n_trials),
    )


# --- experiment 2: per-user rate over (epsilon, eta) ------------------------

def _rate_from_block(channel, x, symbols, noise_variance: float) -> float:
    waveform = unvec(np.asarray(x), channel.n_antennas)
    sinr = kpi.sinr_per_user(channel, waveform, symbols, noise_variance)
    return float(np.mean(np.log2(1.0 + sinr)))


def _sumrate_trials(cfg: ExperimentConfig, epsilon: float, eta: float,
                    rho: float, noise_variance: float, trials) -> list:
    return [_rate_from_block(channel, result.waveform.vec, symbols,
                             noise_variance)
            for channel, symbols, result
            in _solve_trials(cfg, trials, epsilon, eta, rho)]


def _zero_mui_rate_trials(cfg: ExperimentConfig, noise_variance: float,
                          trials) -> list:
    rates = []
    for trial in trials:
        channel, symbols = _trial_instance(cfg, trial)
        target = zero_forcing_target(channel, symbols)
        target = target / np.linalg.norm(target)
        rates.append(_rate_from_block(channel, target, symbols,
                                      noise_variance))
    return rates


def run_sumrate(cfg: ExperimentConfig, threads: int = 1) -> CurveTable:
    """Trial-averaged per-user rate versus similarity radius.

    One series per eta, an "awgn_capacity" constant, and a "zero_mui"
    series transmitting the unit-energy zero-forcing block.  Requires a
    single SNR point.
    """
    if len(cfg.snr_grid_db) != 1:
        raise ValueError(
            "run_sumrate needs exactly one SNR point, got "
            f"{len(cfg.snr_grid_db)}"
        )
    snr = 10.0 ** (cfg.snr_grid_db[0] / 10.0)
    noise_variance = 1.0 / snr
    rho = cfg.rho_grid[0]
    axis = np.array(cfg.epsilon_grid, dtype=float)
    trials = range(cfg.n_trials)

    def _sem(values) -> float:
        values = np.asarray(values)
        if values.size < 2:
            return 0.0
        return float(np.std(values, ddof=1) / math.sqrt(values.size))

    series = {}
    sems = {}
    for eta_db in cfg.eta_grid_db:
        eta = papr_cap(eta_db, cfg.n_antennas * cfg.n_samples)
        rates = np.empty(axis.size)
        errs = np.empty(axis.size)
        for j, epsilon in enumerate(axis):
            fn = partial(_sumrate_trials, cfg, float(epsilon), eta, rho,
                         noise_variance)
            per_trial = _map_trials(fn, trials, threads)
            rates[j] = np.mean(per_trial)
            errs[j] = _sem(per_trial)
        label = f"eta={10.0 ** (eta_db / 10.0):g}"
        series[label] = rates
        sems[label] = [float(e) for e in errs]

    fn = partial(_zero_mui_rate_trials, cfg, noise_variance)
    zero_trials = _map_trials(fn, trials, threads)
    series["zero_mui"] = np.full(axis.size, float(np.mean(zero_trials)))
    sems["zero_mui"] = [_sem(zero_trials)] * axis.size
    series["awgn_capacity"] = np.full(axis.size, kpi.awgn_capacity_per_user(snr))
    sems["awgn_capacity"] = [0.0] * axis.size
    return CurveTable(
        axis_name="epsilon",
        axis_values=axis,
        series=series,
        metadata=_metadata(cfg, rho=rho, snr_db=cfg.snr_grid_db[0],
                           n_trials=cfg.n_trials, series_sem=sems),
    )


# --- experiment 3: SER over SNR with zero-MUI baseline ----------------------

def _ser_counts(cfg: ExperimentConfig, sigma2s: tuple, trial: int,
                received_clean: np.ndarray, sent: np.ndarray,
                series: int) -> np.ndarray:
    """Symbol errors of one trial's block at every SNR point.

    Point p adds noise from its own stream (trial, p, series) to the
    noiseless received block and counts detections that differ from the
    detected sent symbols.
    """
    transmitted = detect_qpsk(sent, cfg.constellation)
    noise = np.empty((len(sigma2s),) + sent.shape, dtype=complex)
    for p, sigma2 in enumerate(sigma2s):
        rng = _noise_rng(cfg, trial, p, series)
        noise[p] = (rng.standard_normal(sent.shape)
                    + 1j * rng.standard_normal(sent.shape))
        noise[p] *= math.sqrt(sigma2 / 2.0)
    detected = detect_qpsk(received_clean + noise, cfg.constellation)
    return np.count_nonzero(detected != transmitted, axis=(1, 2))


def _ser_designed_trials(cfg: ExperimentConfig, epsilon: float, eta: float,
                         rho: float, sigma2s: tuple, trials) -> list:
    return [_ser_counts(cfg, sigma2s, trial,
                        channel.matrix @ result.waveform.entries,
                        symbols.symbols, _SERIES_DESIGNED)
            for trial, (channel, symbols, result)
            in zip(trials, _solve_trials(cfg, trials, epsilon, eta, rho))]


def _ser_zero_mui_trials(cfg: ExperimentConfig, sigma2s: tuple,
                         trials) -> list:
    # the unit-energy zero-forcing block delivers the symbols themselves,
    # so only the symbol and noise streams are consumed
    counts = []
    for trial in trials:
        symbols = draw_symbols(
            cfg.k_users,
            cfg.n_samples,
            cfg.constellation,
            rng_seed=_stream_seed(cfg.base_seed, trial, _PURPOSE_SYMBOLS),
        ).symbols
        counts.append(_ser_counts(cfg, sigma2s, trial, symbols, symbols,
                                  _SERIES_ZERO_MUI))
    return counts


def _accumulate_ser(chunk_fn, n_points: int, symbols_per_trial: int,
                    threads: int) -> dict:
    """Add whole trials per point until each has enough errors or symbols.

    ``chunk_fn`` maps a chunk of trial indices to one row of per-point
    error counts per trial.  Trials are processed in index order; a
    point stops absorbing trials the moment its own stopping rule fires,
    so the accumulated counts do not depend on batch size or worker
    count.
    """
    errors = np.zeros(n_points, dtype=np.int64)
    symbols = np.zeros(n_points, dtype=np.int64)
    trials_used = np.zeros(n_points, dtype=np.int64)
    still_open = np.ones(n_points, dtype=bool)
    cap = math.ceil(_MAX_SYMBOLS / symbols_per_trial)
    batch = max(64, 16 * max(threads, 1))
    t = 0
    while np.any(still_open) and t < cap:
        hi = min(t + batch, cap)
        rows = _map_trials(chunk_fn, range(t, hi), threads)
        for row in rows:
            errors[still_open] += row[still_open]
            symbols[still_open] += symbols_per_trial
            trials_used[still_open] += 1
            still_open &= ~((errors >= _MIN_ERRORS)
                            | (symbols >= _MAX_SYMBOLS))
            if not np.any(still_open):
                break
        t = hi
    return {
        "errors": errors,
        "symbols": symbols,
        "trials": trials_used,
        "ser": errors / np.maximum(symbols, 1),
    }


def run_ser(cfg: ExperimentConfig, threads: int = 1) -> CurveTable:
    """Symbol error rate of the designed block versus SNR.

    The "designed" series solves one instance per trial and reuses the
    block at every SNR point with independent noise; the "zero_mui"
    series transmits the symbols over noise alone.  Per point, trials
    accumulate until the error count or symbol budget is reached.
    """
    if cfg.constellation != "qpsk":
        raise ValueError("run_ser is defined for the qpsk constellation")
    sigma2s = tuple(10.0 ** (-snr_db / 10.0) for snr_db in cfg.snr_grid_db)
    n_points = len(sigma2s)
    per_trial = cfg.k_users * cfg.n_samples
    epsilon = cfg.epsilon_grid[0]
    eta = papr_cap(cfg.eta_grid_db[0], cfg.n_antennas * cfg.n_samples)
    rho = cfg.rho_grid[0]

    designed = _accumulate_ser(
        partial(_ser_designed_trials, cfg, epsilon, eta, rho, sigma2s),
        n_points, per_trial, threads,
    )
    zero_mui = _accumulate_ser(
        partial(_ser_zero_mui_trials, cfg, sigma2s),
        n_points, per_trial, threads=1,  # no solves, pool overhead dominates
    )

    stats = {
        label: {
            "errors": [int(e) for e in acc["errors"]],
            "symbols": [int(s) for s in acc["symbols"]],
            "trials": [int(n) for n in acc["trials"]],
        }
        for label, acc in (("designed", designed), ("zero_mui", zero_mui))
    }
    return CurveTable(
        axis_name="snr_db",
        axis_values=np.array(cfg.snr_grid_db, dtype=float),
        series={"designed": designed["ser"], "zero_mui": zero_mui["ser"]},
        metadata=_metadata(cfg, epsilon=epsilon, eta_db=cfg.eta_grid_db[0],
                           rho=rho, series_stats=stats),
    )


def analytic_qpsk_ser(snr_linear: float) -> float:
    """Closed-form QPSK symbol error rate over the calibrated channel."""
    q = 0.5 * math.erfc(math.sqrt(snr_linear) / math.sqrt(2.0))
    return 2.0 * q - q * q
