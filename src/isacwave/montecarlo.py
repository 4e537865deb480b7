"""Seeded experiment harness: PAPR statistics, rate trade-offs, link SER.

Every experiment draws independent (channel, symbol) trials, designs one
block per trial and grid point with the splitting solver, and reduces
the results into a CurveTable of named series over a fixed axis.  The
designs are solved in stacks of up to 256 rows (trials x grid points),
at least one stack per worker process; a ccdf sweep draws each trial
once and designs it at every (rho, eta) point within one stack, while
the rate and SER sweeps stack one grid point at a time.  A chunk of
trials stays arrays from its draw to its table: its channels, symbols
and designed blocks are stacked arrays, a measure maps them to one
array of per-trial results, and the chunks' arrays are concatenated in
trial order.  The rate and SER designs stop once feasible and
certified optimal; the ccdf designs run the whole m_iter budget, since
that experiment compares penalty weights at one budget.  Before it starts a worker pool, the parent
imports numpy.random (numpy imports it on first use), so the forked
workers inherit it instead of each importing it.

Every sweep draw comes from numpy's Philox4x64, a counter-based
generator, keyed by base_seed (hence base_seed < 2**128).  Block b of
trial t's stream for a purpose (channel, symbols or SER noise) sits at
counter (t * B + b, purpose, SNR point, series), where B is the number
of four-word blocks one trial of that purpose takes, so a chunk of
contiguous trials draws each purpose with one call and no hash.  A
symbol is a word's top bits.  A complex normal is Box-Muller's
sqrt(-ln u1) exp(2 pi j u2) of two 53-bit uniforms, u1 in (0, 1].  A
stacked design does not depend on its neighbours, so a table is
bitwise reproducible and invariant to the number of worker processes,
to the chunking and to the SER batch sizes.  The design command keeps
its own int-seeded draws (draw_instance).

SER batches.  Each SER series draws trials in batches until every SNR
point has 100 errors or the 10^6-symbol budget is spent.  The first
batch gives each worker 16 trials, 32 at least; a later one holds the
trials the neediest open point is expected to still need, plus 25%,
or doubles the trials run while that point has no error, never fewer
than the first batch, more than 256 (_CHUNK_ROWS) or past the budget.
A point absorbs rows in trial order, so the batch sizes decide only
how many rows are computed and discarded.

SER decisions.  A QPSK decision reads only the signs of the two parts
of a received value, so noise can change the decision on a clean value
c only where fl(sd r) >= min(|Re c|, |Im c|), its distance to the axes,
with sd = sqrt(sigma2) and r the symbol's Box-Muller radius.  Only such
a symbol computes its angle, its noise and a new decision; every other
one keeps the decision on c.  This is exact: the noise parts are
fl(sd fl(r cos)) and fl(sd fl(r sin)), and with |fl(cos)|, |fl(sin)|
<= 1 and rounding monotone both are at most fl(sd r) in magnitude, so
below the margin c + noise keeps the signs of both parts of c (a
nonzero exact sum of two doubles never rounds to zero).  Every noise
word is still drawn, so the stream layout is unchanged.

SNR convention.  With "zf-normalized" (the default) each trial rescales
the drawn channel so the zero-forcing block has exactly unit energy.
The designed block then spends its unit energy budget against a noise
variance of 1/SNR, which gives the convention its meaning: a block with
no residual interference attains a per-user SINR equal to the SNR.
With "raw" the channel is used as drawn and SNR keeps only its nominal
reading 1/sigma^2.  The two zero-MUI baselines read the convention
differently.  The sumrate baseline sends the unit-energy zero-forcing
block over the trial's channel: it attains log2(1 + SNR) under
"zf-normalized" and is no longer calibrated under "raw".  The SER
baseline draws no channel and sends the symbols themselves over
additive noise, so under either convention it is the calibrated AWGN
curve of the closed-form QPSK expression.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import __version__, kpi
from .admm import ProblemSpec, _zero_forcing_targets, papr_cap, solve
from .signal_model import (
    ChannelRealization,
    SymbolBlock,
    chirp_reference,
    constellation_points,
    draw_channel,
    draw_symbols,
    snr_noise_variance,
)

SNR_CONVENTIONS = ("zf-normalized", "raw")

# counter words 1 and 3 of the per-trial streams (see _words)
_PURPOSE_CHANNEL = 1
_PURPOSE_SYMBOLS = 2
_PURPOSE_NOISE = 3
_SERIES_DESIGNED = 0
_SERIES_ZERO_MUI = 1
# base_seed is the Philox key, which holds 128 bits
_SEED_BITS = 128

# SER stopping rule: accumulate trials per point until enough errors or
# the symbol budget is spent
_MIN_ERRORS = 100
_MAX_SYMBOLS = 1_000_000

_GAMMA_GRID_DB = np.linspace(0.0, 10.0, 201)

# most rows (trials x grid points) designed as one solver stack.  A stack
# amortises numpy's per-call overhead over its rows, and the cap bounds
# the memory a sweep holds at once.  256 was chosen before the fused
# iteration.  With the full-width loop, 1,024 ccdf-shaped rows on 4 x 16
# blocks (100 iterations, one pinned core of a 2-vCPU Xeon VM, median of
# 11 interleaved rounds) take 3.4 us per row-iteration in 64-row stacks
# against 4.1 us in 256-row stacks, so the value awaits re-tuning
# (ROADMAP item 5).
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the three experiment drivers.

    Each driver sweeps its own grids and holds the others fixed; a grid
    held fixed must have exactly one entry, or the driver raises
    ValueError before any solve: run_ccdf sweeps (rho_grid, eta_grid)
    at the one epsilon; run_sumrate sweeps (epsilon_grid, eta_grid) at
    the one rho and SNR; run_ser sweeps snr_grid_db at the one rho, eta
    and epsilon.  run_ccdf does not read snr_grid_db, and run_ser does
    not read n_trials: its stopping rule fixes its length.

    eta_grid holds linear PAPR caps, as ProblemSpec.eta does; each is
    checked and clamped once, by :func:`~isacwave.admm.papr_cap`.
    base_seed is the key of every sweep stream, so it must be < 2**128.
    """

    n_antennas: int
    k_users: int
    n_samples: int
    rho_grid: tuple
    eta_grid: tuple
    epsilon_grid: tuple
    snr_grid_db: tuple
    n_trials: int = 200
    base_seed: int = 0
    constellation: str = "qpsk"
    m_iter: int = 2000
    snr_convention: str = "zf-normalized"

    def __post_init__(self) -> None:
        for name, least in (("n_antennas", 1), ("k_users", 1),
                            ("n_samples", 1), ("n_trials", 1), ("m_iter", 1),
                            ("base_seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)
                    or value < least):
                raise ValueError(f"{name} must be an integer >= {least}")
            object.__setattr__(self, name, int(value))
        if self.base_seed >= 2 ** _SEED_BITS:
            raise ValueError(f"base_seed must be < 2**{_SEED_BITS}, the "
                             "width of the Philox key it becomes")
        if self.k_users > self.n_antennas:
            raise ValueError(
                f"need k_users <= n_antennas, got K={self.k_users} > "
                f"N={self.n_antennas}"
            )
        for name in ("rho_grid", "eta_grid", "epsilon_grid",
                     "snr_grid_db"):
            grid = tuple(float(g) for g in getattr(self, name))
            if not grid:
                raise ValueError(f"{name} must be nonempty")
            if not all(map(math.isfinite, grid)):
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, grid)
        if not all(r > 0 for r in self.rho_grid):
            raise ValueError("rho_grid entries must be finite and > 0")
        if not all(e >= 0 for e in self.epsilon_grid):
            raise ValueError("epsilon_grid entries must be finite and >= 0")
        n_total = self.n_antennas * self.n_samples
        object.__setattr__(self, "eta_grid", tuple(
            papr_cap(eta, n_total) for eta in self.eta_grid))
        for snr_db in self.snr_grid_db:
            snr_noise_variance(snr_db)
        constellation_points(self.constellation)  # rejects unknown names
        object.__setattr__(self, "constellation", self.constellation.lower())
        if self.snr_convention not in SNR_CONVENTIONS:
            raise ValueError(
                f"snr_convention must be one of {SNR_CONVENTIONS}"
            )

    def as_dict(self) -> dict:
        plain = asdict(self)
        for name in ("rho_grid", "eta_grid", "epsilon_grid",
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


# --- per-trial streams -------------------------------------------------------
#
# Philox4x64 (Salmon, Moraes, Dror & Shaw, SC'11) maps each counter to a
# block of four words under its key, one-to-one, so a trial's words sit
# at a fixed counter and need no hash.  The module docstring states the
# counter layout.

_BLOCK_WORDS = 4
_UNIFORM_STEP = 2.0 ** -53  # 53-bit uniforms from a word's top bits


def _words(base_seed: int, trials: range, n_words: int, purpose: int,
           point: int = 0, series: int = 0) -> np.ndarray:
    """The first ``n_words`` words of each trial's stream for one
    (purpose, point, series), as a (len(trials), n_words) uint64 array.

    ``trials`` is a contiguous range of trial indices.
    """
    blocks = -(-n_words // _BLOCK_WORDS)
    counter = (series << 192 | point << 128 | purpose << 64
               | trials.start * blocks)
    # Philox steps its counter before it makes a block, so it starts one
    # below the first; purpose >= 1 keeps that counter >= 0
    generator = np.random.Philox(key=base_seed, counter=counter - 1)
    words = generator.random_raw(len(trials) * blocks * _BLOCK_WORDS)
    return words.reshape(len(trials), -1)[:, :n_words]


def _radii(words: np.ndarray) -> np.ndarray:
    """Box-Muller radii sqrt(-ln u1) of the 53-bit uniforms u1 in (0, 1]
    from ``words``."""
    # every transform reads a new contiguous array: numpy's log of a
    # strided view can differ in the last bit from its contiguous log
    return np.sqrt(-np.log(((words >> 11) + 1) * _UNIFORM_STEP))


def _polar(radius: np.ndarray, words: np.ndarray) -> np.ndarray:
    """radius exp(2 pi j u2), with u2 in [0, 1) the 53-bit uniforms from
    ``words``, which has the shape of ``radius``."""
    angle = (words >> 11) * (2.0 * math.pi * _UNIFORM_STEP)
    normals = np.empty(radius.shape, dtype=complex)
    normals.real = radius * np.cos(angle)
    normals.imag = radius * np.sin(angle)
    return normals


def _complex_normals(words: np.ndarray) -> np.ndarray:
    """Unit-variance complex normals from rows of 2n words, n per row.

    Box and Muller's transform of the 53-bit uniforms u1 in (0, 1], from
    a row's first n words, and u2 in [0, 1), from its last n:
    sqrt(-ln u1) exp(2 pi j u2), whose real and imaginary parts are
    Box and Muller's two independent standard normals over sqrt(2).
    """
    n = words.shape[1] // 2
    return _polar(_radii(words[:, :n]), words[:, n:])


def _channels(cfg: ExperimentConfig, trials: range) -> np.ndarray:
    """The channel of each trial as drawn, (T, K, N), i.i.d.
    unit-variance complex normal entries."""
    shape = (cfg.k_users, cfg.n_antennas)
    words = _words(cfg.base_seed, trials, 2 * math.prod(shape),
                   _PURPOSE_CHANNEL)
    return _complex_normals(words).reshape(len(trials), *shape)


def _symbols(cfg: ExperimentConfig, trials: range) -> np.ndarray:
    """The sent symbols of each trial, (T, K, L), i.i.d. uniform over the
    constellation."""
    points = constellation_points(cfg.constellation)
    shape = (cfg.k_users, cfg.n_samples)
    words = _words(cfg.base_seed, trials, math.prod(shape), _PURPOSE_SYMBOLS)
    # both constellations have a power-of-two size, so the top bits of a
    # word index a point uniformly
    index = words >> (64 - (len(points).bit_length() - 1))
    return points[index].reshape(len(trials), *shape)


def _normalized(channels: np.ndarray, symbols: np.ndarray,
                snr_convention: str) -> np.ndarray:
    """A stack of (K, N) channels under ``snr_convention``: as drawn
    under "raw", and each rescaled under "zf-normalized" so that its
    zero-forcing block for its (K, L) symbols has unit energy."""
    if snr_convention == "zf-normalized":
        scales = _norms(_zero_forcing_targets(channels, symbols))
        channels = channels * scales[:, None, None]
    return channels


def _norms(vectors: np.ndarray) -> np.ndarray:
    """The norm of each row of a complex (T, n) array, as np.linalg.norm
    takes it of the row alone: from the dot products of its real and of
    its imaginary parts."""
    return np.sqrt(np.vecdot(vectors.real, vectors.real)
                   + np.vecdot(vectors.imag, vectors.imag))


def draw_instance(n_antennas: int, k_users: int, n_samples: int,
                  constellation: str, snr_convention: str, channel_seed: int,
                  symbol_seed: int):
    """Draw one (channel, symbols) design instance from two seeds.

    The instance holds only what the design reads: the receiver noise
    enters when a finished block is evaluated.  Under the zf-normalized
    convention the channel is rescaled so the zero-forcing block has
    unit energy; the rescale factor is determined by the draw itself,
    keeping the stream layout identical across conventions.
    """
    if snr_convention not in SNR_CONVENTIONS:
        raise ValueError(f"snr_convention must be one of {SNR_CONVENTIONS}")
    channel = draw_channel(k_users, n_antennas, rng_seed=channel_seed)
    symbols = draw_symbols(k_users, n_samples, constellation,
                           rng_seed=symbol_seed)
    [matrix] = _normalized(channel.matrix[None], symbols.symbols[None],
                           snr_convention)
    return ChannelRealization(matrix), symbols


def _unvec(vecs: np.ndarray, n_antennas: int) -> np.ndarray:
    """The (..., N, L) blocks of the column-major vecs on the last axis,
    each laid out in memory as signal_model.unvec lays out one block, so
    that a product with a stack of them equals each block's bitwise."""
    return vecs.reshape(*vecs.shape[:-1], -1, n_antennas).swapaxes(-1, -2)


def _trial_draws(cfg: ExperimentConfig, trials: range) -> tuple:
    """The (T, K, N) channels and (T, K, L) symbols of a chunk of trials,
    the channels rescaled under cfg.snr_convention."""
    channels, symbols = _channels(cfg, trials), _symbols(cfg, trials)
    return _normalized(channels, symbols, cfg.snr_convention), symbols


def _solve_trials(cfg: ExperimentConfig, grid, early_stop: bool, measure,
                  trials: range) -> np.ndarray:
    """Draw a chunk of trials once and design each at every entry of
    ``grid``, a sequence of (epsilon, eta, rho), all as one stack.

    Every design keeps its rho_grid entry as its penalty weight for the
    whole solve.  With ``early_stop`` a design ends once it is feasible
    and certified optimal; without it every design runs the m_iter
    budget.  Returns ``measure(channels, symbols, blocks)`` of the
    chunk's (T, K, N) channels, (T, K, L) symbols and (T, G, N, L)
    designed blocks, trial t's design at grid entry g at [t, g]: an
    array whose first axis holds the trials.
    """
    channels, symbols = _trial_draws(cfg, trials)
    reference = chirp_reference(cfg.n_antennas, cfg.n_samples)
    # one instance per trial, shared by its grid rows, so that solve
    # computes one zero-forcing target per trial
    instances = [(ChannelRealization(matrix), SymbolBlock(block))
                 for matrix, block in zip(channels, symbols)]
    results = solve([
        ProblemSpec(
            channel=channel,
            symbols=block,
            reference=reference,
            epsilon=epsilon,
            eta=eta,
            rho=rho,
            max_iterations=cfg.m_iter,
            # the ccdf experiment compares penalty weights, which only
            # holds when each rho_grid entry stays the weight of the
            # whole solve
            rho_schedule="fixed",
            early_stop=early_stop,
        )
        for channel, block in instances
        for epsilon, eta, rho in grid
    ])
    vecs = np.stack([result.waveform.vec for result in results])
    blocks = _unvec(vecs.reshape(len(trials), len(grid), -1), cfg.n_antennas)
    return measure(channels, symbols, blocks)


def _worker_count(threads) -> int:
    """``threads`` as an int, rejecting a value that is not an integer
    >= 1 or is a bool."""
    if (isinstance(threads, bool) or not isinstance(threads, numbers.Integral)
            or threads < 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    return int(threads)


def _map_trials(fn, trials: range, threads: int,
                grid_size: int = 1) -> np.ndarray:
    """The arrays of ``fn``, which maps a chunk of trial indices to an
    array whose first axis holds the chunk's trials, designing each
    trial at ``grid_size`` grid points, concatenated in trial order.

    Each call gets a contiguous chunk of whole trials, a range, at most
    _CHUNK_ROWS rows (trials x grid points) but at least one trial, one
    or more chunks per worker process, and the pool starts no more
    workers than there are chunks.  The result does not depend on the
    chunking.
    """
    threads = _worker_count(threads)
    size = max(1, min(_CHUNK_ROWS // grid_size,
                      math.ceil(len(trials) / threads)))
    chunks = [trials[i:i + size] for i in range(0, len(trials), size)]
    workers = min(threads, len(chunks))
    if workers <= 1:
        return np.concatenate([fn(chunk) for chunk in chunks])
    # numpy imports numpy.random on first use; imported here, it is
    # inherited by every forked worker instead of imported by each
    import numpy.random  # noqa: F401
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(fn, chunks)))


def detect_qpsk(received) -> np.ndarray:
    """Indices of the nearest QPSK points, ties to the lowest index.

    The points (+-1 +-1j)/sqrt(2) are ordered by the signs of (Re, Im),
    so the nearest is read off the quadrant; a zero part lies on a tie
    and takes the point with the lower index, the positive one.
    """
    y = np.asarray(received, dtype=complex)
    return 2 * (y.real < 0) + (y.imag < 0)


# what a grid holds, for the message that rejects a second entry
_GRID_QUANTITIES = {"rho_grid": "rho", "eta_grid": "PAPR cap",
                    "epsilon_grid": "epsilon", "snr_grid_db": "SNR"}


def _fixed_entries(cfg: ExperimentConfig, *names) -> list:
    """The one entry of each grid in ``names``, the grids the calling
    driver holds fixed; a second entry would never be read, so it is
    rejected."""
    for name in names:
        if len(getattr(cfg, name)) != 1:
            raise ValueError(f"{name} must hold exactly one entry: this "
                             f"sweep runs at one {_GRID_QUANTITIES[name]}")
    return [getattr(cfg, name)[0] for name in names]


def _labelled(pairs) -> dict:
    """Dict of (series label, grid entry) pairs, rejecting a repeated
    label: grid entries that print alike would overwrite each other's
    series after both were solved."""
    grid = {}
    for label, entry in pairs:
        if label in grid:
            raise ValueError(f"two grid entries share the series label "
                             f"{label!r}")
        grid[label] = entry
    return grid


# --- experiment 1: PAPR CCDF over (rho, eta) --------------------------------

def _papr_db(channels, symbols, blocks) -> np.ndarray:
    """The (T, G) PAPRs of a chunk's blocks, each of its column-major
    vec."""
    vecs = blocks.swapaxes(-1, -2).reshape(*blocks.shape[:2], -1)
    return kpi.stacked_papr_db(vecs)


def run_ccdf(cfg: ExperimentConfig, threads: int = 1) -> CurveTable:
    """CCDF of designed-block PAPR for every (rho, eta) pair.

    Uses the one entry of epsilon_grid as the similarity radius of every
    solve.  Each trial is drawn once and designed at every pair.
    """
    [epsilon] = _fixed_entries(cfg, "epsilon_grid")
    grid = _labelled((f"rho={rho:g},eta={10.0 * math.log10(eta):g}dB",
                      (epsilon, eta, rho))
                     for rho in cfg.rho_grid for eta in cfg.eta_grid)
    # the experiment compares penalty weights at one iteration budget
    fn = partial(_solve_trials, cfg, list(grid.values()), False, _papr_db)
    samples = _map_trials(fn, range(cfg.n_trials), threads, len(grid))
    series = {label: kpi.ccdf(samples[:, j], _GAMMA_GRID_DB)
              for j, label in enumerate(grid)}
    return CurveTable(
        axis_name="gamma_db",
        axis_values=_GAMMA_GRID_DB.copy(),
        series=series,
        metadata=_metadata(cfg, epsilon=epsilon, n_trials=cfg.n_trials),
    )


# --- experiment 2: per-user rate over (epsilon, eta) ------------------------

def _rates(noise_variance: float, channels, symbols, blocks) -> np.ndarray:
    """The (T, G) per-user rates log2(1 + SINR), averaged over the
    users, of a chunk's (T, G, N, L) blocks over their trials'
    channels."""
    sinr = kpi.sinr_per_user(channels[:, None], blocks, symbols[:, None],
                             noise_variance)
    return np.mean(np.log2(1.0 + sinr), axis=-1)


def _zero_mui_rate_trials(cfg: ExperimentConfig, noise_variance: float,
                          trials: range) -> np.ndarray:
    # each trial sends the unit-energy zero-forcing block of its channel
    channels, symbols = _trial_draws(cfg, trials)
    targets = _zero_forcing_targets(channels, symbols)
    blocks = _unvec(targets / _norms(targets)[:, None], cfg.n_antennas)
    return _rates(noise_variance, channels, symbols, blocks[:, None])[:, 0]


def run_sumrate(cfg: ExperimentConfig, threads: int = 1) -> CurveTable:
    """Trial-averaged per-user rate versus similarity radius.

    One series per eta, an "awgn_capacity" constant, and a "zero_mui"
    series transmitting the unit-energy zero-forcing block.  Requires a
    single SNR point and a single rho.
    """
    snr_db, rho = _fixed_entries(cfg, "snr_grid_db", "rho_grid")
    noise_variance = snr_noise_variance(snr_db)
    axis = np.array(cfg.epsilon_grid, dtype=float)
    trials = range(cfg.n_trials)

    def _sem(values) -> float:
        values = np.asarray(values)
        if values.size < 2:
            return 0.0
        return float(np.std(values, ddof=1) / math.sqrt(values.size))

    grid = _labelled((f"eta={eta:g}", eta) for eta in cfg.eta_grid)
    series = {}
    sems = {}
    for label, eta in grid.items():
        rates = np.empty(axis.size)
        errs = np.empty(axis.size)
        # one pool per grid point: perfbench pins 16 pool starts per
        # request until its revision (ROADMAP item 4)
        for j, epsilon in enumerate(axis):
            fn = partial(_solve_trials, cfg, [(float(epsilon), eta, rho)],
                         True, partial(_rates, noise_variance))
            per_trial = _map_trials(fn, trials, threads)[:, 0]
            rates[j] = np.mean(per_trial)
            errs[j] = _sem(per_trial)
        series[label] = rates
        sems[label] = [float(e) for e in errs]

    fn = partial(_zero_mui_rate_trials, cfg, noise_variance)
    zero_trials = _map_trials(fn, trials, threads)
    series["zero_mui"] = np.full(axis.size, float(np.mean(zero_trials)))
    sems["zero_mui"] = [_sem(zero_trials)] * axis.size
    series["awgn_capacity"] = np.full(
        axis.size, kpi.awgn_capacity_per_user(10.0 ** (snr_db / 10.0)))
    sems["awgn_capacity"] = [0.0] * axis.size
    return CurveTable(
        axis_name="epsilon",
        axis_values=axis,
        series=series,
        metadata=_metadata(cfg, rho=rho, snr_db=snr_db,
                           n_trials=cfg.n_trials, series_sem=sems),
    )


# --- experiment 3: SER over SNR with zero-MUI baseline ----------------------

def _ser_counts(cfg: ExperimentConfig, sigma2s: tuple,
                open_points: np.ndarray, trials: range,
                received_clean: np.ndarray, sent: np.ndarray,
                series: int) -> np.ndarray:
    """Symbol errors of a chunk of trials' blocks at every open SNR point.

    ``received_clean`` and ``sent`` hold the chunk's noiseless received
    blocks and sent symbols as (T, K, L) arrays, in the order of
    ``trials``.  Open point p of trial t adds noise from its own stream
    (t, p, series) to the noiseless block and counts detections that
    differ from the detected sent symbols.  Both blocks are detected
    once; at each point only a symbol whose noise bound sqrt(sigma2) *
    radius reaches its clean value's distance to the decision boundary
    gets its angle, its noise and a new decision, and every other symbol
    keeps the clean block's decision, which is exact (see "SER
    decisions" in the module docstring).  A point closed at batch start
    draws no noise and counts 0: ``_accumulate_ser`` never reads its
    count, and every point draws from its own stream, so skipping one
    leaves the others' noise unchanged.
    Returns a (T, P) array of counts.
    """
    transmitted = detect_qpsk(sent).reshape(len(trials), -1)
    clean = received_clean.reshape(len(trials), -1)
    decided = detect_qpsk(clean)
    # the distance of each clean value to the decision boundary, the axes
    margin = np.minimum(np.abs(clean.real), np.abs(clean.imag))
    size = clean.shape[1]
    counts = np.zeros((len(trials), len(sigma2s)), dtype=np.int64)
    for p in np.flatnonzero(open_points):
        words = _words(cfg.base_seed, trials, 2 * size, _PURPOSE_NOISE,
                       int(p), series)
        sd = math.sqrt(sigma2s[p])
        radius = _radii(words[:, :size])
        near = sd * radius >= margin
        detected = decided.copy()
        detected[near] = detect_qpsk(
            clean[near] + sd * _polar(radius[near], words[:, size:][near]))
        counts[:, p] = np.count_nonzero(detected != transmitted, axis=1)
    return counts


def _ser_designed_trials(cfg: ExperimentConfig, epsilon: float, eta: float,
                         rho: float, sigma2s: tuple, open_points: np.ndarray,
                         trials: range) -> np.ndarray:
    def counts(channels, symbols, blocks):
        # the noiseless received blocks H X
        return _ser_counts(cfg, sigma2s, open_points, trials,
                           channels @ blocks[:, 0], symbols, _SERIES_DESIGNED)

    return _solve_trials(cfg, [(epsilon, eta, rho)], True, counts, trials)


def _ser_zero_mui_trials(cfg: ExperimentConfig, sigma2s: tuple,
                         open_points: np.ndarray, trials: range) -> np.ndarray:
    # the baseline link receives the symbols themselves plus noise, what
    # the unit-energy zero-forcing block delivers under "zf-normalized";
    # no channel is drawn, so the series is the same under either
    # convention and only the symbol and noise streams are consumed
    sent = _symbols(cfg, trials)
    return _ser_counts(cfg, sigma2s, open_points, trials, sent, sent,
                       _SERIES_ZERO_MUI)


def _ser_batch(errors: np.ndarray, done: int, workers: int) -> int:
    """Trials in the next SER batch, after ``done`` trials that left
    the per-point ``errors``.

    The first batch is max(32, 16 * workers) trials, 16 for each worker.
    An open point has absorbed every trial so far, so the neediest is
    the one with the fewest errors; a later batch is the trials it is
    expected to still need, its missing errors times done / errors,
    plus 25% and rounded up, or ``done`` while it has no error, which
    doubles its trials.  Every batch holds at least the first's trials
    and at most _CHUNK_ROWS.  The constants were measured on the SER
    sweep to 10 dB at 50 iterations (CHANGES.md).
    """
    least = int(errors.min())
    need = done if least == 0 else -(-5 * (_MIN_ERRORS - least) * done
                                     // (4 * least))
    return min(max(32, 16 * workers, need), _CHUNK_ROWS)


def _accumulate_ser(chunk_fn, n_points: int, symbols_per_trial: int,
                    threads: int):
    """Per-point (errors, trials) under the SER stopping rule.

    ``chunk_fn(open_points, trials)`` maps the mask of points open at
    batch start and a chunk of trial indices to a (T, P) array, one row
    of per-point error counts per trial.  In trial order, an open point
    absorbs rows up to the first that brings its errors to _MIN_ERRORS;
    counts of points closed at batch start are never read.  The trial loop runs
    in batches sized by ``_ser_batch`` and ends at the symbol budget.
    Each row comes from its trial's own streams and a stacked design
    does not depend on its neighbours, so the batch sizes decide only
    how many rows are discarded, never the result.
    """
    workers = _worker_count(threads)
    errors = np.zeros(n_points, dtype=np.int64)
    trials = np.zeros(n_points, dtype=np.int64)
    cap = math.ceil(_MAX_SYMBOLS / symbols_per_trial)
    done = 0
    while done < cap and errors.min() < _MIN_ERRORS:
        end = min(done + _ser_batch(errors, done, workers), cap)
        rows = _map_trials(partial(chunk_fn, errors < _MIN_ERRORS),
                           range(done, end), workers)
        # a row is absorbed while the errors before it fall short, which
        # turns away every row of a point closed at batch start
        absorbed = errors + np.cumsum(rows, axis=0) - rows < _MIN_ERRORS
        errors += np.sum(rows, axis=0, where=absorbed)
        trials += np.count_nonzero(absorbed, axis=0)
        done = end
    return errors, trials


def run_ser(cfg: ExperimentConfig, threads: int = 1) -> CurveTable:
    """Symbol error rate of the designed block versus SNR.

    The "designed" series solves one instance per trial and reuses the
    block at every SNR point with independent noise; the "zero_mui"
    series transmits the symbols over noise alone.  Per point, trials
    accumulate until the error count or symbol budget is reached.
    """
    if cfg.constellation != "qpsk":
        raise ValueError("run_ser is defined for the qpsk constellation")
    sigma2s = tuple(map(snr_noise_variance, cfg.snr_grid_db))
    per_trial = cfg.k_users * cfg.n_samples
    epsilon, eta, rho = _fixed_entries(cfg, "epsilon_grid", "eta_grid",
                                       "rho_grid")

    series, stats = {}, {}
    for label, chunk_fn, workers in (
        ("designed",
         partial(_ser_designed_trials, cfg, epsilon, eta, rho, sigma2s),
         threads),
        # no solves, so pool overhead would dominate
        ("zero_mui", partial(_ser_zero_mui_trials, cfg, sigma2s), 1),
    ):
        errors, trials = _accumulate_ser(chunk_fn, len(sigma2s), per_trial,
                                         workers)
        symbols = trials * per_trial
        series[label] = errors / symbols
        stats[label] = {"errors": errors.tolist(),
                        "symbols": symbols.tolist(),
                        "trials": trials.tolist()}
    return CurveTable(
        axis_name="snr_db",
        axis_values=np.array(cfg.snr_grid_db, dtype=float),
        series=series,
        metadata=_metadata(cfg, epsilon=epsilon, eta=eta,
                           rho=rho, series_stats=stats),
    )


def analytic_qpsk_ser(snr_linear: float) -> float:
    """Closed-form QPSK symbol error rate over the calibrated channel."""
    q = 0.5 * math.erfc(math.sqrt(snr_linear) / math.sqrt(2.0))
    return 2.0 * q - q * q
