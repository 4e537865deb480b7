"""Seeded experiment harness: PAPR statistics, rate trade-offs, link SER.

Every experiment draws independent (channel, symbol) trials, designs one
block per trial and grid point with the splitting solver, and reduces
the results into a CurveTable of named series over a fixed axis.  The
designs are solved in stacks of up to 256 rows (trials x grid points),
at least one stack per worker process; a ccdf sweep draws each trial
once and designs it at every (rho, eta) point within one stack, while
the rate and SER sweeps stack one grid point at a time.  The rate and
SER designs stop once feasible and certified optimal; the ccdf designs
run the whole m_iter budget, since that experiment compares penalty
weights at one budget.  Before it starts a worker pool, the parent
imports numpy.random (numpy imports it on first use), so the forked
workers inherit it instead of each importing it.  All randomness
flows through per-trial streams keyed by (base_seed, trial, purpose),
and a stacked design does not depend on its neighbours, so a table is
bitwise reproducible and invariant to the number of worker processes.
A noise key maps exactly to the stream of numpy's
``default_rng(SeedSequence(key))``.  A channel or symbol key is hashed
twice: it maps to ``default_rng(seed)`` with the one-int seed
``int(SeedSequence(key).generate_state(1, np.uint64)[0])``, which
default_rng hashes again.  The streams of a chunk of trials are derived
together, in one vectorised pass of SeedSequence's hash, not one
SeedSequence per stream.

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
from .admm import ProblemSpec, papr_cap, solve, zero_forcing_target
from .signal_model import (
    ChannelRealization,
    chirp_reference,
    constellation_points,
    draw_channel,
    draw_symbols,
    snr_noise_variance,
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

# most rows (trials x grid points) designed as one solver stack.  A stack
# amortises numpy's per-call overhead over its rows, and the cap bounds
# the memory a sweep holds at once.  256 was chosen before the fused
# iteration; on 4 x 16 blocks 64 rows now measure 7-15% cheaper per row
# (3.3-3.8 against 3.9-4.1 us per row-iteration, ROADMAP item 2), so
# the value awaits re-tuning there.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the three experiment drivers.

    Each driver sweeps its own grids and holds the others fixed; a grid
    held fixed must have exactly one entry, or the driver raises
    ValueError before any solve: run_ccdf sweeps (rho_grid, eta_grid)
    at the one epsilon; run_sumrate sweeps (epsilon_grid, eta_grid) at
    the one rho and SNR; run_ser sweeps snr_grid_db at the one rho, eta
    and epsilon.  run_ccdf does not read snr_grid_db.

    eta_grid holds linear PAPR caps, as ProblemSpec.eta does; each is
    checked and clamped once, by :func:`~isacwave.admm.papr_cap`.
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
# A stream key is a tuple of non-negative ints.  A noise key names the
# generator np.random.default_rng(np.random.SeedSequence(key)); a channel
# or symbol key names the one-int seed that SeedSequence(key) generates,
# which the draw hands to default_rng.  numpy derives a generator from
# a SeedSequence with O'Neill's seed_seq hash (PCG, HMC-CS-2014-0905):
# the key's uint32 words are mixed into a pool of four words, the pool is
# hashed out into PCG64's initial state and stream id, and PCG64 seeds
# itself from those with two steps of its LCG.  The hash is fixed uint32
# arithmetic, so it runs here over a whole chunk of keys at once and
# gives the same bits.

_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(keys: list) -> tuple:
    """The uint32 words SeedSequence reads from each of equally long
    keys, zero-padded to at least the pool size, and each key's count.

    Every int becomes its little-endian 32-bit words, at least one, so
    an int >= 2**32 spans several.
    """
    ints = np.array(keys, dtype=object).reshape(len(keys), -1)
    bits = max(int(ints.max()).bit_length(), 1)
    parts = [ints >> shift for shift in range(0, bits, 32)]
    words = np.stack([(part & _MASK32).astype(np.uint32) for part in parts],
                     axis=-1).reshape(len(keys), -1)
    # an int has words up to its highest nonzero one; the words past it
    # are 0 and belong to no key
    present = np.stack([np.ones(ints.shape, dtype=bool)]
                       + [part != 0 for part in parts[1:]],
                       axis=-1).reshape(len(keys), -1)
    lengths = np.count_nonzero(present, axis=1)
    order = np.argsort(~present, axis=1, kind="stable")[:, :lengths.max()]
    entropy = np.zeros((len(keys), max(_POOL_SIZE, order.shape[1])),
                       dtype=np.uint32)
    entropy[:, :order.shape[1]] = np.take_along_axis(words, order, axis=1)
    return entropy, lengths


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n: the running constant of
    seed_seq's hashes, which steps once per word hashed."""
    constants = [init]
    for _ in range(n - 1):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)


def _hash(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """seed_seq's hash of uint32 words, the k-th word (last axis) xored
    with constants[k] and multiplied by constants[k + 1]."""
    value = (value ^ constants[:-1]) * constants[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _seed_states(keys: list, n_words: int) -> np.ndarray:
    """``SeedSequence(key).generate_state(n_words)`` of every key, as one
    (len(keys), n_words) uint32 array."""
    if not keys:
        return np.empty((0, n_words), dtype=np.uint32)
    entropy, lengths = _entropy_words(keys)
    # hashmix runs once per pool word, once per ordered pair of pool
    # words and once per (word past the pool, pool word)
    extra = entropy.shape[1] - _POOL_SIZE
    constants = _hash_constants(
        _INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra + 1)
    pool = _hash(entropy[:, :_POOL_SIZE], constants[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    # each pool word is mixed into the three others in turn; it does not
    # change while it is the source
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None],
                                                constants[k:k + len(dst) + 1]))
        k += len(dst)
    # each word past the pool is mixed into every pool word; a key that
    # has no such word keeps its pool
    for src in range(_POOL_SIZE, entropy.shape[1]):
        mixed = _mix(pool, _hash(entropy[:, src, None],
                                 constants[k:k + _POOL_SIZE + 1]))
        pool = np.where((lengths > src)[:, None], mixed, pool)
        k += _POOL_SIZE
    words = pool[:, np.arange(n_words) % _POOL_SIZE]
    return _hash(words, _hash_constants(_INIT_B, _MULT_B, n_words + 1))


def _stream_seeds(keys: list) -> list:
    """``int(SeedSequence(key).generate_state(1, np.uint64)[0])`` of every
    key: the one-int seed of a stream drawn through ``default_rng(seed)``."""
    states = _seed_states(keys, 2).astype("<u4", order="C")
    return states.view("<u8")[:, 0].tolist()


def _streams(keys: list):
    """Yield, for each of equally long keys in turn, a Generator in the
    state of ``np.random.default_rng(np.random.SeedSequence(key))``.

    The keys are hashed together in one pass.  One Generator is made per
    call and set to each key's state in turn, so a key's draws must be
    taken before the next key is yielded.
    """
    words = (_seed_states(keys, 8).astype("<u4", order="C").view("<u8")
             .tolist())
    rng = np.random.Generator(np.random.PCG64(0))
    for state_hi, state_lo, seq_hi, seq_lo in words:
        # PCG64 seeding: inc = 2 * seq + 1, then two LCG steps from 0
        # with the initial state added in between
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = (((state_hi << 64 | state_lo) + inc) * _PCG64_MULT
                 + inc) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


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
    if snr_convention == "zf-normalized":
        scale = float(np.linalg.norm(zero_forcing_target(channel, symbols)))
        channel = ChannelRealization(channel.matrix * scale)
    return channel, symbols


def _trial_instances(cfg: ExperimentConfig, trials) -> list:
    """The instance of each trial, on that trial's streams.

    The channel and the symbols of trial t are drawn from
    ``default_rng(seed)`` at the one-int seed
    ``int(SeedSequence((base_seed, t, purpose)).generate_state(1,
    np.uint64)[0])`` of purposes 1 and 2; default_rng hashes that seed
    into a SeedSequence again.
    """
    seeds = _stream_seeds([(cfg.base_seed, trial, purpose) for trial in trials
                           for purpose in (_PURPOSE_CHANNEL,
                                           _PURPOSE_SYMBOLS)])
    return [
        draw_instance(cfg.n_antennas, cfg.k_users, cfg.n_samples,
                      cfg.constellation, cfg.snr_convention, channel_seed,
                      symbol_seed)
        for channel_seed, symbol_seed in zip(seeds[::2], seeds[1::2])
    ]


def _solve_trials(cfg: ExperimentConfig, grid, early_stop: bool, measure,
                  trials) -> list:
    """Draw a chunk of trials once and design each at every entry of
    ``grid``, a sequence of (epsilon, eta, rho), all as one stack.

    Every design keeps its rho_grid entry as its penalty weight for the
    whole solve.  With ``early_stop`` a design ends once it is feasible
    and certified optimal; without it every design runs the m_iter
    budget.  Returns, per trial, ``measure(channel, symbols,
    SolveResult)`` of its design at each grid entry, in grid order.
    """
    instances = _trial_instances(cfg, trials)
    reference = chirp_reference(cfg.n_antennas, cfg.n_samples)
    results = iter(solve([
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
            early_stop=early_stop,
        )
        for channel, symbols in instances
        for epsilon, eta, rho in grid
    ]))
    return [[measure(channel, symbols, next(results)) for _ in grid]
            for channel, symbols in instances]


def _worker_count(threads) -> int:
    """``threads`` as an int, rejecting a value that is not an integer
    >= 1 or is a bool."""
    if (isinstance(threads, bool) or not isinstance(threads, numbers.Integral)
            or threads < 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    return int(threads)


def _map_trials(fn, trials, threads: int, grid_size: int = 1) -> list:
    """Per-trial results of ``fn``, which maps a chunk of trial indices
    to one result per trial, designing each trial at ``grid_size`` grid
    points.

    Each call gets a contiguous chunk of whole trials, at most
    _CHUNK_ROWS rows (trials x grid points) but at least one trial, one
    or more chunks per worker process, and the pool starts no more
    workers than there are chunks.  Results come back in trial order and
    do not depend on the chunking.
    """
    threads = _worker_count(threads)
    trials = list(trials)
    size = max(1, min(_CHUNK_ROWS // grid_size,
                      math.ceil(len(trials) / threads)))
    chunks = [trials[i:i + size] for i in range(0, len(trials), size)]
    workers = min(threads, len(chunks))
    if workers <= 1:
        return [row for chunk in chunks for row in fn(chunk)]
    # numpy imports numpy.random on first use; imported here, it is
    # inherited by every forked worker instead of imported by each
    import numpy.random  # noqa: F401
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(fn, chunks) for row in rows]


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

def _papr_db(channel, symbols, result) -> float:
    return kpi.papr_db(result.waveform.vec)


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
    samples = np.array(_map_trials(fn, range(cfg.n_trials), threads,
                                   len(grid)))
    series = {label: kpi.ccdf(samples[:, j], _GAMMA_GRID_DB)
              for j, label in enumerate(grid)}
    return CurveTable(
        axis_name="gamma_db",
        axis_values=_GAMMA_GRID_DB.copy(),
        series=series,
        metadata=_metadata(cfg, epsilon=epsilon, n_trials=cfg.n_trials),
    )


# --- experiment 2: per-user rate over (epsilon, eta) ------------------------

def _rate_from_block(channel, block, symbols, noise_variance: float) -> float:
    sinr = kpi.sinr_per_user(channel, block, symbols, noise_variance)
    return float(np.mean(np.log2(1.0 + sinr)))


def _designed_rate(noise_variance: float, channel, symbols, result) -> float:
    return _rate_from_block(channel, result.waveform.entries, symbols,
                            noise_variance)


def _zero_mui_rate_trials(cfg: ExperimentConfig, noise_variance: float,
                          trials) -> list:
    rates = []
    for channel, symbols in _trial_instances(cfg, trials):
        target = zero_forcing_target(channel, symbols)
        target = unvec(target / np.linalg.norm(target), cfg.n_antennas)
        rates.append(_rate_from_block(channel, target, symbols,
                                      noise_variance))
    return rates


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
        # request until its revision (ROADMAP item 1)
        for j, epsilon in enumerate(axis):
            fn = partial(_solve_trials, cfg, [(float(epsilon), eta, rho)],
                         True, partial(_designed_rate, noise_variance))
            per_trial = [rate for [rate] in _map_trials(fn, trials, threads)]
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
                open_points: np.ndarray, trials, received_clean: np.ndarray,
                sent: np.ndarray, series: int) -> np.ndarray:
    """Symbol errors of a chunk of trials' blocks at every open SNR point.

    ``received_clean`` and ``sent`` hold the chunk's noiseless received
    blocks and sent symbols as (T, K, L) arrays, in the order of
    ``trials``.  Open point p of trial t adds noise from its own stream
    (t, p, series) to the noiseless block and counts detections that
    differ from the detected sent symbols.  A point closed at batch
    start builds no noise stream and counts 0: ``_accumulate_ser`` never
    reads its count, and every point draws from its own stream, so
    skipping one leaves the others' noise unchanged.
    Returns a (T, P) array of counts.
    """
    transmitted = detect_qpsk(sent)
    points = np.flatnonzero(open_points)
    shape = sent.shape[1:]
    # the real and imaginary parts, drawn in that order from one stream
    parts = np.empty((len(trials), points.size, 2) + shape)
    keys = [(cfg.base_seed, trial, _PURPOSE_NOISE, int(p), series)
            for trial in trials for p in points]
    for draw, rng in zip(parts.reshape((-1, 2) + shape), _streams(keys)):
        rng.standard_normal(out=draw)
    noise = parts[:, :, 0] + 1j * parts[:, :, 1]
    for j, p in enumerate(points):
        noise[:, j] *= math.sqrt(sigma2s[p] / 2.0)
    detected = detect_qpsk(received_clean[:, None] + noise)
    counts = np.zeros((len(trials), len(sigma2s)), dtype=np.int64)
    counts[:, points] = np.count_nonzero(detected != transmitted[:, None],
                                         axis=(2, 3))
    return counts


def _received_block(channel, symbols, result) -> tuple:
    """The noiseless received block H X and the sent symbols S."""
    return channel.matrix @ result.waveform.entries, symbols.symbols


def _ser_designed_trials(cfg: ExperimentConfig, epsilon: float, eta: float,
                         rho: float, sigma2s: tuple, open_points: np.ndarray,
                         trials) -> np.ndarray:
    rows = _solve_trials(cfg, [(epsilon, eta, rho)], True, _received_block,
                         trials)
    received, sent = map(np.stack, zip(*(block for [block] in rows)))
    return _ser_counts(cfg, sigma2s, open_points, trials, received, sent,
                       _SERIES_DESIGNED)


def _ser_zero_mui_trials(cfg: ExperimentConfig, sigma2s: tuple,
                         open_points: np.ndarray, trials) -> np.ndarray:
    # the baseline link receives the symbols themselves plus noise, what
    # the unit-energy zero-forcing block delivers under "zf-normalized";
    # no channel is drawn, so the series is the same under either
    # convention and only the symbol and noise streams are consumed
    seeds = _stream_seeds([(cfg.base_seed, trial, _PURPOSE_SYMBOLS)
                           for trial in trials])
    sent = np.stack([
        draw_symbols(cfg.k_users, cfg.n_samples, cfg.constellation,
                     rng_seed=rng).symbols
        for rng in _streams([(seed,) for seed in seeds])
    ])
    return _ser_counts(cfg, sigma2s, open_points, trials, sent, sent,
                       _SERIES_ZERO_MUI)


def _accumulate_ser(chunk_fn, n_points: int, symbols_per_trial: int,
                    threads: int):
    """Per-point (errors, trials) under the SER stopping rule.

    ``chunk_fn(open_points, trials)`` maps the mask of points open at
    batch start and a chunk of trial indices to one row of per-point
    error counts per trial.  In trial order, an open point absorbs rows
    up to the first that brings its errors to _MIN_ERRORS; counts of
    points closed at batch start are never read.  The trial loop ends at
    the symbol budget.
    """
    errors = np.zeros(n_points, dtype=np.int64)
    trials = np.zeros(n_points, dtype=np.int64)
    cap = math.ceil(_MAX_SYMBOLS / symbols_per_trial)
    batch = max(64, 16 * _worker_count(threads))
    for t in range(0, cap, batch):
        open_points = errors < _MIN_ERRORS
        if not open_points.any():
            break
        rows = np.array(_map_trials(partial(chunk_fn, open_points),
                                    range(t, min(t + batch, cap)), threads))
        # a row is absorbed while the errors before it fall short, which
        # turns away every row of a point closed at batch start
        absorbed = errors + np.cumsum(rows, axis=0) - rows < _MIN_ERRORS
        errors += np.sum(rows, axis=0, where=absorbed)
        trials += np.count_nonzero(absorbed, axis=0)
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
