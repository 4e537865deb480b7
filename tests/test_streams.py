"""The counter-based per-trial streams of the sweeps: Philox words at a
fixed counter per (trial, purpose, SNR point, series), turned into
symbols and Box-Muller normals a whole chunk of trials at a time."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from isacwave import montecarlo
from isacwave.montecarlo import ExperimentConfig
from isacwave.signal_model import constellation_points

PURPOSES = (montecarlo._PURPOSE_CHANNEL, montecarlo._PURPOSE_SYMBOLS,
            montecarlo._PURPOSE_NOISE)


def _cfg(**kw):
    fields = dict(n_antennas=4, k_users=2, n_samples=8, rho_grid=(1.0,),
                  eta_grid=(1.0,), epsilon_grid=(1.0,), snr_grid_db=(10.0,),
                  base_seed=20260818)
    fields.update(kw)
    return ExperimentConfig(**fields)


def _draws(cfg, trials, point, series):
    """Every purpose's draw for a range of trials, as raw bytes."""
    size = cfg.k_users * cfg.n_samples
    noise = montecarlo._complex_normals(montecarlo._words(
        cfg.base_seed, trials, 2 * size, montecarlo._PURPOSE_NOISE, point,
        series))
    return [montecarlo._channels(cfg, trials).tobytes(),
            montecarlo._symbols(cfg, trials).tobytes(), noise.tobytes()]


@st.composite
def _splits(draw):
    """A first trial and the sizes of the contiguous chunks that cover
    1-70 trials from it; no size is a multiple of 8, so chunks start at
    every offset of numpy's SIMD lanes."""
    left = draw(st.integers(1, 70))
    sizes = []
    while left:
        size = draw(st.integers(1, left))
        if size % 8 == 0:
            size -= 1
        sizes.append(size)
        left -= size
    return draw(st.integers(0, 10 ** 6)), sizes


@settings(max_examples=200, deadline=None)
@given(split=_splits(), k_users=st.integers(1, 3),
       extra_antennas=st.integers(0, 2), n_samples=st.integers(1, 9),
       constellation=st.sampled_from(["qpsk", "16qam"]),
       base_seed=st.integers(0, 2 ** 128 - 1), point=st.integers(0, 13),
       series=st.integers(0, 1))
def test_a_chunked_draw_is_the_whole_range_draw(split, k_users,
                                                extra_antennas, n_samples,
                                                constellation, base_seed,
                                                point, series):
    first, sizes = split
    cfg = _cfg(n_antennas=k_users + extra_antennas, k_users=k_users,
               n_samples=n_samples, constellation=constellation,
               base_seed=base_seed)
    whole = _draws(cfg, range(first, first + sum(sizes)), point, series)
    starts = np.cumsum([first] + sizes)
    chunks = [_draws(cfg, range(lo, hi), point, series)
              for lo, hi in zip(starts[:-1], starts[1:])]
    for purpose, want in enumerate(whole):
        assert b"".join(chunk[purpose] for chunk in chunks) == want


def test_the_layout_is_numpys_philox_at_the_documented_counter():
    # block b of trial t is the block Philox makes after counter
    # (t * B + b - 1, purpose, point, series) under the key's two u64
    # words, low word first; 6 words take B = 2 blocks
    base_seed = 2 ** 64 + 20260818
    key = [20260818, 1]
    for purpose, point, series in [(1, 0, 0), (2, 0, 0), (3, 5, 1)]:
        words = montecarlo._words(base_seed, range(3, 7), 6, purpose, point,
                                  series)
        for row, trial in zip(words, range(3, 7)):
            want = np.concatenate([
                np.random.Philox(key=key, counter=[
                    trial * 2 + block - 1, purpose, point, series])
                .random_raw(4) for block in (0, 1)])
            assert row.tolist() == want[:6].tolist()
    # and the words themselves, against a change of generator
    first = montecarlo._words(20260818, range(0, 1), 4,
                              montecarlo._PURPOSE_CHANNEL)
    assert first.tolist() == [[
        6527537650935014426, 824092618601018742, 13196063451214814042,
        2653399139520606688]]


def test_distinct_keys_give_distinct_words():
    rows = []
    for base_seed in (0, 1, 2 ** 64, 2 ** 128 - 1):
        for purpose in PURPOSES:
            for point in range(3):
                for series in range(2):
                    words = montecarlo._words(base_seed, range(0, 10), 6,
                                              purpose, point, series)
                    rows.extend(map(tuple, words.tolist()))
    assert len(rows) == 4 * 3 * 3 * 2 * 10
    assert len(set(rows)) == len(rows)


def test_normals_and_symbols_have_their_distributions():
    n = 10 ** 5
    words = montecarlo._words(7, range(0, n // 50), 50,
                              montecarlo._PURPOSE_NOISE)
    # the real and imaginary parts are standard normals over sqrt(2)
    z = montecarlo._complex_normals(words).reshape(-1)
    normals = math.sqrt(2.0) * np.concatenate([z.real, z.imag])
    assert normals.size == n
    # five standard errors of the mean and of the variance
    assert abs(normals.mean()) < 5.0 / math.sqrt(n)
    assert abs(normals.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    # the Kolmogorov-Smirnov distance, against its 0.1% critical value
    ordered = np.sort(normals)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(ordered / math.sqrt(2.0)))
    steps = np.arange(1, n + 1) / n
    distance = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n)))
    assert distance < 1.95 / math.sqrt(n)
    # every constellation point is drawn with its share, within five
    # standard deviations
    for constellation in ("qpsk", "16qam"):
        points = constellation_points(constellation)
        cfg = _cfg(n_samples=50, k_users=1, constellation=constellation)
        drawn = montecarlo._symbols(cfg, range(0, 200)).reshape(-1)
        counts = np.array([np.count_nonzero(drawn == p) for p in points])
        share = drawn.size / points.size
        assert counts.sum() == drawn.size
        assert np.all(abs(counts - share) < 5.0 * math.sqrt(share))
