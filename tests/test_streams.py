"""The vectorised stream derivation of the experiment harness, held bit
for bit to numpy's own SeedSequence and PCG64 seeding."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from isacwave import montecarlo

# the edges of the uint32 word split: one word, the largest one-word int,
# the smallest two-word int, the largest u64, and ints of three and four
# words
EDGES = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96 + 1)
ints = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 ** 64 - 1))
# a chunk of equally long keys; with up to four ints of up to two words
# a key holds 1 to 8 words, past the four-word pool from five on
chunks = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[ints] * n), min_size=1, max_size=6))
# stage-1 seeds are u64; one below 2**32 is one word
seeds = st.one_of(st.sampled_from((0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)),
                  st.integers(0, 2 ** 64 - 1))


def _same_stream(rng, want):
    assert rng.bit_generator.state == want.bit_generator.state
    assert rng.standard_normal(5).tolist() == want.standard_normal(5).tolist()
    assert (rng.integers(0, 4, size=7).tolist()
            == want.integers(0, 4, size=7).tolist())


@settings(max_examples=200, deadline=None)
@given(keys=chunks)
# a noise key with a u64 base seed: six words
@example(keys=[(2 ** 64 - 1, 0, 3, 1, 0), (2 ** 32 + 5, 7, 3, 0, 1)])
@example(keys=[(0,), (2 ** 32 - 1,), (2 ** 32,), (2 ** 64 - 1,)])
def test_streams_are_numpys_seed_sequence_streams(keys):
    for key, rng in zip(keys, montecarlo._streams(keys), strict=True):
        _same_stream(rng, np.random.default_rng(np.random.SeedSequence(key)))


@settings(max_examples=200, deadline=None)
@given(keys=chunks)
@example(keys=[(2 ** 64 - 1, 5, 2), (2 ** 32 + 5, 6, 1)])
def test_stream_seeds_are_numpys_first_u64(keys):
    want = [int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])
            for key in keys]
    assert montecarlo._stream_seeds(keys) == want
    # the second stage: what default_rng makes of each one-int seed
    for seed, rng in zip(want, montecarlo._streams([(s,) for s in want]),
                         strict=True):
        _same_stream(rng, np.random.default_rng(seed))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(seeds, min_size=1, max_size=6))
def test_one_int_seeds_are_numpys_default_rng(values):
    for seed, rng in zip(values, montecarlo._streams([(v,) for v in values]),
                         strict=True):
        _same_stream(rng, np.random.default_rng(seed))


@settings(max_examples=100, deadline=None)
@given(keys=chunks, n_words=st.integers(1, 9))
def test_seed_states_are_numpys_generate_state(keys, n_words):
    want = [np.random.SeedSequence(key).generate_state(n_words).tolist()
            for key in keys]
    assert montecarlo._seed_states(keys, n_words).tolist() == want


def test_an_empty_chunk_yields_nothing():
    assert montecarlo._seed_states([], 8).shape == (0, 8)
    assert list(montecarlo._streams([])) == []
