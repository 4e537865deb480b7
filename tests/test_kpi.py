"""Figure-of-merit contracts and invariants."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isacwave import cli, kpi, montecarlo
from isacwave import signal_model as sm


def _identity_channel(k):
    return sm.ChannelRealization(np.eye(k, dtype=complex))


def test_mui_energy_zero_when_target_is_met_exactly():
    s = sm.draw_symbols(2, 8, "qpsk", rng_seed=1)
    # H = I and X = S deliver the symbols without interference.
    assert kpi.mui_energy(_identity_channel(2), s.symbols, s) == 0.0


def test_mui_energy_equals_squared_residual_norm():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    s = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    want = np.linalg.norm(h @ x - s) ** 2
    assert abs(kpi.mui_energy(h, x, s) - want) < 1e-12


def test_mui_energy_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="inconsistent shapes"):
        kpi.mui_energy(np.eye(2), np.ones((3, 4)), np.ones((2, 4)))


def test_sinr_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="inconsistent shapes"):
        kpi.sinr_per_user(np.eye(2), np.ones((2, 4)), np.ones((2, 5)), 0.1)


def test_sinr_equals_snr_when_interference_vanishes():
    # Zero interference and noise variance 0.1 give SINR exactly 10.
    s = sm.draw_symbols(2, 16, "qpsk", rng_seed=3)
    sinr = kpi.sinr_per_user(_identity_channel(2), s.symbols, s, 0.1)
    np.testing.assert_allclose(sinr, 10.0, rtol=1e-12)


def test_sinr_accounts_for_per_user_interference():
    k, l = 2, 4
    s = np.zeros((k, l), dtype=complex)
    x = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex)
    sinr = kpi.sinr_per_user(np.eye(k), x, s, 0.5)
    # user 0 sees interference energy 1/L = 0.25, user 1 sees none
    np.testing.assert_allclose(sinr, [1.0 / 0.75, 2.0], rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
       users=st.integers(1, 5), l=st.integers(1, 6),
       stack=st.lists(st.integers(1, 3), min_size=1, max_size=2))
@example(seed=0, n=3, users=3, l=1, stack=[2])
def test_sinr_of_a_stack_is_each_instances_bitwise(seed, n, users, l, stack):
    # K <= N, so K = N is included
    k = min(users, n)
    rng = np.random.default_rng(seed)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h = complex_normal(*stack, k, n)
    x = complex_normal(*stack, n, l)
    s = complex_normal(*stack, k, l)
    sinr = kpi.sinr_per_user(h, x, s, 0.1)
    assert sinr.shape == (*stack, k)
    for index in np.ndindex(*stack):
        np.testing.assert_array_equal(
            sinr[index], kpi.sinr_per_user(h[index], x[index], s[index], 0.1))


def test_sinr_of_a_square_stack_sums_each_users_samples():
    # with T = K = L = 2 a sum over the users would pass the shape checks
    h = np.stack([np.eye(2, dtype=complex)] * 2)
    x = np.zeros((2, 2, 2), dtype=complex)
    s = np.array([[[2, 0], [2, 0]], [[1, 1], [0, 0]]], dtype=complex)
    # per-user interference energies (2, 2) and (1, 0), plus noise 1
    np.testing.assert_array_equal(kpi.sinr_per_user(h, x, s, 1.0),
                                  [[1 / 3, 1 / 3], [1 / 2, 1]])


@pytest.mark.parametrize("x_shape,s_shape", [
    ((2, 3, 5), (2, 2, 5)),  # H's columns against X's rows
    ((2, 4, 5), (2, 3, 5)),  # H's rows against S's rows
    ((2, 4, 5), (2, 2, 6)),  # X's columns against S's columns
])
def test_sinr_of_a_stack_rejects_inconsistent_last_axes(x_shape, s_shape):
    with pytest.raises(ValueError, match="inconsistent shapes"):
        kpi.sinr_per_user(np.ones((2, 2, 4)), np.ones(x_shape),
                          np.ones(s_shape), 0.1)


def test_sinr_rejects_nonpositive_noise():
    s = sm.draw_symbols(2, 4, "qpsk", rng_seed=4)
    with pytest.raises(ValueError, match="noise_variance"):
        kpi.sinr_per_user(_identity_channel(2), s.symbols, s, 0.0)


def test_sum_rate_on_known_sinr_values():
    # log2(2) + log2(4) = 3 bits
    assert abs(kpi.sum_rate(np.array([1.0, 3.0])) - 3.0) < 1e-12


def test_sum_rate_monotone_in_each_user():
    rng = np.random.default_rng(5)
    for _ in range(25):
        sinr = rng.uniform(0, 20, size=4)
        bumped = sinr.copy()
        bumped[rng.integers(4)] += rng.uniform(0.1, 5)
        assert kpi.sum_rate(bumped) > kpi.sum_rate(sinr)


def test_sum_rate_rejects_negative_sinr():
    with pytest.raises(ValueError):
        kpi.sum_rate(np.array([1.0, -0.1]))


def test_awgn_capacity_matches_log2():
    assert abs(kpi.awgn_capacity_per_user(10.0) - np.log2(11.0)) < 1e-12
    assert kpi.awgn_capacity_per_user(0.0) == 0.0
    with pytest.raises(ValueError):
        kpi.awgn_capacity_per_user(-0.5)


def test_papr_of_flat_and_peaky_signals():
    assert kpi.papr(np.exp(1j * np.linspace(0, 3, 8))) == pytest.approx(1.0)
    # one active sample out of four: peak 1, mean 1/4
    assert kpi.papr(np.array([1.0, 0, 0, 0])) == pytest.approx(4.0)
    assert kpi.papr_db(np.array([1.0, 0, 0, 0])) == pytest.approx(10 * np.log10(4))


def test_papr_is_scale_invariant_and_bounded():
    rng = np.random.default_rng(6)
    for _ in range(30):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        p = kpi.papr(x)
        assert 1.0 <= p <= 32.0
        assert abs(kpi.papr(3.7 * x) - p) < 1e-9 * p


def test_papr_rejects_all_zero_input():
    with pytest.raises(ValueError, match="all-zero"):
        kpi.papr(np.zeros(4))


def _bits(values) -> np.ndarray:
    """The float64 values as their uint64 bit patterns."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _each_papr_db(vecs: np.ndarray) -> np.ndarray:
    """kpi.papr_db of each signal on the last axis, one call each."""
    return np.array([kpi.papr_db(vec) for vec in vecs.reshape(
        -1, vecs.shape[-1])]).reshape(vecs.shape[:-1])


@pytest.mark.parametrize("snr_convention", ["zf-normalized", "raw"])
@pytest.mark.parametrize("constellation", ["qpsk", "16qam"])
def test_stacked_papr_of_the_shipped_ccdf_blocks_is_each_blocks_bitwise(
        constellation, snr_convention):
    # the designed blocks of eight trials of the shipped sweep at every
    # (rho, eta) point.  A CCDF rounds the PAPRs onto its grid and would
    # not show a change in their last bits, so the bits are compared
    shipped = json.loads((Path(__file__).resolve().parent.parent / "configs"
                          / "ccdf.json").read_text())["experiment"]
    cfg = replace(
        cli._experiment_config(cli._resolve_section("experiment", shipped)),
        n_trials=8, constellation=constellation,
        snr_convention=snr_convention)
    grid = [(cfg.epsilon_grid[0], eta, rho)
            for rho in cfg.rho_grid for eta in cfg.eta_grid]
    blocks = montecarlo._solve_trials(
        cfg, grid, False, lambda channels, symbols, blocks: blocks,
        range(cfg.n_trials))
    vecs = blocks.swapaxes(-1, -2).reshape(*blocks.shape[:2], -1)
    want = _bits(_each_papr_db(vecs))
    np.testing.assert_array_equal(_bits(kpi.stacked_papr_db(vecs)), want)
    np.testing.assert_array_equal(
        _bits(montecarlo._papr_db(None, None, blocks)), want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       l=st.integers(1, 64),
       stack=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e150]))
@example(seed=0, n=4, l=64, stack=[3], scale=1.0)
def test_stacked_papr_is_each_signals_bitwise(seed, n, l, stack, scale):
    # N*L up to 384 samples: past 128 a sum is split in halves, and each
    # signal's must still be split as it is alone
    rng = np.random.default_rng(seed)
    shape = (*stack, n * l)
    vecs = scale * (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape))
    # some signals with a single active sample, PAPR N*L exactly
    vecs[..., :1, 1:] *= rng.integers(0, 2)
    got = kpi.stacked_papr_db(vecs)
    assert got.shape == tuple(stack)
    np.testing.assert_array_equal(_bits(got), _bits(_each_papr_db(vecs)))


def test_stacked_papr_rejects_a_stack_holding_an_all_zero_signal():
    vecs = np.ones((3, 8), dtype=complex)
    vecs[1] = 0.0
    with pytest.raises(ValueError, match="all-zero"):
        kpi.stacked_papr_db(vecs)


def test_similarity_distance_basic_values():
    ref = sm.chirp_reference(2, 4)
    assert kpi.similarity_distance(ref.vec, ref) == pytest.approx(0.0)
    # antipodal unit-energy blocks sit at distance 2
    assert kpi.similarity_distance(-ref.vec, ref) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        kpi.similarity_distance(np.ones(4), ref)


def test_similarity_distance_accepts_matrix_input():
    ref = sm.chirp_reference(2, 4)
    w = sm.Waveform(ref.entries)
    assert kpi.similarity_distance(w, ref) == pytest.approx(0.0)


def test_ccdf_strict_exceedance_and_bounds():
    samples = np.array([1.0, 2.0, 3.0])
    grid = np.array([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(kpi.ccdf(samples, grid), [1.0, 2 / 3, 1 / 3, 0.0])


def test_ccdf_monotone_nonincreasing_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        samples = rng.uniform(0, 10, size=200)
        grid = np.sort(rng.uniform(0, 10, size=50))
        values = kpi.ccdf(samples, grid)
        assert np.all(values[:-1] >= values[1:])
        assert np.all((values >= 0) & (values <= 1))


def test_ccdf_rejects_empty_samples():
    with pytest.raises(ValueError):
        kpi.ccdf(np.array([]), np.array([1.0]))


def test_build_report_is_consistent_with_individual_metrics():
    rng_seed = 8
    ch = sm.draw_channel(2, 4, rng_seed)
    s = sm.draw_symbols(2, 16, "qpsk", rng_seed + 1)
    ref = sm.chirp_reference(4, 16)
    w = sm.Waveform(ref.entries)
    report = kpi.build_report(ch, w, s, ref, 0.1)
    assert report.mui_energy == pytest.approx(kpi.mui_energy(ch, w, s))
    assert report.sum_rate == pytest.approx(sum(report.per_user_rate))
    assert report.sum_rate == pytest.approx(
        kpi.sum_rate(kpi.sinr_per_user(ch, w, s, 0.1))
    )
    assert report.papr_linear == pytest.approx(1.0)
    assert report.similarity_distance == pytest.approx(0.0)
    assert len(report.per_user_sinr) == 2
    # serializes to plain types for the CLI
    d = report.as_dict()
    assert isinstance(d["per_user_sinr"], tuple)
