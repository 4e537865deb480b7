"""Figure-of-merit contracts and invariants."""

import numpy as np
import pytest

from isacwave import kpi
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
