"""Signal-object contracts: geometry, draws, chirp, and lifting."""

import numpy as np
import pytest

from isacwave import signal_model as sm


def test_draw_channel_rejects_bad_geometry():
    with pytest.raises(ValueError, match="n_antennas"):
        sm.draw_channel(2, 0, rng_seed=1)


def test_draw_channel_is_deterministic_in_the_seed():
    a = sm.draw_channel(2, 4, rng_seed=123)
    b = sm.draw_channel(2, 4, rng_seed=123)
    c = sm.draw_channel(2, 4, rng_seed=124)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


@pytest.mark.parametrize("k,n,seed", [(1, 1, 0), (2, 4, 7), (3, 5, 2 ** 40),
                                      (4, 4, 123)])
def test_draw_channel_stream_layout(k, n, seed):
    # the real parts of every entry, row by row, then the imaginary parts;
    # a change here would move every draw of every experiment
    g = np.random.default_rng(seed)
    want = (g.standard_normal((k, n))
            + 1j * g.standard_normal((k, n))) / np.sqrt(2.0)
    np.testing.assert_array_equal(sm.draw_channel(k, n, rng_seed=seed).matrix,
                                  want)


def test_draw_channel_entries_have_unit_variance():
    # Pool 1e5 scalar entries; the empirical per-entry variance of a
    # unit-variance complex normal then lands within 0.02 of 1.
    total = 0.0
    count = 0
    for seed in range(125):
        h = sm.draw_channel(100, 8, rng_seed=seed).matrix
        total += np.sum(np.abs(h) ** 2)
        count += h.size
    assert count == 100_000
    assert abs(total / count - 1.0) < 0.02


def test_draw_channel_shape():
    ch = sm.draw_channel(3, 5, rng_seed=7)
    assert ch.matrix.shape == (3, 5)
    assert ch.k_users == 3 and ch.n_antennas == 5


def test_channel_realization_validation():
    with pytest.raises(ValueError):
        sm.ChannelRealization(np.ones(3))  # not 2-D
    with pytest.raises(ValueError):
        sm.ChannelRealization(np.array([[np.nan + 0j, 0], [0, 1]]))


def test_qpsk_points_are_the_four_diagonal_unit_symbols():
    pts = sm.constellation_points("qpsk")
    want = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
    got = {complex(round(p.real * np.sqrt(2)), round(p.imag * np.sqrt(2))) for p in pts}
    assert got == want
    np.testing.assert_allclose(np.abs(pts), 1.0, atol=1e-15)


def test_16qam_has_unit_average_energy():
    pts = sm.constellation_points("16qam")
    assert len(pts) == 16
    assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12


def test_unknown_constellation_is_rejected():
    with pytest.raises(ValueError, match="unknown constellation"):
        sm.constellation_points("8psk")


def test_draw_symbols_qpsk_all_points_unit_modulus():
    block = sm.draw_symbols(2, 50, "qpsk", rng_seed=11)
    assert block.symbols.shape == (2, 50)
    np.testing.assert_allclose(np.abs(block.symbols), 1.0, atol=1e-12)


def test_draw_symbols_16qam_mean_power_close_to_one():
    # 1e6 pooled draws: the block average power sits within 0.01 of 1.
    block = sm.draw_symbols(1000, 1000, "16QAM", rng_seed=3)
    assert abs(np.mean(np.abs(block.symbols) ** 2) - 1.0) < 0.01


def test_draw_symbols_is_deterministic_in_the_seed():
    a = sm.draw_symbols(3, 7, "qpsk", rng_seed=42)
    b = sm.draw_symbols(3, 7, "qpsk", rng_seed=42)
    np.testing.assert_array_equal(a.symbols, b.symbols)


def test_chirp_reference_single_antenna_phases():
    # N = 1, L = 4: quadratic ramp pi * l^2 / 4 gives phases
    # pi * [0, 1/4, 1, 9/4] at magnitude 1/2.
    ref = sm.chirp_reference(1, 4)
    want = 0.5 * np.exp(1j * np.pi * np.array([0.0, 0.25, 1.0, 2.25]))
    np.testing.assert_allclose(ref.entries[0], want, atol=1e-12)


@pytest.mark.parametrize("n,l", [(1, 4), (4, 16), (5, 16), (3, 7)])
def test_chirp_reference_unit_energy_and_flat_envelope(n, l):
    ref = sm.chirp_reference(n, l)
    assert ref.entries.shape == (n, l)
    assert abs(np.linalg.norm(ref.entries) - 1.0) < 1e-12
    # every sample carries the same power, so the block PAPR is 1
    power = np.abs(ref.vec) ** 2
    np.testing.assert_allclose(power, power[0], rtol=1e-12)


def test_reference_waveform_rejects_non_unit_energy():
    with pytest.raises(ValueError, match="unit Frobenius norm"):
        sm.ReferenceWaveform(np.ones((2, 2)))


def test_vec_is_column_major_and_unvec_inverts_it():
    m = np.array([[1 + 1j, 3 + 3j], [2 + 2j, 4 + 4j]])
    v = sm.vec(m)
    np.testing.assert_array_equal(v, np.array([1 + 1j, 2 + 2j, 3 + 3j, 4 + 4j]))
    np.testing.assert_array_equal(sm.unvec(v, 2), m)


def test_lift_layout_and_round_trip():
    x = np.array([1 + 2j, 3 - 4j])
    np.testing.assert_array_equal(sm.lift(x), np.array([1.0, 3.0, 2.0, -4.0]))
    np.testing.assert_array_equal(sm.unlift(sm.lift(x)), x)


def test_lift_preserves_norms_and_real_inner_products():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = rng.integers(1, 30)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert abs(np.linalg.norm(sm.lift(x)) - np.linalg.norm(x)) < 1e-14
        assert abs(sm.lift(x) @ sm.lift(y) - np.real(np.vdot(x, y))) < 1e-12


def test_lift_unlift_reject_bad_shapes():
    with pytest.raises(ValueError):
        sm.lift(np.ones((2, 2)))
    with pytest.raises(ValueError):
        sm.unlift(np.ones(3))
    with pytest.raises(ValueError):
        sm.unvec(np.ones(5), 2)


def test_waveform_properties():
    w = sm.Waveform(np.ones((2, 3)))
    assert w.n_antennas == 2 and w.n_samples == 3
    assert w.vec.shape == (6,)
    with pytest.raises(ValueError):
        sm.Waveform(np.array([[np.inf + 0j]]))
