"""Tests of the seeded experiment harness and its detectors."""

import math

import numpy as np
import pytest

from isacwave import montecarlo
from isacwave.kpi import sinr_per_user
from isacwave.montecarlo import (
    CurveTable,
    ExperimentConfig,
    analytic_qpsk_ser,
    detect_qpsk,
    run_ccdf,
    run_ser,
    run_sumrate,
)
from isacwave.signal_model import (
    ArrayConfig,
    chirp_reference,
    constellation_points,
    draw_channel,
    draw_symbols,
)


def _cfg(**kw):
    defaults = dict(
        n_antennas=4, k_users=2, n_samples=8,
        rho_grid=(1.0,), eta_grid_db=(4.0,), epsilon_grid=(1.0,),
        snr_grid_db=(10.0,), n_trials=6, base_seed=11, m_iter=150,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_grid_coercion_to_float_tuples(self):
        cfg = _cfg(rho_grid=[1, 2], epsilon_grid=[1])
        assert cfg.rho_grid == (1.0, 2.0)
        assert isinstance(cfg.epsilon_grid, tuple)

    @pytest.mark.parametrize("field,value", [
        ("n_antennas", 0),
        ("k_users", 0),
        ("n_samples", 0),
        ("n_trials", 0),
        ("m_iter", 0),
        ("base_seed", -1),
        ("rho_grid", ()),
        ("rho_grid", (0.0,)),
        ("eta_grid_db", ()),
        ("eta_grid_db", (-1.0,)),
        ("eta_grid_db", (40.0,)),
        ("epsilon_grid", ()),
        ("epsilon_grid", (-0.5,)),
        ("snr_grid_db", ()),
        ("constellation", "8psk"),
        ("snr_convention", "whatever"),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises((ValueError, KeyError)):
            _cfg(**{field: value})

    def test_more_users_than_antennas_rejected(self):
        with pytest.raises(ValueError):
            _cfg(k_users=5)

    def test_as_dict_round_trips(self):
        cfg = _cfg()
        again = ExperimentConfig(**cfg.as_dict())
        assert again == cfg


class TestCurveTable:
    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="series"):
            CurveTable(axis_name="x", axis_values=np.arange(3),
                       series={"a": np.arange(2)}, metadata={})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            CurveTable(axis_name="x", axis_values=np.empty(0),
                       series={}, metadata={})


class TestDetector:
    def test_constellation_point_detected_as_itself(self):
        points = constellation_points("qpsk")
        for i, p in enumerate(points):
            assert detect_qpsk(p) == i

    def test_origin_ties_to_lowest_index(self):
        assert detect_qpsk(0.0 + 0.0j) == 0

    def test_nearest_quadrant(self):
        points = constellation_points("qpsk")
        idx = detect_qpsk(1.0 + 0.9j)
        assert points[idx] == pytest.approx((1 + 1j) / math.sqrt(2))

    def test_vectorized_shape(self):
        received = np.zeros((2, 5), dtype=complex)
        assert detect_qpsk(received).shape == (2, 5)

    def test_sixteen_qam_corner(self):
        points = constellation_points("16qam")
        idx = detect_qpsk(1.0 + 1.0j, "16qam")
        assert points[idx] == pytest.approx((3 + 3j) / math.sqrt(10))


class TestAnalyticSer:
    def test_frozen_value_at_unit_snr(self):
        assert analytic_qpsk_ser(1.0) == pytest.approx(0.29213901822210496)

    def test_vanishes_at_high_snr(self):
        assert analytic_qpsk_ser(1e4) < 1e-10

    def test_monotone_decreasing(self):
        values = [analytic_qpsk_ser(s) for s in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestRunCcdf:
    def test_axis_is_fixed_gamma_grid(self):
        table = run_ccdf(_cfg(n_trials=3, m_iter=50))
        assert table.axis_values[0] == 0.0
        assert table.axis_values.size == 201
        np.testing.assert_allclose(np.diff(table.axis_values), 0.05)

    def test_tight_cap_empties_the_tail(self):
        # eta = 0 dB forces near-constant modulus; nothing reaches 9 dB
        table = run_ccdf(_cfg(eta_grid_db=(0.0,), n_trials=6, m_iter=300))
        series = table.series["rho=1,eta=0dB"]
        idx = int(np.searchsorted(table.axis_values, 9.0))
        assert series[idx] == 0.0
        assert series[0] == 1.0  # every sample exceeds gamma = 0 dB

    def test_series_labels_and_monotonicity(self):
        table = run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                              n_trials=4, m_iter=60))
        assert set(table.series) == {
            "rho=0.5,eta=3dB", "rho=0.5,eta=4.8dB",
            "rho=1,eta=3dB", "rho=1,eta=4.8dB",
        }
        for values in table.series.values():
            assert np.all(np.diff(values) <= 0)
            assert np.all((0.0 <= values) & (values <= 1.0))

    def test_deterministic_rerun(self):
        a = run_ccdf(_cfg(n_trials=4, m_iter=60))
        b = run_ccdf(_cfg(n_trials=4, m_iter=60))
        for label in a.series:
            np.testing.assert_array_equal(a.series[label], b.series[label])
        assert a.metadata["provenance"] == b.metadata["provenance"]

    def test_worker_count_does_not_change_results(self):
        a = run_ccdf(_cfg(n_trials=4, m_iter=60), threads=1)
        b = run_ccdf(_cfg(n_trials=4, m_iter=60), threads=2)
        for label in a.series:
            np.testing.assert_array_equal(a.series[label], b.series[label])


class TestRunSumrate:
    def test_single_snr_required(self):
        with pytest.raises(ValueError, match="SNR"):
            run_sumrate(_cfg(snr_grid_db=(5.0, 10.0)))

    def test_reference_series_and_capacity_bound(self):
        table = run_sumrate(_cfg(epsilon_grid=(0.5, 1.5), n_trials=5,
                                 m_iter=100))
        capacity = math.log2(11.0)
        np.testing.assert_allclose(table.series["awgn_capacity"], capacity)
        # unit-energy zero-forcing leaves no interference under the
        # calibrated convention, so its rate is exactly the capacity
        np.testing.assert_allclose(table.series["zero_mui"], capacity,
                                   rtol=1e-12)
        for values in table.series.values():
            assert np.all(values <= capacity + 1e-9)

    def test_inactive_constraints_reach_zero_mui_rate(self):
        table = run_sumrate(_cfg(epsilon_grid=(2.5,), eta_grid_db=(
            10.0 * math.log10(32.0),), n_trials=5, m_iter=400))
        rate = table.series["eta=32"][0]
        assert rate == pytest.approx(table.series["zero_mui"][0], rel=1e-6)

    def test_pinned_design_rate_ignores_the_papr_cap(self):
        # epsilon = 0 returns the chirp itself, whatever the cap allows
        a = run_sumrate(_cfg(epsilon_grid=(0.0,), eta_grid_db=(4.0,),
                             n_trials=5, m_iter=50))
        b = run_sumrate(_cfg(epsilon_grid=(0.0,), eta_grid_db=(6.0,),
                             n_trials=5, m_iter=50))
        assert (a.series["eta=2.51189"][0]
                == pytest.approx(b.series["eta=3.98107"][0], abs=0))
        assert a.series["eta=2.51189"][0] < math.log2(11.0) - 0.5

    def test_sem_metadata_present(self):
        table = run_sumrate(_cfg(epsilon_grid=(0.5, 1.0), n_trials=5,
                                 m_iter=80))
        sems = table.metadata["series_sem"]
        assert set(sems) == set(table.series)
        assert all(len(v) == 2 for v in sems.values())
        assert all(s >= 0 for v in sems.values() for s in v)


class TestRunSer:
    def test_requires_qpsk(self):
        with pytest.raises(ValueError, match="qpsk"):
            run_ser(_cfg(constellation="16qam"))

    def test_zero_mui_tracks_analytic_curve(self):
        cfg = _cfg(snr_grid_db=(0.0, 4.0), n_trials=1, m_iter=80)
        table = run_ser(cfg)
        stats = table.metadata["series_stats"]["zero_mui"]
        for p, snr_db in enumerate(table.axis_values):
            ser = table.series["zero_mui"][p]
            n = stats["symbols"][p]
            expected = analytic_qpsk_ser(10.0 ** (snr_db / 10.0))
            se = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(ser - expected) <= 3.0 * se

    def test_designed_block_never_beats_clean_transmission(self):
        table = run_ser(_cfg(snr_grid_db=(2.0, 6.0), n_trials=1, m_iter=150))
        assert np.all(table.series["designed"] >= table.series["zero_mui"])

    def test_stopping_rule_reported(self):
        table = run_ser(_cfg(snr_grid_db=(0.0, 6.0), n_trials=1, m_iter=80))
        for stats in table.metadata["series_stats"].values():
            for errors, symbols in zip(stats["errors"], stats["symbols"]):
                assert errors >= 100 or symbols >= 1_000_000

    def test_zero_mui_counts_pin_the_stream_layout(self):
        # only the symbol and noise streams feed these counts
        table = run_ser(_cfg(snr_grid_db=(0.0, 4.0), n_trials=1))
        stats = table.metadata["series_stats"]["zero_mui"]
        assert stats["errors"] == [104, 100]
        assert stats["symbols"] == [384, 880]
        assert stats["trials"] == [24, 55]

    def test_deterministic_and_worker_invariant(self):
        cfg = _cfg(snr_grid_db=(1.0, 5.0), n_trials=1, m_iter=60)
        a = run_ser(cfg, threads=1)
        b = run_ser(cfg, threads=2)
        for label in a.series:
            np.testing.assert_array_equal(a.series[label], b.series[label])
        assert a.metadata["series_stats"] == b.metadata["series_stats"]


class TestSnrConventions:
    def test_normalized_convention_calibrates_received_power(self):
        # under the default convention the zero-forcing block carries unit
        # energy, so a no-interference design sees SINR equal to the SNR
        cfg = _cfg(epsilon_grid=(2.5,), eta_grid_db=(10.0 * math.log10(32.0),),
                   n_trials=4, m_iter=400)
        table = run_sumrate(cfg)
        assert table.series["zero_mui"][0] == pytest.approx(math.log2(11.0))

    def test_raw_convention_changes_the_draw(self):
        a = run_ccdf(_cfg(n_trials=4, m_iter=60))
        b = run_ccdf(_cfg(n_trials=4, m_iter=60, snr_convention="raw"))
        label = "rho=1,eta=4dB"
        assert not np.array_equal(a.series[label], b.series[label])


class TestTrialStacks:
    def _spy(self, monkeypatch, name):
        calls = []
        real = getattr(montecarlo, name)

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, spy)
        return calls

    def test_each_grid_point_is_one_stack_with_one_reference(self, monkeypatch):
        stacks = self._spy(monkeypatch, "solve")
        references = self._spy(monkeypatch, "chirp_reference")
        run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                      n_trials=5, m_iter=20))
        assert [len(specs) for specs in stacks] == [5, 5, 5, 5]
        assert len(references) == 4

    def test_a_stack_holds_at_most_a_chunk_of_trials(self, monkeypatch):
        stacks = self._spy(monkeypatch, "solve")
        n_trials = montecarlo._CHUNK_TRIALS + 3
        run_ccdf(_cfg(n_trials=n_trials, m_iter=2))
        assert [len(specs) for specs in stacks] == [
            montecarlo._CHUNK_TRIALS, 3]

    def test_each_ser_batch_of_designed_trials_is_one_stack(self, monkeypatch):
        stacks = self._spy(monkeypatch, "solve")
        run_ser(_cfg(snr_grid_db=(0.0,), n_trials=1, m_iter=20))
        assert stacks and all(len(specs) == 64 for specs in stacks)

    def test_ser_counts_detect_once_and_match_the_per_point_loop(
            self, monkeypatch):
        cfg = _cfg(snr_grid_db=(0.0, 3.0, 6.0))
        sigma2s = tuple(10.0 ** (-s / 10.0) for s in cfg.snr_grid_db)
        sent = draw_symbols(2, 8, "qpsk", rng_seed=3).symbols
        received = 0.8 * sent + 0.1
        trial, series = 4, 0
        detect = montecarlo.detect_qpsk
        detections = self._spy(monkeypatch, "detect_qpsk")
        counts = montecarlo._ser_counts(cfg, sigma2s, trial, received, sent,
                                        series)
        assert len(detections) == 2
        want = []
        for p, sigma2 in enumerate(sigma2s):
            rng = np.random.default_rng(np.random.SeedSequence(
                [cfg.base_seed, trial, montecarlo._PURPOSE_NOISE, p, series]))
            noise = (rng.standard_normal(sent.shape)
                     + 1j * rng.standard_normal(sent.shape))
            noise *= math.sqrt(sigma2 / 2.0)
            want.append(int(np.count_nonzero(
                detect(received + noise) != detect(sent))))
        assert [int(c) for c in counts] == want
