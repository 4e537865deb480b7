"""Tests of the seeded experiment harness and its detectors."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isacwave import admm, cli, kpi, montecarlo
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
    ChannelRealization,
    SymbolBlock,
    chirp_reference,
    constellation_points,
    draw_symbols,
    snr_noise_variance,
    unvec,
)


def _cfg(eta_grid_db=None, **kw):
    # eta_grid_db gives the linear eta_grid in dB, as the CLI converts it
    defaults = dict(
        n_antennas=4, k_users=2, n_samples=8,
        rho_grid=(1.0,), eta_grid=(10.0 ** 0.4,), epsilon_grid=(1.0,),
        snr_grid_db=(10.0,), n_trials=6, base_seed=11, m_iter=150,
    )
    if eta_grid_db is not None:
        defaults["eta_grid"] = tuple(10.0 ** (e / 10.0) for e in eta_grid_db)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Every worker pool runs in this process; the list of the
    max_workers of every pool started."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    return sizes


@pytest.fixture(scope="module")
def ser_reference():
    """A small SER sweep's config and its table under the batch rule at
    one worker; its 6 dB zero-MUI point runs past the first batch."""
    cfg = _cfg(snr_grid_db=(0.0, 6.0), n_trials=1, m_iter=5)
    return cfg, run_ser(cfg)


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
        ("eta_grid", ()),
        ("eta_grid", (10.0 ** -0.1,)),
        ("eta_grid", (1e4,)),
        ("epsilon_grid", ()),
        ("epsilon_grid", (-0.5,)),
        ("snr_grid_db", ()),
        ("constellation", "8psk"),
        ("snr_convention", "whatever"),
        ("rho_grid", (math.inf,)),
        ("epsilon_grid", (math.inf,)),
        ("snr_grid_db", (math.nan,)),
        ("snr_grid_db", (math.inf,)),
        ("snr_grid_db", (4000.0,)),
        ("snr_grid_db", (-4000.0,)),
        ("n_antennas", 4.5),
        ("k_users", True),
        ("n_samples", 8.0),
        ("n_trials", 2.5),
        ("n_trials", True),
        ("m_iter", 2.5),
        ("base_seed", 1.5),
        ("base_seed", False),
        ("constellation", 5),
        ("constellation", None),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises((ValueError, KeyError)):
            _cfg(**{field: value})

    def test_base_seed_must_fit_the_philox_key(self):
        with pytest.raises(ValueError, match="base_seed"):
            _cfg(base_seed=2 ** 128)
        # the largest key draws every purpose, at one worker and at two
        cfg = _cfg(base_seed=2 ** 128 - 1, snr_grid_db=(0.0, 4.0), m_iter=5)
        a, b = (run_ser(cfg, threads=threads) for threads in (1, 2))
        for label in a.series:
            np.testing.assert_array_equal(a.series[label], b.series[label])
        assert a.metadata == b.metadata

    def test_more_users_than_antennas_rejected(self):
        with pytest.raises(ValueError):
            _cfg(k_users=5)

    def test_numpy_integer_counts_accepted(self):
        cfg = _cfg(n_trials=np.int64(3), m_iter=np.int32(5),
                   base_seed=np.uint64(7))
        assert (cfg.n_trials, cfg.m_iter, cfg.base_seed) == (3, 5, 7)
        assert type(cfg.n_trials) is int
        json.dumps(cfg.as_dict())

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

    def test_worker_count_does_not_change_a_fused_grid(self):
        cfg = _cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8), n_trials=5,
                   m_iter=60)
        a = run_ccdf(cfg, threads=1)
        b = run_ccdf(cfg, threads=2)
        assert len(a.series) == 4 and a.series.keys() == b.series.keys()
        for label in a.series:
            np.testing.assert_array_equal(a.series[label], b.series[label])

    @settings(max_examples=12, deadline=None)
    @given(rho_grid=st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                             min_size=1, max_size=2, unique=True),
           eta_grid_db=st.lists(st.sampled_from([0.0, 1.5, 3.0, 6.0]),
                                min_size=1, max_size=2, unique=True),
           chunk_rows=st.integers(1, 8), extra_trials=st.integers(1, 3))
    def test_a_fused_sweep_equals_its_single_point_sweeps(
            self, rho_grid, eta_grid_db, chunk_rows, extra_trials):
        # n_trials crosses a chunk boundary of the patched row budget,
        # and the single-point sweeps keep the shipped budget
        grid_size = len(rho_grid) * len(eta_grid_db)
        n_trials = max(1, chunk_rows // grid_size) + extra_trials
        cfg = _cfg(rho_grid=rho_grid, eta_grid_db=eta_grid_db,
                   n_trials=n_trials, m_iter=8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_CHUNK_ROWS", chunk_rows)
            fused = run_ccdf(cfg)
        for rho in rho_grid:
            for eta_db in eta_grid_db:
                single = run_ccdf(_cfg(rho_grid=(rho,), eta_grid_db=(eta_db,),
                                       n_trials=n_trials, m_iter=8))
                [(label, series)] = single.series.items()
                np.testing.assert_array_equal(fused.series[label], series)


class TestWorkerCount:
    @pytest.mark.parametrize("threads", [0, -1, True, 8.0])
    @pytest.mark.parametrize("driver", [run_ccdf, run_sumrate, run_ser])
    def test_bad_count_rejected_before_any_solve(self, monkeypatch, driver,
                                                 threads):
        solves = []
        monkeypatch.setattr(montecarlo, "solve", solves.append)
        with pytest.raises(ValueError, match="threads"):
            driver(_cfg(), threads=threads)
        assert solves == []

    def test_pool_starts_no_more_workers_than_chunks(self, pool_sizes):
        run_ccdf(_cfg(n_trials=2, m_iter=20), threads=8)
        assert pool_sizes == [2]

    def test_a_ccdf_sweep_starts_one_pool_for_its_whole_grid(self,
                                                             pool_sizes):
        run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                      n_trials=4, m_iter=20), threads=2)
        assert pool_sizes == [2]


    def test_forked_workers_start_with_numpy_random_imported(self):
        # numpy imports numpy.random lazily, and nothing before the pool
        # draws, so each worker would import it.  The check runs in a new
        # interpreter: here numpy.random is already imported
        script = textwrap.dedent("""
            import json, multiprocessing, sys
            import numpy as np
            from isacwave import montecarlo

            def loaded(chunk):
                return np.array([("numpy.random" in sys.modules, chunk[0])
                                 for _ in chunk], dtype=object)

            if __name__ == "__main__":
                print(json.dumps({
                    "start_method": multiprocessing.get_start_method(),
                    "loaded": montecarlo._map_trials(loaded, range(4),
                                                     threads=2).tolist()}))
        """)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        report = json.loads(done.stdout.splitlines()[-1])
        if report["start_method"] != "fork":
            pytest.skip("only forked workers inherit the parent's modules")
        # two chunks of two trials, one per worker
        assert report["loaded"] == [[True, 0], [True, 0], [True, 2],
                                    [True, 2]]


class TestSeriesLabels:
    @pytest.mark.parametrize("driver,grid,label", [
        (run_ccdf, {"rho_grid": (1.0, 1.0000001)}, "rho=1,eta=4dB"),
        (run_sumrate, {"eta_grid_db": (10.0 * math.log10(1.25),
                                       10.0 * math.log10(1.2500001))},
         "eta=1.25"),
    ], ids=["ccdf", "sumrate"])
    def test_entries_that_print_alike_are_rejected_before_any_solve(
            self, monkeypatch, driver, grid, label):
        solves = []
        monkeypatch.setattr(montecarlo, "solve", solves.append)
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            driver(_cfg(**grid))
        assert solves == []


class TestFixedGrids:
    # every grid a driver does not sweep, given a second entry it would
    # never read
    @pytest.mark.parametrize("driver,name", [
        (run_ccdf, "epsilon_grid"),
        (run_sumrate, "rho_grid"),
        (run_sumrate, "snr_grid_db"),
        (run_ser, "rho_grid"),
        (run_ser, "eta_grid"),
        (run_ser, "epsilon_grid"),
    ], ids=["ccdf-epsilon", "sumrate-rho", "sumrate-snr", "ser-rho",
            "ser-eta", "ser-epsilon"])
    def test_second_entry_rejected_before_any_solve(self, monkeypatch,
                                                    driver, name):
        solves = []
        monkeypatch.setattr(montecarlo, "solve", solves.append)
        cfg = _cfg()
        grid = getattr(cfg, name)
        with pytest.raises(ValueError, match=name):
            driver(_cfg(**{name: grid + (grid[0] - 0.5,)}))
        assert solves == []


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

    def test_zero_mui_blocks_are_the_per_trial_unit_blocks_bitwise(self):
        # one chunk-wide zero-forcing call gives every trial the rate of
        # its own unit-energy zero-forcing block, to the last bit
        for convention in montecarlo.SNR_CONVENTIONS:
            cfg = _cfg(snr_convention=convention, n_trials=7)
            trials = range(3, 10)
            want = []
            for channel, symbols in zip(*montecarlo._trial_draws(cfg,
                                                                 trials)):
                target = admm.zero_forcing_target(
                    ChannelRealization(channel), SymbolBlock(symbols))
                block = target / np.linalg.norm(target)
                want.append(_rate(channel, unvec(block, cfg.n_antennas),
                                  symbols, 0.1))
            np.testing.assert_array_equal(
                montecarlo._zero_mui_rate_trials(cfg, 0.1, trials), want)

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

    def test_accepts_qpsk_in_any_case(self):
        cfg = _cfg(constellation="QPSK", snr_grid_db=(0.0,), m_iter=20)
        assert cfg.constellation == "qpsk"
        assert run_ser(cfg).metadata["config"]["constellation"] == "qpsk"

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
        assert stats["errors"] == [103, 101]
        assert stats["symbols"] == [352, 848]
        assert stats["trials"] == [22, 53]

    @pytest.mark.parametrize("base_seed, want", [
        (2 ** 32 + 5, {
            "zero_mui": {"errors": [100, 100], "symbols": [320, 1104],
                         "trials": [20, 69]},
            "designed": {"errors": [103, 100], "symbols": [272, 656],
                         "trials": [17, 41]}}),
        (2 ** 64 - 1, {
            "zero_mui": {"errors": [100, 102], "symbols": [352, 880],
                         "trials": [22, 55]},
            "designed": {"errors": [104, 102], "symbols": [368, 768],
                         "trials": [23, 48]}}),
    ], ids=["two-word", "largest-u64"])
    def test_multi_word_base_seeds_pin_the_stream_layout(self, base_seed,
                                                         want):
        # the base seed is the Philox key: past 32 bits, and at the
        # largest --seed, every bit of its low u64 key word
        table = run_ser(_cfg(snr_grid_db=(0.0, 4.0), n_trials=1,
                             base_seed=base_seed, m_iter=5))
        assert table.metadata["series_stats"] == want

    # one or two workers start with a batch of 32 trials, five with 80
    @pytest.mark.parametrize("threads", [2, 5])
    def test_deterministic_and_worker_invariant(self, request, threads):
        if threads > 2:
            # run in this process: no five-process pool is started
            request.getfixturevalue("pool_sizes")
        cfg = _cfg(snr_grid_db=(1.0, 5.0), n_trials=1, m_iter=60)
        a = run_ser(cfg, threads=1)
        b = run_ser(cfg, threads=threads)
        for label in a.series:
            np.testing.assert_array_equal(a.series[label], b.series[label])
        assert a.metadata["series_stats"] == b.metadata["series_stats"]

    # ROADMAP aim 3: the batch sizes decide only how many rows are
    # discarded.  A schedule forces the batch after `done` trials to
    # schedule[done % len(schedule)] trials; None keeps the batch rule
    @settings(max_examples=12, deadline=None)
    @given(schedule=st.one_of(st.none(), st.lists(st.integers(1, 256),
                                                  min_size=1, max_size=4)),
           threads=st.sampled_from([1, 2]))
    @example(schedule=[1], threads=1)
    @example(schedule=[7], threads=2)
    @example(schedule=[64], threads=1)
    @example(schedule=[256], threads=2)
    @example(schedule=None, threads=2)
    def test_results_do_not_depend_on_the_batch_sizes(self, ser_reference,
                                                      schedule, threads):
        cfg, want = ser_reference
        with pytest.MonkeyPatch.context() as patch:
            if schedule is not None:
                patch.setattr(montecarlo, "_ser_batch",
                              lambda errors, done, workers:
                              schedule[done % len(schedule)])
            got = run_ser(cfg, threads=threads)
        for label in want.series:
            np.testing.assert_array_equal(got.series[label],
                                          want.series[label])
        assert (got.metadata["series_stats"]
                == want.metadata["series_stats"])


class TestStreamLayout:
    @pytest.mark.parametrize("base_seed", [20260818, 2 ** 32 + 5])
    def test_designed_draws_read_their_layout_words(self, base_seed):
        # trial t's channel and symbols are the Philox words under key
        # base_seed at counter (t * B, purpose, 0, 0); 16 words each take
        # B = 4 blocks.  The zf-normalized draw is the raw one rescaled
        trials = range(4, 6)
        raw = montecarlo._trial_draws(
            _cfg(base_seed=base_seed, snr_convention="raw"), trials)
        normalized = montecarlo._trial_draws(_cfg(base_seed=base_seed),
                                             trials)
        for trial, channel, symbols, scaled, same in zip(
                trials, *raw, *normalized):
            words = [np.random.Philox(
                key=base_seed, counter=(purpose << 64 | trial * 4) - 1)
                .random_raw(16) for purpose in (1, 2)]
            np.testing.assert_array_equal(
                channel,
                montecarlo._complex_normals(words[0][None]).reshape(2, 4))
            np.testing.assert_array_equal(
                symbols,
                constellation_points("qpsk")[words[1] >> 62].reshape(2, 8))
            np.testing.assert_array_equal(same, symbols)
            scale = np.linalg.norm(admm.zero_forcing_target(
                ChannelRealization(channel), SymbolBlock(symbols)))
            np.testing.assert_array_equal(scaled, channel * scale)


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

    def test_draw_instance_rejects_an_unknown_convention(self):
        # a typo must not fall through to the raw channel
        with pytest.raises(ValueError, match="snr_convention"):
            montecarlo.draw_instance(4, 2, 8, "qpsk", "zf_normalized",
                                     1, 2)

    def test_zero_mui_baselines_under_each_convention(self):
        # the SER baseline draws no channel, so it is the same calibrated
        # AWGN curve under either convention; the sumrate baseline sends
        # the unit-energy zero-forcing block over the drawn channel, which
        # reaches log2(1 + SNR) only once the channel is normalized
        kw = dict(n_antennas=5, k_users=2, n_samples=16, base_seed=3,
                  m_iter=5)
        ser = {c: run_ser(_cfg(snr_grid_db=(0.0, 4.0), snr_convention=c,
                               **kw))
               for c in montecarlo.SNR_CONVENTIONS}
        normalized, raw = ser["zf-normalized"], ser["raw"]
        np.testing.assert_array_equal(raw.series["zero_mui"],
                                      normalized.series["zero_mui"])
        assert (raw.metadata["series_stats"]["zero_mui"]
                == normalized.metadata["series_stats"]["zero_mui"])
        # the convention did reach the designed series
        assert not np.array_equal(raw.series["designed"],
                                  normalized.series["designed"])
        rate = {c: run_sumrate(_cfg(n_trials=4, snr_convention=c, **kw))
                .series["zero_mui"][0]
                for c in montecarlo.SNR_CONVENTIONS}
        assert rate["zf-normalized"] == pytest.approx(math.log2(11.0))
        assert rate["raw"] < 0.9 * math.log2(11.0)


class TestTrialStacks:
    def _spy(self, monkeypatch, name, module=montecarlo):
        calls = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return calls

    def _noise_streams(self, monkeypatch):
        # the (trial, point, series) of every noise stream drawn
        streams = []
        real = montecarlo._words

        def spy(base_seed, trials, n_words, purpose, point=0, series=0):
            if purpose == montecarlo._PURPOSE_NOISE:
                streams.extend((trial, point, series) for trial in trials)
            return real(base_seed, trials, n_words, purpose, point, series)

        monkeypatch.setattr(montecarlo, "_words", spy)
        return streams

    def _ser_batches(self, monkeypatch):
        # the trial ranges of every SER batch, per series
        batches = {montecarlo._SERIES_DESIGNED: [],
                   montecarlo._SERIES_ZERO_MUI: []}
        series = {montecarlo._ser_designed_trials: montecarlo._SERIES_DESIGNED,
                  montecarlo._ser_zero_mui_trials: montecarlo._SERIES_ZERO_MUI}
        real = montecarlo._map_trials

        def spy(fn, trials, threads, grid_size=1):
            batches[series[fn.func]].append(trials)
            return real(fn, trials, threads, grid_size)

        monkeypatch.setattr(montecarlo, "_map_trials", spy)
        return batches

    def test_a_ccdf_grid_is_one_stack_with_one_reference(self, monkeypatch):
        stacks = self._spy(monkeypatch, "solve")
        references = self._spy(monkeypatch, "chirp_reference")
        run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                      n_trials=5, m_iter=20))
        assert [len(specs) for specs in stacks] == [5 * 4]
        assert len(references) == 1

    def test_a_ccdf_sweep_draws_each_trial_once(self, monkeypatch):
        channels = []
        real = montecarlo._channels
        monkeypatch.setattr(
            montecarlo, "_channels",
            lambda cfg, trials: channels.extend(trials) or real(cfg, trials))
        # the chunk's channels are rescaled in one call, and solve builds
        # its targets in one call, one row per trial, shared by the
        # trial's grid rows
        rescales = self._spy(monkeypatch, "_zero_forcing_targets")
        targets = self._spy(monkeypatch, "_zero_forcing_targets", admm)
        n_trials = 5
        run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                      n_trials=n_trials, m_iter=20))
        assert channels == list(range(n_trials))
        assert [len(h) for h in rescales] == [n_trials]
        assert [len(h) for h in targets] == [n_trials]

    def test_a_stack_holds_at_most_a_chunk_of_trials(self, monkeypatch):
        # a trial's rows stay in one stack, so a chunk holds whole trials
        stacks = self._spy(monkeypatch, "solve")
        n_trials = montecarlo._CHUNK_ROWS // 4 + 3
        run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                      n_trials=n_trials, m_iter=2))
        assert [len(specs) for specs in stacks] == [
            montecarlo._CHUNK_ROWS, 12]

    def test_each_ser_batch_of_designed_trials_is_one_stack(self, monkeypatch):
        stacks = self._spy(monkeypatch, "solve")
        batches = self._ser_batches(monkeypatch)[montecarlo._SERIES_DESIGNED]
        sizes = []
        real = montecarlo._ser_batch

        def scheduled(*args):
            sizes.append(real(*args))
            return sizes[-1]

        monkeypatch.setattr(montecarlo, "_ser_batch", scheduled)
        run_ser(_cfg(snr_grid_db=(0.0, 6.0), n_trials=1, m_iter=5))
        # the designed series runs first, in batches of the scheduled
        # sizes, each one stack of its contiguous trials
        assert len(batches) > 1
        assert [len(b) for b in batches] == sizes[:len(batches)]
        assert [b.start for b in batches] == [0, *(b.stop for b in
                                                   batches[:-1])]
        assert [len(specs) for specs in stacks] == sizes[:len(batches)]

    def test_ser_counts_detect_once_and_match_the_per_point_loop(
            self, monkeypatch):
        cfg = _cfg(snr_grid_db=(0.0, 3.0, 6.0, 9.0))
        sigma2s = tuple(10.0 ** (-s / 10.0) for s in cfg.snr_grid_db)
        open_points = np.array([True, True, False, True])
        trials, series = range(4, 6), 0
        sent = np.stack([draw_symbols(2, 8, "qpsk", rng_seed=seed).symbols
                         for seed in (3, 5)])
        received = 0.8 * sent + 0.1
        detect = montecarlo.detect_qpsk
        detections = self._spy(monkeypatch, "detect_qpsk")
        streams = self._noise_streams(monkeypatch)
        counts = montecarlo._ser_counts(cfg, sigma2s, open_points, trials,
                                        received, sent, series)
        # the sent and the clean block once each, then at most one call
        # per open point with the symbols its noise can flip, none of them
        # on one trial's block
        np.testing.assert_array_equal(
            np.reshape(detections[0], sent.shape), sent)
        np.testing.assert_array_equal(
            np.reshape(detections[1], received.shape), received)
        assert len(detections) <= 2 + np.count_nonzero(open_points)
        assert all(np.shape(d) != sent.shape[1:] for d in detections)
        # the closed point builds no stream and counts 0
        assert sorted(streams) == [(trial, p, series) for trial in trials
                                   for p in (0, 1, 3)]
        assert counts.shape == (2, 4)
        want = []
        for i, trial in enumerate(trials):
            row = []
            for p, sigma2 in enumerate(sigma2s):
                if not open_points[p]:
                    row.append(0)
                    continue
                # 32 words take 8 blocks a trial
                words = np.random.Philox(key=cfg.base_seed, counter=(
                    series << 192 | p << 128
                    | montecarlo._PURPOSE_NOISE << 64 | trial * 8) - 1
                ).random_raw(32)
                noise = math.sqrt(sigma2) * montecarlo._complex_normals(
                    words[None]).reshape(sent[i].shape)
                row.append(int(np.count_nonzero(
                    detect(received[i] + noise) != detect(sent[i]))))
            want.append(row)
        assert counts.tolist() == want

    def test_ser_noise_streams_only_for_points_open_at_batch_start(
            self, monkeypatch):
        streams = self._noise_streams(monkeypatch)
        batches = self._ser_batches(monkeypatch)
        table = run_ser(_cfg(snr_grid_db=(0.0, 4.0, 8.0), n_trials=1,
                             m_iter=20))
        run = 0
        for name, series in (("designed", montecarlo._SERIES_DESIGNED),
                             ("zero_mui", montecarlo._SERIES_ZERO_MUI)):
            used = table.metadata["series_stats"][name]["trials"]
            # a point is open at the start of the batch beginning at trial
            # t exactly when it absorbed trial t
            want = 0
            for batch in batches[series]:
                want += len(batch) * sum(n > batch.start for n in used)
                run += len(batch)
            assert sum(key[-1] == series for key in streams) == want
        assert len(streams) < run * len(table.axis_values)


@st.composite
def _chunk_cases(draw):
    """A chunk of sweep trials for _solve_trials: its config, a grid of
    one to four (epsilon, eta, rho) entries, the stop rule, a trial
    range that does not start at 0 and a noise variance."""
    cfg = _cfg(base_seed=draw(st.integers(0, 2 ** 64 - 1)),
               constellation=draw(st.sampled_from(["qpsk", "16qam"])),
               snr_convention=draw(st.sampled_from(
                   montecarlo.SNR_CONVENTIONS)),
               m_iter=draw(st.integers(1, 40)))
    grid = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                   st.sampled_from([1.0, 2.0, 8.0, 32.0]),
                                   st.sampled_from([0.5, 1.0, 5.0])),
                         min_size=1, max_size=4))
    start = draw(st.integers(1, 50))
    trials = range(start, start + draw(st.integers(1, 4)))
    noise_variance = snr_noise_variance(draw(st.sampled_from([-5.0, 0.0,
                                                              10.0, 20.0])))
    return cfg, grid, draw(st.booleans()), trials, noise_variance


def _per_row(cfg, grid, early_stop, trials):
    """The per-row library path: each trial's (channel, symbols) and the
    result of its design at each grid entry, from one solve."""
    instances = [(ChannelRealization(h), SymbolBlock(s))
                 for h, s in zip(*montecarlo._trial_draws(cfg, trials))]
    reference = chirp_reference(cfg.n_antennas, cfg.n_samples)
    results = iter(admm.solve([
        admm.ProblemSpec(channel=channel, symbols=symbols,
                         reference=reference, epsilon=epsilon, eta=eta,
                         rho=rho, max_iterations=cfg.m_iter,
                         rho_schedule="fixed", early_stop=early_stop)
        for channel, symbols in instances for epsilon, eta, rho in grid]))
    return [(channel, symbols, [next(results) for _ in grid])
            for channel, symbols in instances]


def _rate(channel, block, symbols, noise_variance):
    """The mean per-user rate of one block over its channel alone."""
    sinr = sinr_per_user(channel, block, symbols, noise_variance)
    return np.mean(np.log2(1.0 + sinr))


class TestChunkMeasures:
    # each chunk measure equals the per-row library path bit for bit

    @settings(max_examples=40, deadline=None)
    @given(case=_chunk_cases())
    def test_ccdf_paprs_are_each_blocks_papr(self, case):
        cfg, grid, early_stop, trials, _ = case
        got = montecarlo._solve_trials(cfg, grid, early_stop,
                                       montecarlo._papr_db, trials)
        want = [[kpi.papr_db(result.waveform.vec) for result in results]
                for _, _, results in _per_row(cfg, grid, early_stop, trials)]
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(case=_chunk_cases())
    def test_sumrate_rates_are_each_instances_rate(self, case):
        cfg, grid, early_stop, trials, noise_variance = case
        got = montecarlo._solve_trials(
            cfg, grid, early_stop, partial(montecarlo._rates, noise_variance),
            trials)
        rows = _per_row(cfg, grid, early_stop, trials)
        want = [[_rate(channel, result.waveform, symbols, noise_variance)
                 for result in results] for channel, symbols, results in rows]
        np.testing.assert_array_equal(got, want)
        # the zero-MUI rates are those of each trial's unit-energy
        # zero-forcing block
        zero = []
        for channel, symbols, _ in rows:
            target = admm.zero_forcing_target(channel, symbols)
            zero.append(_rate(channel,
                              unvec(target / np.linalg.norm(target),
                                    cfg.n_antennas),
                              symbols, noise_variance))
        np.testing.assert_array_equal(
            montecarlo._zero_mui_rate_trials(cfg, noise_variance, trials),
            zero)

    @settings(max_examples=40, deadline=None)
    @given(case=_chunk_cases())
    def test_ser_received_blocks_are_each_designs_h_x(self, case):
        cfg, grid, _, trials, noise_variance = case
        cfg = replace(cfg, constellation="qpsk")
        counted = []
        real = montecarlo._ser_counts

        def spy(*args):
            counted.append(args)
            return real(*args)

        sigma2s = (noise_variance,)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_ser_counts", spy)
            counts = montecarlo._ser_designed_trials(
                cfg, *grid[0], sigma2s, np.array([True]), trials)
        [(_, _, _, _, received, sent, series)] = counted
        rows = _per_row(cfg, grid[:1], True, trials)
        np.testing.assert_array_equal(
            received, [channel.matrix @ result.waveform.entries
                       for channel, _, [result] in rows])
        np.testing.assert_array_equal(
            sent, [symbols.symbols for _, symbols, _ in rows])
        assert series == montecarlo._SERIES_DESIGNED
        np.testing.assert_array_equal(counts, real(
            cfg, sigma2s, np.array([True]), trials, received, sent, series))


def _ser_counts_per_symbol(cfg, sigma2s, open_points, trials, received_clean,
                           sent, series):
    """_ser_counts with every symbol's noise and decision: the whole
    complex noise of each open point from its stream, and detect_qpsk on
    every noisy symbol."""
    size = math.prod(sent.shape[1:])
    counts = np.zeros((len(trials), len(sigma2s)), dtype=np.int64)
    for p in np.flatnonzero(open_points):
        words = montecarlo._words(cfg.base_seed, trials, 2 * size,
                                  montecarlo._PURPOSE_NOISE, int(p), series)
        noise = math.sqrt(sigma2s[p]) * montecarlo._complex_normals(words)
        counts[:, p] = np.count_nonzero(
            detect_qpsk(received_clean + noise.reshape(sent.shape))
            != detect_qpsk(sent), axis=(1, 2))
    return counts


_QPSK = constellation_points("qpsk")
# clean values, as multiples of a sent symbol s or of the noise bound b of
# one open point: s scaled on its own side or across both axes, a zero
# part, a part close to an axis, or a part at exactly -b whose noise is
# exactly +b, the tie of the margin rule
_CLEAN_KINDS = ("inside", "wrong_quadrant", "zero_real", "zero_imag", "zero",
                "near_real_axis", "tie_real", "tie_imag")
# angle words on an axis: u2 = 0 is angle 0, whose cosine is 1 and sine 0;
# u2 = 1/4 is angle fl(pi/2), whose sine is 1
_ANGLE_ON_AXIS = {"tie_real": 0, "tie_imag": 1 << 62}


@st.composite
def _ser_chunks(draw):
    """A chunk of SER trials for _ser_counts: its config, SNR points and
    open mask, trials, clean and sent blocks and series, and the angle
    words that put some noise exactly on an axis."""
    n_trials, k, n_samples = (draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                              draw(st.integers(1, 6)))
    snr_db = draw(st.lists(st.floats(-6.0, 24.0), min_size=1, max_size=4))
    open_points = np.array(draw(st.lists(
        st.booleans(), min_size=len(snr_db), max_size=len(snr_db))))
    series = draw(st.sampled_from((montecarlo._SERIES_DESIGNED,
                                   montecarlo._SERIES_ZERO_MUI)))
    cfg = _cfg(base_seed=draw(st.integers(0, 2 ** 64 - 1)), k_users=k,
               n_samples=n_samples, snr_grid_db=tuple(snr_db))
    sigma2s = tuple(map(snr_noise_variance, snr_db))
    start = draw(st.integers(0, 1000))
    trials = range(start, start + n_trials)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = k * n_samples
    sent = _QPSK[rng.integers(0, 4, (n_trials, size))]
    angles = {}
    if series == montecarlo._SERIES_ZERO_MUI:
        # _ser_zero_mui_trials passes its sent block as the clean block
        return (cfg, sigma2s, open_points, trials, sent.reshape(
            n_trials, k, n_samples), sent.reshape(n_trials, k, n_samples),
            series, angles)
    kinds = draw(st.lists(st.sampled_from(_CLEAN_KINDS),
                          min_size=n_trials * size,
                          max_size=n_trials * size))
    clean = np.empty_like(sent)
    for index, kind in enumerate(kinds):
        t, i = divmod(index, size)
        s, g = sent[t, i], rng.uniform(0.05, 2.0)
        if kind in _ANGLE_ON_AXIS and open_points.any():
            p = int(draw(st.sampled_from(np.flatnonzero(open_points))))
            words = montecarlo._words(cfg.base_seed, trials, 2 * size,
                                      montecarlo._PURPOSE_NOISE, p, series)
            radius = np.sqrt(-np.log(((words[t, i:i + 1] >> 11) + 1)
                                     * 2.0 ** -53))[0]
            bound = math.sqrt(sigma2s[p]) * radius
            # the tie sits on the sent symbol's negative part, where noise
            # of exactly +b lands on the axis and flips the decision
            if kind == "tie_real":
                sent[t, i], clean[t, i] = _QPSK[2], complex(-bound,
                                                            2 * bound + 1)
            else:
                sent[t, i], clean[t, i] = _QPSK[1], complex(2 * bound + 1,
                                                            -bound)
            angles.setdefault(p, []).append((t, size + i,
                                             _ANGLE_ON_AXIS[kind], kind,
                                             bound))
        elif kind == "wrong_quadrant":
            clean[t, i] = -s * rng.uniform(0.05, 50.0)
        elif kind == "zero_real":
            clean[t, i] = complex(0.0, g * s.imag)
        elif kind == "zero_imag":
            clean[t, i] = complex(g * s.real, -0.0)
        elif kind == "zero":
            clean[t, i] = 0.0
        elif kind == "near_real_axis":
            clean[t, i] = complex(5.0 * g * s.real, 1e-3 * g * s.imag)
        else:
            clean[t, i] = g * s
    shape = (n_trials, k, n_samples)
    return (cfg, sigma2s, open_points, trials, clean.reshape(shape),
            sent.reshape(shape), series, angles)


class TestSerDecisions:
    @settings(max_examples=150, deadline=None)
    @given(chunk=_ser_chunks())
    def test_ser_counts_equal_the_per_symbol_decisions(self, chunk):
        (cfg, sigma2s, open_points, trials, clean, sent, series,
         angles) = chunk
        real = montecarlo._words

        def words(base_seed, trials, n_words, purpose, point=0, series=0):
            drawn = real(base_seed, trials, n_words, purpose, point,
                         series).copy()
            for t, column, word, _, _ in angles.get(point, ()):
                drawn[t, column] = word
            return drawn

        with mock.patch.object(montecarlo, "_words", words):
            # each tie's noise is exactly its bound, on its axis
            size = math.prod(sent.shape[1:])
            for p, placed in angles.items():
                noise = math.sqrt(sigma2s[p]) * montecarlo._complex_normals(
                    words(cfg.base_seed, trials, 2 * size,
                          montecarlo._PURPOSE_NOISE, p, series))
                for t, column, _, kind, bound in placed:
                    value = noise[t, column - size]
                    assert (value.real if kind == "tie_real"
                            else value.imag) == bound
            got = montecarlo._ser_counts(cfg, sigma2s, open_points, trials,
                                         clean, sent, series)
            want = _ser_counts_per_symbol(cfg, sigma2s, open_points, trials,
                                          clean, sent, series)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()


def _accumulate_ser_per_row(chunk_fn, n_points, symbols_per_trial):
    """The per-row loop that the batch cut of _accumulate_ser replaced,
    kept as its reference.  It runs one trial at a time and also returns
    the mask of points open before each trial."""
    errors = np.zeros(n_points, dtype=np.int64)
    symbols = np.zeros(n_points, dtype=np.int64)
    trials_used = np.zeros(n_points, dtype=np.int64)
    still_open = np.ones(n_points, dtype=bool)
    cap = math.ceil(montecarlo._MAX_SYMBOLS / symbols_per_trial)
    masks = []
    t = 0
    while np.any(still_open) and t < cap:
        masks.append(still_open.tolist())
        [row] = chunk_fn(still_open.copy(), range(t, t + 1))
        errors[still_open] += row[still_open]
        symbols[still_open] += symbols_per_trial
        trials_used[still_open] += 1
        still_open &= ~((errors >= montecarlo._MIN_ERRORS)
                        | (symbols >= montecarlo._MAX_SYMBOLS))
        t += 1
    return errors, trials_used, masks


class TestCertifiedStopInSweeps:
    # zf-normalized designs at eta 3 and epsilon 1.5 mostly certify by
    # iteration 40
    @pytest.mark.parametrize("driver, stops", [
        (run_sumrate, True), (run_ser, True), (run_ccdf, False),
    ], ids=["sumrate", "ser", "ccdf"])
    def test_rate_and_ser_designs_stop_when_certified_and_ccdf_runs_m_iter(
            self, monkeypatch, driver, stops):
        iterations = []
        real = montecarlo.solve

        def recording_solve(specs):
            results = real(specs)
            iterations.extend(r.iterations_run for r in results)
            return results

        monkeypatch.setattr(montecarlo, "solve", recording_solve)
        m_iter = 100
        driver(_cfg(n_samples=16, eta_grid=(3.0,), epsilon_grid=(1.5,),
                    snr_grid_db=(0.0,), n_trials=6, m_iter=m_iter))
        assert iterations and max(iterations) <= m_iter
        if stops:
            assert min(iterations) < m_iter
        else:
            assert iterations == [m_iter] * len(iterations)


@pytest.mark.parametrize("sweep", [run_ccdf, run_sumrate, run_ser],
                         ids=["ccdf", "sumrate", "ser"])
def test_sweep_designs_record_no_residual_history(monkeypatch, sweep):
    # a sweep reads only the designed blocks, so none of its rows keeps
    # the per-iteration residual norms
    solved = []
    real = montecarlo.solve

    def spy(specs):
        results = real(specs)
        solved.extend(zip(specs, results))
        return results

    monkeypatch.setattr(montecarlo, "solve", spy)
    sweep(_cfg(n_samples=16, eta_grid=(3.0,), epsilon_grid=(1.5,),
               snr_grid_db=(0.0,), n_trials=6, m_iter=120))
    assert solved
    for spec, result in solved:
        assert spec.record_history is False
        assert result.iterations_run > 0
        for field in ("energy", "similarity", "papr"):
            assert getattr(result.residual_history, field).shape == (0,)


class TestSerBatchSchedule:
    def test_the_first_batch_holds_16_trials_a_worker_and_at_least_32(self):
        errors = np.zeros(3, dtype=np.int64)
        assert [montecarlo._ser_batch(errors, 0, workers)
                for workers in (1, 2, 5, 17)] == [32, 32, 80,
                                                  montecarlo._CHUNK_ROWS]

    @pytest.mark.parametrize("errors, done, want", [
        # the neediest open point has 25 errors in 40 trials: its 75
        # missing errors need 120 trials, and a quarter more is 150
        ([25, 60, 130], 40, 150),
        # 30 missing errors at 70 in 100 trials: 53.6 trials, rounded up
        ([70], 100, 54),
        # a smaller need is raised to the first batch's size
        ([99, 100], 40, 32),
        # a larger one is cut to _CHUNK_ROWS
        ([5], 40, montecarlo._CHUNK_ROWS),
        # no error yet: the batch doubles the trials run
        ([0, 100], 48, 48),
    ])
    def test_a_later_batch_is_the_neediest_points_need_and_a_quarter(
            self, errors, done, want):
        assert montecarlo._ser_batch(np.array(errors), done, 1) == want

    def test_a_point_with_no_error_grows_the_batch_geometrically(self):
        batches = []

        def no_errors(open_points, trials):
            batches.append(len(trials))
            return np.zeros((len(trials), 2), dtype=np.int64)

        # 1,000 symbols per trial cap a point at 1,000 trials
        montecarlo._accumulate_ser(no_errors, 2, 1_000, threads=1)
        assert batches == [32, 32, 64, 128, 256, 256, 232]

    def test_the_ser_baseline_grid_solves_one_first_batch_of_designs(
            self, monkeypatch, tmp_path):
        # perfbench's ser-baseline request at seed 1, whose slowest
        # designed point closes within 24 trials
        rows = []
        real = montecarlo.solve
        monkeypatch.setattr(montecarlo, "solve",
                            lambda specs: rows.append(len(specs)) or real(specs))
        config = os.path.join(os.path.dirname(__file__), "..", "configs",
                              "ser.json")
        assert cli.main([
            "ser", "--config", config, "--seed", "1", "--out", str(tmp_path),
            "--set", "experiment.snr_db=[0.0,2.0,4.0,6.0,8.0,10.0]",
            "--set", "experiment.m_iter=50"]) == 0
        assert sum(rows) <= 32


class TestSerStoppingRule:
    # per-trial error rates: 30 closes a point within a few trials, 1.6
    # and 1 within a few batches, 0.3 seldom before the symbol cap, 0
    # never
    RATES = (0.0, 0.3, 1.0, 1.6, 4.0, 30.0)

    def _compare(self, seed, rates, symbols_per_trial):
        """(errors, trials) of _accumulate_ser checked against the
        per-row loop; returns the trials and the batch edges."""
        cap = math.ceil(montecarlo._MAX_SYMBOLS / symbols_per_trial)
        counts = np.random.default_rng(seed).poisson(
            rates, size=(cap, len(rates)))
        batches = []

        def chunk_fn(log, open_points, trials):
            log.append((open_points.tolist(), trials))
            rows = counts[list(trials)]
            # a point closed at batch start gets a count never to be read
            return np.where(open_points, rows, rows + 1)

        got = montecarlo._accumulate_ser(
            partial(chunk_fn, batches), len(rates), symbols_per_trial,
            threads=1)
        *want, masks = _accumulate_ser_per_row(
            partial(chunk_fn, []), len(rates), symbols_per_trial)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        # the batches follow each other from trial 0, none holds more
        # than _CHUNK_ROWS trials or runs past the cap, and each asks for
        # the points open before its first trial
        edges = [0]
        for open_points, trials in batches:
            assert trials.start == edges[-1]
            assert 0 < len(trials) <= montecarlo._CHUNK_ROWS
            assert open_points == masks[trials.start]
            edges.append(trials.stop)
        assert edges[-1] <= cap
        return got[1].tolist(), edges

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           rates=st.lists(st.sampled_from(RATES), min_size=1, max_size=4),
           symbols_per_trial=st.integers(3_000, 1_000_001))
    def test_batch_cut_matches_the_per_row_loop(self, seed, rates,
                                                symbols_per_trial):
        self._compare(seed, rates, symbols_per_trial)

    def test_points_close_mid_batch_in_a_later_batch_and_at_the_cap(self):
        # 7,000 symbols per trial cap a point at 143 trials
        trials, edges = self._compare(3, [30.0, 1.0, 0.3], 7_000)
        assert trials[0] < edges[1]
        assert any(start < trials[1] < stop
                   for start, stop in zip(edges[1:], edges[2:]))
        assert trials[2] == 143 == edges[-1]
