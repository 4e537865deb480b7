"""Tests of the seeded experiment harness and its detectors."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isacwave import admm, montecarlo
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
    chirp_reference,
    constellation_points,
    draw_channel,
    draw_symbols,
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

    def _pool_sizes(self, monkeypatch):
        # the max_workers of every pool started, run in this process
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

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        sizes = self._pool_sizes(monkeypatch)
        run_ccdf(_cfg(n_trials=2, m_iter=20), threads=8)
        assert sizes == [2]

    def test_a_ccdf_sweep_starts_one_pool_for_its_whole_grid(self,
                                                             monkeypatch):
        sizes = self._pool_sizes(monkeypatch)
        run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                      n_trials=4, m_iter=20), threads=2)
        assert sizes == [2]


    def test_forked_workers_start_with_numpy_random_imported(self):
        # numpy imports numpy.random lazily, and nothing before the pool
        # draws, so each worker would import it.  The check runs in a new
        # interpreter: here numpy.random is already imported
        script = textwrap.dedent("""
            import json, multiprocessing, sys
            from isacwave import montecarlo

            def loaded(chunk):
                return [("numpy.random" in sys.modules, chunk[0])
                        for _ in chunk]

            if __name__ == "__main__":
                print(json.dumps({
                    "start_method": multiprocessing.get_start_method(),
                    "loaded": montecarlo._map_trials(loaded, range(4),
                                                     threads=2)}))
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
        assert stats["errors"] == [104, 100]
        assert stats["symbols"] == [384, 880]
        assert stats["trials"] == [24, 55]

    @pytest.mark.parametrize("base_seed, want", [
        (2 ** 32 + 5, {
            "zero_mui": {"errors": [100, 100], "symbols": [416, 896],
                         "trials": [26, 56]},
            "designed": {"errors": [102, 101], "symbols": [304, 560],
                         "trials": [19, 35]}}),
        (2 ** 64 - 1, {
            "zero_mui": {"errors": [100, 100], "symbols": [352, 1008],
                         "trials": [22, 63]},
            "designed": {"errors": [101, 100], "symbols": [304, 688],
                         "trials": [19, 43]}}),
    ], ids=["two-word", "largest-u64"])
    def test_multi_word_base_seeds_pin_the_stream_layout(self, base_seed,
                                                         want):
        # a base seed of two uint32 words makes every noise key six words
        # long, past SeedSequence's four-word pool
        table = run_ser(_cfg(snr_grid_db=(0.0, 4.0), n_trials=1,
                             base_seed=base_seed, m_iter=5))
        assert table.metadata["series_stats"] == want

    def test_deterministic_and_worker_invariant(self):
        cfg = _cfg(snr_grid_db=(1.0, 5.0), n_trials=1, m_iter=60)
        a = run_ser(cfg, threads=1)
        b = run_ser(cfg, threads=2)
        for label in a.series:
            np.testing.assert_array_equal(a.series[label], b.series[label])
        assert a.metadata["series_stats"] == b.metadata["series_stats"]


class TestStreamLayout:
    @pytest.mark.parametrize("base_seed", [20260818, 2 ** 32 + 5])
    def test_designed_draws_are_seeded_twice(self, base_seed):
        # a channel or symbol key names a one-int seed that default_rng
        # hashes again, not the stream of SeedSequence(key) itself
        cfg = _cfg(base_seed=base_seed, snr_convention="raw")
        trials = (0, 5)
        for trial, (channel, symbols) in zip(
                trials, montecarlo._trial_instances(cfg, trials)):
            keys = [(base_seed, trial, purpose) for purpose in (1, 2)]
            seeds = [int(np.random.SeedSequence(key)
                         .generate_state(1, np.uint64)[0]) for key in keys]
            np.testing.assert_array_equal(
                channel.matrix, draw_channel(2, 4, rng_seed=seeds[0]).matrix)
            np.testing.assert_array_equal(
                symbols.symbols,
                draw_symbols(2, 8, "qpsk", rng_seed=seeds[1]).symbols)
            one_stage = np.random.default_rng(np.random.SeedSequence(keys[0]))
            assert not np.array_equal(
                channel.matrix, draw_channel(2, 4, rng_seed=one_stage).matrix)


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
        # the (trial, point, series) key of every noise stream built
        streams = []
        real = montecarlo._streams

        def spy(keys):
            streams.extend((key[1], *key[3:]) for key in keys
                           if key[2:3] == (montecarlo._PURPOSE_NOISE,))
            return real(keys)

        monkeypatch.setattr(montecarlo, "_streams", spy)
        return streams

    def test_a_ccdf_grid_is_one_stack_with_one_reference(self, monkeypatch):
        stacks = self._spy(monkeypatch, "solve")
        references = self._spy(monkeypatch, "chirp_reference")
        run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                      n_trials=5, m_iter=20))
        assert [len(specs) for specs in stacks] == [5 * 4]
        assert len(references) == 1

    def test_a_ccdf_sweep_draws_each_trial_once(self, monkeypatch):
        channels = self._spy(monkeypatch, "draw_channel")
        rescales = self._spy(monkeypatch, "zero_forcing_target")
        # solve builds one target per trial, shared by its grid rows
        targets = self._spy(monkeypatch, "zero_forcing_target", admm)
        n_trials = 5
        run_ccdf(_cfg(rho_grid=(0.5, 1.0), eta_grid_db=(3.0, 4.8),
                      n_trials=n_trials, m_iter=20))
        assert len(channels) == n_trials
        assert len(rescales) == n_trials
        assert len(targets) == n_trials

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
        run_ser(_cfg(snr_grid_db=(0.0,), n_trials=1, m_iter=20))
        assert stacks and all(len(specs) == 64 for specs in stacks)

    def test_ser_counts_detect_once_and_match_the_per_point_loop(
            self, monkeypatch):
        cfg = _cfg(snr_grid_db=(0.0, 3.0, 6.0, 9.0))
        sigma2s = tuple(10.0 ** (-s / 10.0) for s in cfg.snr_grid_db)
        open_points = np.array([True, True, False, True])
        trials, series = [4, 9], 0
        sent = np.stack([draw_symbols(2, 8, "qpsk", rng_seed=seed).symbols
                         for seed in (3, 5)])
        received = 0.8 * sent + 0.1
        detect = montecarlo.detect_qpsk
        detections = self._spy(monkeypatch, "detect_qpsk")
        streams = self._noise_streams(monkeypatch)
        counts = montecarlo._ser_counts(cfg, sigma2s, open_points, trials,
                                        received, sent, series)
        assert len(detections) == 2
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
                rng = np.random.default_rng(np.random.SeedSequence(
                    [cfg.base_seed, trial, montecarlo._PURPOSE_NOISE, p,
                     series]))
                noise = (rng.standard_normal(sent[i].shape)
                         + 1j * rng.standard_normal(sent[i].shape))
                noise *= math.sqrt(sigma2 / 2.0)
                row.append(int(np.count_nonzero(
                    detect(received[i] + noise) != detect(sent[i]))))
            want.append(row)
        assert counts.tolist() == want

    def test_ser_noise_streams_only_for_points_open_at_batch_start(
            self, monkeypatch):
        streams = self._noise_streams(monkeypatch)
        table = run_ser(_cfg(snr_grid_db=(0.0, 4.0, 8.0), n_trials=1,
                             m_iter=20))
        batch = 64  # the single-worker batch of _accumulate_ser
        run = 0
        for name, series in (("designed", montecarlo._SERIES_DESIGNED),
                             ("zero_mui", montecarlo._SERIES_ZERO_MUI)):
            used = table.metadata["series_stats"][name]["trials"]
            # a point is open at the start of the batch beginning at trial
            # t exactly when it absorbed trial t; every batch is full, as
            # the symbol cap is far away
            want = 0
            for t in range(0, max(used), batch):
                want += batch * sum(n > t for n in used)
                run += batch
            assert sum(key[-1] == series for key in streams) == want
        assert len(streams) < run * len(table.axis_values)


def _accumulate_ser_per_row(chunk_fn, n_points, symbols_per_trial):
    """The per-row loop that the batch cut of _accumulate_ser replaced,
    kept as its reference (one worker, batches of 64)."""
    errors = np.zeros(n_points, dtype=np.int64)
    symbols = np.zeros(n_points, dtype=np.int64)
    trials_used = np.zeros(n_points, dtype=np.int64)
    still_open = np.ones(n_points, dtype=bool)
    cap = math.ceil(montecarlo._MAX_SYMBOLS / symbols_per_trial)
    t = 0
    while np.any(still_open) and t < cap:
        hi = min(t + 64, cap)
        for row in chunk_fn(still_open.copy(), range(t, hi)):
            errors[still_open] += row[still_open]
            symbols[still_open] += symbols_per_trial
            trials_used[still_open] += 1
            still_open &= ~((errors >= montecarlo._MIN_ERRORS)
                            | (symbols >= montecarlo._MAX_SYMBOLS))
            if not np.any(still_open):
                break
        t = hi
    return errors, trials_used


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


class TestSerStoppingRule:
    # per-trial error rates: 30 closes a point within a few trials, 1.6
    # near the end of the first batch of 64, 1 in the second, 0.3 seldom
    # before the symbol cap, 0 never
    RATES = (0.0, 0.3, 1.0, 1.6, 4.0, 30.0)

    def _compare(self, seed, rates, symbols_per_trial):
        cap = math.ceil(montecarlo._MAX_SYMBOLS / symbols_per_trial)
        counts = np.random.default_rng(seed).poisson(
            rates, size=(cap, len(rates)))
        batches = {"cut": [], "loop": []}

        def chunk_fn(log, open_points, trials):
            log.append((open_points.tolist(), list(trials)))
            rows = counts[list(trials)]
            # a point closed at batch start gets a count never to be read
            return np.where(open_points, rows, rows + 1)

        got = montecarlo._accumulate_ser(
            partial(chunk_fn, batches["cut"]), len(rates), symbols_per_trial,
            threads=1)
        want = _accumulate_ser_per_row(
            partial(chunk_fn, batches["loop"]), len(rates), symbols_per_trial)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert batches["cut"] == batches["loop"]
        return got[1].tolist()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           rates=st.lists(st.sampled_from(RATES), min_size=1, max_size=4),
           symbols_per_trial=st.integers(3_000, 1_000_001))
    def test_batch_cut_matches_the_per_row_loop(self, seed, rates,
                                                symbols_per_trial):
        self._compare(seed, rates, symbols_per_trial)

    def test_points_close_mid_batch_in_a_later_batch_and_at_the_cap(self):
        # 7,000 symbols per trial cap a point at 143 trials: batches of
        # 64, 64 and 15
        trials = self._compare(3, [30.0, 1.0, 0.3], 7_000)
        assert trials[0] < 64
        assert 64 < trials[1] < 128
        assert trials[2] == 143
