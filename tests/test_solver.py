"""End-to-end tests of the splitting solver and the zero-forcing target."""

import math

import numpy as np
import pytest

from isacwave.admm import (
    ProblemSpec,
    SingularChannelError,
    papr_cap,
    solve,
    zero_forcing_target,
)
from isacwave.signal_model import (
    ChannelRealization,
    ReferenceWaveform,
    SymbolBlock,
    chirp_reference,
    draw_channel,
    draw_symbols,
    unvec,
)

N, K, L = 4, 2, 16
CHIRP = chirp_reference(N, L)


def _instance(seed, k=K, n=N, n_samples=L):
    channel = draw_channel(k, n, rng_seed=seed)
    symbols = draw_symbols(k, n_samples, "qpsk", rng_seed=50000 + seed)
    return channel, symbols


def _cycling_spec(**kw):
    # instance 0 of the acceptance feasibility suite: at a fixed rho = 1
    # it settles into a period-2 orbit with plateaued residuals
    channel = draw_channel(K, N, rng_seed=1000)
    symbols = draw_symbols(K, L, "qpsk", rng_seed=2000)
    defaults = dict(channel=channel, symbols=symbols, reference=CHIRP,
                    epsilon=0.5, eta=1.5, rho=1.0, max_iterations=2000)
    defaults.update(kw)
    return ProblemSpec(**defaults)


def _spec(seed, **kw):
    channel, symbols = _instance(seed)
    defaults = dict(channel=channel, symbols=symbols, reference=CHIRP,
                    epsilon=1.0, eta=2.0, rho=1.0, max_iterations=2000)
    defaults.update(kw)
    return ProblemSpec(**defaults)


class TestProblemSpecValidation:
    def test_antenna_mismatch_rejected(self):
        channel, symbols = _instance(0)
        with pytest.raises(ValueError, match="antennas"):
            ProblemSpec(channel=channel, symbols=symbols,
                        reference=chirp_reference(N + 1, L),
                        epsilon=1.0, eta=2.0)

    def test_user_count_mismatch_rejected(self):
        channel, _ = _instance(0)
        symbols = draw_symbols(K + 1, L, "qpsk", rng_seed=3)
        with pytest.raises(ValueError, match="users"):
            ProblemSpec(channel=channel, symbols=symbols, reference=CHIRP,
                        epsilon=1.0, eta=2.0)

    def test_sample_count_mismatch_rejected(self):
        channel, _ = _instance(0)
        symbols = draw_symbols(K, L + 1, "qpsk", rng_seed=3)
        with pytest.raises(ValueError, match="samples"):
            ProblemSpec(channel=channel, symbols=symbols, reference=CHIRP,
                        epsilon=1.0, eta=2.0)

    def test_more_users_than_antennas_rejected(self):
        channel = draw_channel(5, N, rng_seed=1)
        symbols = draw_symbols(5, L, "qpsk", rng_seed=2)
        with pytest.raises(ValueError, match="k_users <= n_antennas"):
            ProblemSpec(channel=channel, symbols=symbols, reference=CHIRP,
                        epsilon=1.0, eta=2.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            _spec(0, epsilon=-0.1)

    def test_infinite_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            _spec(0, epsilon=math.inf)

    @pytest.mark.parametrize("eta", [0.5, 0.0, N * L + 1.0])
    def test_eta_outside_meaningful_range_rejected(self, eta):
        with pytest.raises(ValueError, match="eta"):
            _spec(0, eta=eta)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf])
    def test_nonpositive_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            _spec(0, rho=rho)

    def test_unknown_rho_schedule_rejected(self):
        with pytest.raises(ValueError, match="rho_schedule"):
            _spec(0, rho_schedule="sometimes")

    def test_zero_iteration_budget_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            _spec(0, max_iterations=0)

    @pytest.mark.parametrize("budget", [2.5, 3.0, True])
    def test_non_integral_iteration_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="max_iterations"):
            _spec(0, max_iterations=budget)

    @pytest.mark.parametrize("n_total", [0, -8])
    def test_papr_cap_rejects_a_block_without_samples(self, n_total):
        with pytest.raises(ValueError, match=r"N\*L must be >= 1"):
            papr_cap(3.0, n_total)

    def test_numpy_integer_iteration_budget_accepted(self):
        result = solve(_spec(0, max_iterations=np.int64(3)))
        assert result.iterations_run == 3

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            _spec(0, feasibility_tolerance=0.0)

    def test_pinned_reference_must_satisfy_papr_cap(self):
        # single antenna, two samples, PAPR = 0.8 / 0.5 = 1.6
        ref = ReferenceWaveform(np.array([[np.sqrt(0.8), np.sqrt(0.2)]],
                                         dtype=complex))
        channel = ChannelRealization(matrix=np.array([[1.0 + 0j]]))
        symbols = SymbolBlock(np.ones((1, 2), dtype=complex) / np.sqrt(2))
        with pytest.raises(ValueError, match="PAPR"):
            ProblemSpec(channel=channel, symbols=symbols, reference=ref,
                        epsilon=0.0, eta=1.5)
        # cap met exactly at the reference's own PAPR: accepted
        ProblemSpec(channel=channel, symbols=symbols, reference=ref,
                    epsilon=0.0, eta=1.6)

    def test_n_total(self):
        assert _spec(0).n_total == N * L


class TestZeroForcingTarget:
    def test_identity_channel_returns_symbols(self):
        channel = ChannelRealization(matrix=np.eye(2, dtype=complex))
        symbols = draw_symbols(2, 5, "qpsk", rng_seed=11)
        target = zero_forcing_target(channel, symbols)
        np.testing.assert_allclose(target,
                                   symbols.symbols.ravel(order="F"))

    def test_diagonal_channel_hand_value(self):
        channel = ChannelRealization(
            matrix=np.diag([1.0, 2.0]).astype(complex))
        symbols = SymbolBlock(np.array([[2.0], [2.0]], dtype=complex))
        target = zero_forcing_target(channel, symbols)
        np.testing.assert_allclose(target, [2.0, 1.0])

    def test_exactly_cancels_interference(self):
        channel, symbols = _instance(21)
        target = zero_forcing_target(channel, symbols)
        received = channel.matrix @ unvec(target, N)
        np.testing.assert_allclose(received, symbols.symbols, atol=1e-10)

    def test_minimum_energy_among_exact_solutions(self):
        channel, symbols = _instance(22)
        h = channel.matrix
        target = unvec(zero_forcing_target(channel, symbols), N)
        rng = np.random.default_rng(5)
        perturb = rng.standard_normal((N, L)) + 1j * rng.standard_normal((N, L))
        null_part = perturb - h.conj().T @ np.linalg.solve(
            h @ h.conj().T, h @ perturb)
        np.testing.assert_allclose(h @ null_part, 0, atol=1e-10)
        assert (np.linalg.norm(target + null_part)
                > np.linalg.norm(target))

    def test_dependent_rows_raise(self):
        row = np.array([1.0 + 1j, 2.0, -1j, 0.5])
        channel = ChannelRealization(matrix=np.vstack([row, 2 * row]))
        symbols = draw_symbols(2, L, "qpsk", rng_seed=1)
        with pytest.raises(SingularChannelError):
            zero_forcing_target(channel, symbols)

    def test_wide_channel_rejected(self):
        channel = draw_channel(5, N, rng_seed=1)
        symbols = draw_symbols(5, L, "qpsk", rng_seed=2)
        with pytest.raises(ValueError):
            zero_forcing_target(channel, symbols)

    def test_row_mismatch_rejected(self):
        channel, _ = _instance(0)
        symbols = draw_symbols(K + 1, L, "qpsk", rng_seed=3)
        with pytest.raises(ValueError):
            zero_forcing_target(channel, symbols)


class TestSolve:
    def test_inactive_constraints_reach_normalized_target(self):
        # similarity radius 2 covers the whole unit sphere and the PAPR cap
        # equals its maximum possible value, so the answer is the communication
        # target scaled onto the sphere
        spec = _spec(400, epsilon=2.0, eta=float(N * L))
        result = solve(spec)
        target = zero_forcing_target(spec.channel, spec.symbols)
        expected = target / np.linalg.norm(target)
        rel_err = np.linalg.norm(result.waveform.vec - expected)
        assert rel_err <= 1e-3
        optimum = (np.linalg.norm(target) - 1.0) ** 2
        assert abs(result.objective - optimum) <= 1e-4

    def test_tiny_similarity_radius_pins_to_reference(self):
        spec = _spec(41, epsilon=1e-6)
        result = solve(spec)
        assert np.linalg.norm(result.waveform.vec - CHIRP.vec) <= 1e-3

    def test_moderate_instance_feasible_at_default_penalty(self):
        channel = draw_channel(K, N, rng_seed=7)
        symbols = draw_symbols(K, L, "qpsk", rng_seed=8)
        spec = ProblemSpec(channel=channel, symbols=symbols, reference=CHIRP,
                           epsilon=1.0, eta=2.0, rho=1.0, max_iterations=2000)
        v = solve(spec).constraint_violations
        assert v.norm_gap <= 1e-3
        assert v.similarity_excess <= 1e-3
        assert v.papr_excess <= 1e-3

    def test_zero_radius_returns_reference_without_iterating(self):
        spec = _spec(42, epsilon=0.0)
        result = solve(spec)
        np.testing.assert_array_equal(result.waveform.entries, CHIRP.entries)
        assert result.iterations_run == 0
        assert result.residual_history.energy.size == 0
        assert result.constraint_violations.max() == 0.0

    def test_deterministic_rerun_is_bitwise_identical(self):
        a = solve(_spec(43))
        b = solve(_spec(43))
        np.testing.assert_array_equal(a.waveform.entries, b.waveform.entries)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.residual_history.energy,
                                      b.residual_history.energy)

    def test_history_lengths_match_iterations_run(self):
        result = solve(_spec(44, max_iterations=137, early_stop=False))
        assert result.iterations_run == 137
        for series in (result.residual_history.energy,
                       result.residual_history.similarity,
                       result.residual_history.papr):
            assert series.shape == (137,)
            assert np.all(np.isfinite(series))

    def test_early_stop_halts_before_budget(self):
        # the stop rule: feasible within the tolerance and certified
        # optimal to a relative 1e-8
        result = solve(_spec(45, early_stop=True, feasibility_tolerance=1e-6))
        assert result.iterations_run < 2000
        assert result.residual_history.energy.size == result.iterations_run
        assert result.constraint_violations.max() <= 1e-6
        assert result.certified_gap <= 1e-8

    def test_early_stop_energy_gap_bounded_by_tolerance(self):
        # the stop rule tests the norm gap the result reports, so a design
        # that stops has it within the tolerance
        tol = 1e-3
        for seed in range(8):
            result = solve(_spec(seed, early_stop=True,
                                 feasibility_tolerance=tol))
            if result.iterations_run < 2000:
                assert result.constraint_violations.norm_gap <= tol

    def test_residuals_shrink_from_first_to_last_iteration(self):
        # statistical contract: the splitting improves feasibility over the
        # run in at least 95% of random instances, across loose and tight
        # constraint combinations.  One stack solves every instance; its
        # rows equal the single solves bitwise (test_solve_stack.py)
        combos = [(e, h) for e in (0.5, 1.0, 1.5) for h in (1.5, 3.0)]
        n_trials = 60
        specs = []
        for i in range(n_trials):
            eps, eta = combos[i % 6]
            specs.append(_spec(100 + i, epsilon=eps, eta=eta))
        improved = 0
        for result in solve(specs):
            h = result.residual_history
            first = max(h.energy[0], h.similarity[0], h.papr[0])
            last = max(h.energy[-1], h.similarity[-1], h.papr[-1])
            improved += (last < first)
        assert improved >= 0.95 * n_trials

    def test_singular_channel_propagates(self):
        row = np.ones(N, dtype=complex)
        channel = ChannelRealization(matrix=np.vstack([row, row]))
        symbols = draw_symbols(K, L, "qpsk", rng_seed=9)
        spec = ProblemSpec(channel=channel, symbols=symbols, reference=CHIRP,
                           epsilon=1.0, eta=2.0)
        with pytest.raises(SingularChannelError):
            solve(spec)

    def test_violation_report_matches_waveform(self):
        result = solve(_spec(46, epsilon=0.8, eta=1.5))
        x = result.waveform.vec
        v = result.constraint_violations
        assert v.norm_gap == pytest.approx(abs(np.linalg.norm(x) ** 2 - 1.0))
        sim = np.linalg.norm(x - CHIRP.vec)
        assert v.similarity_excess == pytest.approx(max(0.0, sim - 0.8))
        peak = np.max(np.abs(x) ** 2)
        mean = np.mean(np.abs(x) ** 2)
        assert v.papr_excess == pytest.approx(max(0.0, peak / mean - 1.5))


class TestRhoSchedule:
    def test_fixed_schedule_stalls_on_cycling_instance(self):
        result = solve(_cycling_spec(rho_schedule="fixed"))
        assert result.rho_trajectory == ((0, 1.0),)
        assert result.constraint_violations.max() > 1e-3
        # the residuals plateau instead of shrinking
        energy = result.residual_history.energy
        assert energy[-1] > 0.1
        assert np.ptp(energy[-100:]) < 1e-6

    def test_adaptive_schedule_ends_the_stall(self):
        result = solve(_cycling_spec(rho_schedule="adaptive"))
        v = result.constraint_violations
        assert v.norm_gap <= 1e-3
        assert v.similarity_excess <= 1e-3
        assert v.papr_excess <= 1.5e-3
        trajectory = result.rho_trajectory
        assert trajectory[0] == (0, 1.0)
        assert len(trajectory) >= 2
        for (it_a, rho_a), (it_b, rho_b) in zip(trajectory, trajectory[1:]):
            assert it_b > it_a and it_b % 100 == 0
            assert rho_b == 2.0 * rho_a

    def test_penalty_weight_stops_at_cap(self):
        # a tiny start on a tighter instance keeps doubling until the cap
        result = solve(_cycling_spec(rho=0.01, epsilon=0.1, eta=1.01))
        weights = [rho for _, rho in result.rho_trajectory]
        assert weights[-1] == 20.0
        assert max(weights) == 20.0
        # a start above the cap is never changed
        result = solve(_cycling_spec(rho=25.0))
        assert result.rho_trajectory == ((0, 25.0),)
