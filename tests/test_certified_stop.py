"""The duality bound of every solve and the certified stop that uses it.

The bound is held against an oracle: with the PAPR cap inactive
(eta = N*L) and the similarity ball active, the best block has a closed
form.  Instances are built backwards from a chosen optimum and its
multipliers, so the oracle and the duals that attain the bound are both
known.  The bound takes w in the solver's slot layout; it is held bit
for bit to the same bound written with w as per-sample pairs
(``reference_admm``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isacwave import kpi, montecarlo
from isacwave.admm import ProblemSpec, lower_bound, solve, zero_forcing_target
from isacwave.montecarlo import ExperimentConfig, draw_instance
from isacwave.signal_model import (
    chirp_reference,
    draw_channel,
    draw_symbols,
    lift,
)

import reference_admm as ref


def _closed_form(c, x0, epsilon):
    """argmin ||x - c||^2 on ||x|| = 1, ||x - x0|| <= epsilon."""
    direction = c / np.linalg.norm(c)
    if np.linalg.norm(direction - x0) <= epsilon:
        return direction
    # on the sphere, ||x - x0|| = epsilon means x^T x0 = delta
    delta = 1.0 - epsilon ** 2 / 2.0
    perpendicular = c - (c @ x0) * x0
    return (delta * x0 + np.sqrt(1.0 - delta ** 2)
            * perpendicular / np.linalg.norm(perpendicular))


def _instance(rng, n_total, epsilon, a, b):
    """Lifted target c, reference x0, the optimum on the ball's edge, and
    multipliers u = a x*, v = b (x* - x0)/epsilon that satisfy its KKT
    conditions: the target is x* + (u + v)/2."""
    dim = 2 * n_total
    x0 = rng.standard_normal(dim)
    x0 /= np.linalg.norm(x0)
    e = rng.standard_normal(dim)
    e -= (e @ x0) * x0
    e /= np.linalg.norm(e)
    delta = 1.0 - epsilon ** 2 / 2.0
    x_star = delta * x0 + np.sqrt(1.0 - delta ** 2) * e
    u = a * x_star
    v = b * (x_star - x0) / epsilon
    return x_star + (u + v) / 2.0, x0, x_star, u, v


_SCALES = st.sampled_from((0.0, 1e-3, 0.1, 1.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(n_total=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       epsilon=st.floats(0.05, 1.9), a=st.floats(0.05, 3.0),
       b=st.floats(0.05, 3.0), scales=st.tuples(_SCALES, _SCALES))
def test_bound_never_exceeds_the_optimum_and_meets_it_at_the_kkt_duals(
        n_total, seed, epsilon, a, b, scales):
    rng = np.random.default_rng(seed)
    c, x0, x_star, _, v = _instance(rng, n_total, epsilon, a, b)
    eta = float(n_total)  # every unit block meets the cap
    best = _closed_form(c, x0, epsilon)
    np.testing.assert_allclose(best, x_star, atol=1e-9)
    optimum = float(np.sum((best - c) ** 2))
    slack = 1e-9 * (1.0 + optimum)

    # random duals around the attaining ones: along the target, along the
    # reference and off their plane
    dim = 2 * n_total
    mix = rng.standard_normal(3)
    dv = mix[0] * c + mix[1] * x0 + mix[2] * rng.standard_normal(dim)
    w = scales[1] * rng.standard_normal(dim)
    bound = lower_bound(v + scales[0] * dv, w, c, x0, epsilon, eta)
    assert bound <= optimum + slack

    # the instance's own ball multiplier attains it (zero duality gap)
    attained = lower_bound(v, np.zeros(dim), c, x0, epsilon, eta)
    assert attained >= optimum - slack


@settings(max_examples=100, deadline=None)
@given(batch=st.sampled_from(((), (1,), (3,), (40,), (256,))),
       n_total=st.sampled_from((1, 4, 64, 80)),
       seed=st.integers(0, 2 ** 32 - 1), scale=_SCALES,
       per_row=st.booleans())
def test_the_slot_layout_bound_is_the_pair_layout_bound_bitwise(
        batch, n_total, seed, scale, per_row):
    # tolerance 0: each disc norm is the same two-term dot product in
    # either layout, summed in the same order
    rng = np.random.default_rng(seed)
    dim = 2 * n_total
    v, c, x0 = (rng.standard_normal(batch + (dim,)) for _ in range(3))
    pairs = scale * rng.standard_normal(batch + (n_total, 2))
    epsilon, eta = 1.0, float(n_total)
    if per_row and batch:
        epsilon = rng.uniform(0.1, 2.0, batch)
        eta = rng.uniform(1.0, n_total, batch)
    np.testing.assert_array_equal(
        lower_bound(v, ref.scatter_pairs(pairs), c, x0, epsilon, eta),
        ref.lower_bound(v, pairs, c, x0, epsilon, eta))


N, K, L = 4, 2, 16


def _spec(seed, **kw):
    channel = draw_channel(K, N, rng_seed=1000 + seed)
    symbols = draw_symbols(K, L, "qpsk", rng_seed=2000 + seed)
    return ProblemSpec(channel=channel, symbols=symbols,
                       reference=chirp_reference(N, L), **kw)


@pytest.mark.parametrize("tolerance", [1e-2, 1e-3, 1e-6])
def test_every_stopped_design_is_feasible_and_certified(tolerance):
    combos = [(e, h) for e in (0.5, 1.0, 1.5) for h in (1.5, 3.0)]
    specs = [_spec(i, epsilon=combos[i % 6][0], eta=combos[i % 6][1],
                   feasibility_tolerance=tolerance, max_iterations=600)
             for i in range(36)]
    stopped = [r for r in solve(specs) if r.iterations_run < 600]
    assert len(stopped) >= len(specs) // 2
    for result in stopped:
        assert result.constraint_violations.max() <= tolerance
        assert result.certified_gap <= 1e-8
        assert result.iterations_run % 10 == 0


def test_a_design_without_early_stop_runs_its_budget():
    spec = _spec(3, epsilon=1.0, eta=3.0, max_iterations=300)
    assert solve(spec).iterations_run < 300
    result = solve(replace(spec, early_stop=False))
    assert result.iterations_run == 300
    # the bound is reported either way, from the final duals
    assert result.certified_gap <= 1e-8


def test_a_sweep_spec_runs_m_iter_iterations(monkeypatch):
    cfg = ExperimentConfig(n_antennas=N, k_users=K, n_samples=L,
                           rho_grid=(1.0,), eta_grid=(3.0,),
                           epsilon_grid=(1.0,), snr_grid_db=(10.0,),
                           n_trials=6, m_iter=300, snr_convention="raw")
    # the (spec, result) of every row the sweep solves
    solved = []
    real = montecarlo.solve

    def spy(specs):
        results = real(specs)
        solved.extend(zip(specs, results))
        return results

    monkeypatch.setattr(montecarlo, "solve", spy)
    montecarlo._solve_trials(cfg, [(1.0, 3.0, 1.0)], False,
                             lambda channels, symbols, blocks: blocks,
                             range(6))
    assert [r.iterations_run for _, r in solved] == [300] * 6
    # the same instances under the default certified stop end sooner
    reference = chirp_reference(N, L)
    certified = solve([
        ProblemSpec(channel=spec.channel, symbols=spec.symbols,
                    reference=reference, epsilon=1.0, eta=3.0,
                    max_iterations=300, rho_schedule="fixed")
        for spec, _ in solved])
    assert min(r.iterations_run for r in certified) < 300


def _design_spec(convention, channel_seed, symbol_seed, **kw):
    """A spec drawn as the design command draws it; N, K and L are the
    shipped design's."""
    channel, symbols = draw_instance(N, K, L, "qpsk", convention,
                                     channel_seed, symbol_seed)
    return ProblemSpec(channel=channel, symbols=symbols,
                       reference=chirp_reference(N, L), **kw)


@pytest.mark.parametrize("convention", ["raw", "zf-normalized"])
def test_no_exactly_feasible_design_lies_below_its_bound(convention):
    rng = np.random.default_rng(5)
    specs = [_design_spec(convention, 3000 + i, 4000 + i,
                          epsilon=float(rng.uniform(0.3, 2.0)),
                          eta=float(rng.uniform(1.2, 6.0)),
                          max_iterations=400, early_stop=False)
             for i in range(24)]
    exact = [r for r in solve(specs)
             if r.constraint_violations.max() <= 1e-12]
    assert len(exact) >= 5
    for result in exact:
        # weak duality, up to the rounding of a block 1e-12 off the sets
        assert result.objective >= (result.lower_bound
                                    - 1e-9 * (1.0 + result.objective))


def test_a_zf_normalized_design_stops_certified():
    # the shipped design's instance under the zf-normalized convention
    result = solve(_design_spec("zf-normalized", 7, 8, epsilon=1.0, eta=2.0))
    assert result.iterations_run < 2000
    assert result.constraint_violations.max() <= 1e-3
    assert result.certified_gap <= 1e-8


def test_a_design_whose_target_is_feasible_stops_within_150_iterations():
    # the objective goes to 0 there, so only the gap's floor lets it stop
    specs = [_design_spec("zf-normalized", 1000 + i, 2000 + i, epsilon=2.0,
                          eta=3.0) for i in range(20)]
    feasible_target = [
        spec for spec in specs
        if kpi.papr(zero_forcing_target(spec.channel, spec.symbols)) <= 3.0]
    assert len(feasible_target) >= 5
    for result in solve(feasible_target):
        assert result.objective < 1e-6
        assert result.iterations_run <= 150
        assert result.certified_gap <= 1e-8


def test_a_raw_design_with_a_loose_g_stops_before_its_budget():
    # at these seeds the splitting's full dual g (see the admm docstring)
    # leaves a gap of 0.0176 after 2000 iterations
    result = solve(_design_spec("raw", 1054964403, 2849148001, epsilon=1.0,
                                eta=2.0))
    assert result.iterations_run < 2000
    assert result.constraint_violations.max() <= 1e-3
    assert result.certified_gap <= 1e-8


def test_a_pinned_design_reports_the_bound_of_zero_duals():
    spec = _design_spec("raw", 7, 8, epsilon=0.0, eta=2.0)
    result = solve(spec)
    assert result.iterations_run == 0
    target = lift(zero_forcing_target(spec.channel, spec.symbols))
    # the bound at v = w = 0 is (1 - ||c||)^2, below the objective
    # ||x0 - c||^2 by the triangle inequality
    expected = (1.0 - np.linalg.norm(target)) ** 2
    assert result.lower_bound == pytest.approx(expected, rel=1e-12)
    assert result.lower_bound <= result.objective
