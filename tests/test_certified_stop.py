"""The duality bound of every solve and the certified stop that uses it.

The bound is held against an oracle: with the PAPR cap inactive
(eta = N*L) and the similarity ball active, the best block has a closed
form.  Instances are built backwards from a chosen optimum and its
multipliers, so the oracle and the duals that attain the bound are both
known.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isacwave import montecarlo
from isacwave.admm import ProblemSpec, lower_bound, solve
from isacwave.montecarlo import ExperimentConfig
from isacwave.signal_model import (
    ArrayConfig,
    chirp_reference,
    draw_channel,
    draw_symbols,
)


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
       b=st.floats(0.05, 3.0), scales=st.tuples(_SCALES, _SCALES, _SCALES))
def test_bound_never_exceeds_the_optimum_and_meets_it_at_the_kkt_duals(
        n_total, seed, epsilon, a, b, scales):
    rng = np.random.default_rng(seed)
    c, x0, x_star, u, v = _instance(rng, n_total, epsilon, a, b)
    eta = float(n_total)  # every unit block meets the cap
    best = _closed_form(c, x0, epsilon)
    np.testing.assert_allclose(best, x_star, atol=1e-9)
    optimum = float(np.sum((best - c) ** 2))
    slack = 1e-9 * (1.0 + optimum)

    # random duals around the attaining ones: along the target, along the
    # reference and off their plane
    dim = 2 * n_total
    mix = rng.standard_normal(6)
    du = mix[0] * c + mix[1] * x0 + mix[2] * rng.standard_normal(dim)
    dv = mix[3] * c + mix[4] * x0 + mix[5] * rng.standard_normal(dim)
    w = scales[2] * rng.standard_normal((n_total, 2))
    g = lower_bound(u + scales[0] * du, v + scales[1] * dv, w, c, x0,
                    epsilon, eta)
    assert g <= optimum + slack

    # the instance's own multipliers attain it (zero duality gap)
    attained = lower_bound(u, v, np.zeros((n_total, 2)), c, x0, epsilon, eta)
    assert attained >= optimum - slack


N, K, L = 4, 2, 16


def _spec(seed, **kw):
    channel = draw_channel(K, ArrayConfig(n_antennas=N), noise_variance=0.1,
                           rng_seed=1000 + seed)
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


def test_a_sweep_spec_runs_m_iter_iterations():
    cfg = ExperimentConfig(n_antennas=N, k_users=K, n_samples=L,
                           rho_grid=(1.0,), eta_grid=(3.0,),
                           epsilon_grid=(1.0,), snr_grid_db=(10.0,),
                           n_trials=6, m_iter=300, snr_convention="raw")
    solved = montecarlo._solve_trials(cfg, [(1.0, 3.0, 1.0)], range(6))
    assert [r.iterations_run for _, _, r in solved] == [300] * 6
    # the same instances under the default certified stop end sooner
    reference = chirp_reference(N, L)
    certified = solve([
        ProblemSpec(channel=channel, symbols=symbols, reference=reference,
                    epsilon=1.0, eta=3.0, max_iterations=300,
                    rho_schedule="fixed")
        for channel, symbols, _ in solved])
    assert min(r.iterations_run for r in certified) < 300
