"""Update-rule contracts: closed forms, projections, duals.

Derived expectations are recomputed here by independent oracles:
central finite differences for stationarity of the x-update and random
feasible-candidate search for projection optimality.
"""

import numpy as np
import pytest

from isacwave import admm
from isacwave.signal_model import (
    chirp_reference,
    draw_channel,
    draw_symbols,
)


def _gaps(x_bar, alpha, beta, gamma, x_bar_0):
    """The three consensus gaps that dual_updates ascends along."""
    return (x_bar - alpha, x_bar - x_bar_0 - beta,
            admm.coupling_pairs(x_bar) - gamma)


def _random_state(rng, n_total):
    dim = 2 * n_total
    return admm.AdmmState(
        x_bar=rng.standard_normal(dim),
        alpha=rng.standard_normal(dim),
        beta=rng.standard_normal(dim),
        gamma=rng.standard_normal((n_total, 2)),
        u=rng.standard_normal(dim),
        v=rng.standard_normal(dim),
        w=rng.standard_normal((n_total, 2)),
    )


def _fd_gradient(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def test_x_update_from_all_zero_state():
    # With every auxiliary and dual at zero the pull reduces to the
    # communication target and the reference, averaged by 2 + 3*rho.
    n_total = 6
    rng = np.random.default_rng(0)
    xbc = rng.standard_normal(2 * n_total)
    xb0 = rng.standard_normal(2 * n_total)
    state = admm.AdmmState.initial(n_total)
    for rho in (0.1, 1.0, 5.0):
        got = admm.x_update(state, rho, xbc, xb0)
        np.testing.assert_allclose(got, (2 * xbc + rho * xb0) / (2 + 3 * rho))


def test_x_update_single_sample_by_hand():
    # One complex sample, x_bar_comm = x_bar_0 = [1, 0], rho = 1:
    # the averaged pull is [3, 0] / 5.
    state = admm.AdmmState.initial(1)
    got = admm.x_update(state, 1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(got, [0.6, 0.0])


def test_x_update_zeroes_the_augmented_gradient():
    # Finite-difference oracle: the closed form must be a stationary
    # point of the augmented objective for arbitrary states.
    rng = np.random.default_rng(1)
    n_total = 3
    for _ in range(5):
        state = _random_state(rng, n_total)
        rho = float(rng.uniform(0.1, 5.0))
        xbc = rng.standard_normal(2 * n_total)
        xb0 = rng.standard_normal(2 * n_total)
        x_new = admm.x_update(state, rho, xbc, xb0)

        def objective(x):
            return admm.augmented_lagrangian(
                x, state.alpha, state.beta, state.gamma,
                state.u, state.v, state.w, rho, xbc, xb0,
            )

        grad = _fd_gradient(objective, x_new)
        assert np.max(np.abs(grad)) <= 1e-5


def test_alpha_update_lands_on_the_unit_sphere():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(8)
        u = rng.standard_normal(8)
        rho = float(rng.uniform(0.2, 3.0))
        a = admm.alpha_update(x, u, rho)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        t = x + u / rho
        np.testing.assert_allclose(a, t / np.linalg.norm(t))


def test_alpha_update_degenerate_argument():
    zeros = np.zeros(4)
    with pytest.raises(admm.DegenerateProjectionError):
        admm.alpha_update(zeros, zeros, 1.0)
    prev = np.array([1.0, 0.0, 0.0, 0.0])
    got = admm.alpha_update(zeros, zeros, 1.0, fallback=prev)
    np.testing.assert_array_equal(got, prev)
    assert got is not prev


def test_beta_update_identity_inside_ball_and_radial_outside():
    x0 = np.zeros(4)
    v = np.zeros(4)
    inside = np.array([0.1, 0.2, 0.0, 0.0])
    np.testing.assert_array_equal(admm.beta_update(inside, x0, v, 1.0, 1.0), inside)
    outside = np.array([3.0, 4.0, 0.0, 0.0])
    got = admm.beta_update(outside, x0, v, 1.0, 1.0)
    np.testing.assert_allclose(got, [0.6, 0.8, 0.0, 0.0])
    # boundary points are members and stay untouched
    boundary = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(admm.beta_update(boundary, x0, v, 1.0, 1.0), boundary)


def test_gamma_update_projects_each_sample_pair():
    n_total = 3
    x_bar = np.array([3.0, 0.05, 0.0, 4.0, 0.05, 0.1])  # pairs (3,4), (.05,.05), (0,.1)
    w = np.zeros((n_total, 2))
    eta = 3.0  # cap per sample: eta / n_total = 1
    got = admm.gamma_update(x_bar, w, 1.0, eta, n_total)
    np.testing.assert_allclose(got[0], [0.6, 0.8])  # norm 5 shrunk to 1
    np.testing.assert_array_equal(got[1], [0.05, 0.05])
    np.testing.assert_array_equal(got[2], [0.0, 0.1])


def test_projection_updates_beat_random_feasible_candidates():
    # Optimality oracle in low dimension: no random feasible point may
    # be closer to the projection argument than the returned point.
    rng = np.random.default_rng(3)
    n_candidates = 2000
    for trial in range(10):
        dim = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.2, 3.0))

        x = rng.standard_normal(dim) * rng.uniform(0.5, 2)
        u = rng.standard_normal(dim)
        t = x + u / rho
        proj = admm.alpha_update(x, u, rho)
        cand = rng.standard_normal((n_candidates, dim))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        assert np.min(np.linalg.norm(cand - t, axis=1)) >= np.linalg.norm(proj - t) - 1e-12

        eps = float(rng.uniform(0.2, 2.0))
        x0 = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        t = x - x0 + v / rho
        proj = admm.beta_update(x, x0, v, rho, eps)
        direction = rng.standard_normal((n_candidates, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = eps * rng.uniform(0, 1, size=(n_candidates, 1)) ** (1.0 / dim)
        cand = direction * radius
        assert np.min(np.linalg.norm(cand - t, axis=1)) >= np.linalg.norm(proj - t) - 1e-12

    # per-sample discs are two-dimensional by construction
    for trial in range(10):
        n_total = int(rng.integers(1, 5))
        eta = float(rng.uniform(1.0, 2.0 * n_total))
        x_bar = rng.standard_normal(2 * n_total)
        w = rng.standard_normal((n_total, 2))
        rho = float(rng.uniform(0.2, 3.0))
        t = admm.coupling_pairs(x_bar) + w / rho
        proj = admm.gamma_update(x_bar, w, rho, eta, n_total)
        cap = np.sqrt(eta / n_total)
        for n in range(n_total):
            direction = rng.standard_normal((n_candidates, 2))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            cand = direction * (cap * np.sqrt(rng.uniform(0, 1, size=(n_candidates, 1))))
            best = np.min(np.linalg.norm(cand - t[n], axis=1))
            assert best >= np.linalg.norm(proj[n] - t[n]) - 1e-12


def test_dual_updates_follow_the_residuals():
    rng = np.random.default_rng(4)
    n_total = 4
    state = _random_state(rng, n_total)
    rho = 0.7
    x_new = rng.standard_normal(2 * n_total)
    a_new = rng.standard_normal(2 * n_total)
    b_new = rng.standard_normal(2 * n_total)
    g_new = rng.standard_normal((n_total, 2))
    xb0 = rng.standard_normal(2 * n_total)
    u, v, w = admm.dual_updates(
        state, *_gaps(x_new, a_new, b_new, g_new, xb0), rho)
    np.testing.assert_allclose(u, state.u + rho * (x_new - a_new))
    np.testing.assert_allclose(v, state.v + rho * (x_new - xb0 - b_new))
    np.testing.assert_allclose(w, state.w + rho * (admm.coupling_pairs(x_new) - g_new))


def test_dual_updates_fixed_under_zero_residuals():
    rng = np.random.default_rng(5)
    n_total = 3
    state = _random_state(rng, n_total)
    xb0 = rng.standard_normal(2 * n_total)
    x = state.x_bar
    u, v, w = admm.dual_updates(
        state, *_gaps(x, x.copy(), x - xb0, admm.coupling_pairs(x), xb0), 2.0
    )
    np.testing.assert_array_equal(u, state.u)
    np.testing.assert_array_equal(v, state.v)
    np.testing.assert_array_equal(w, state.w)


def test_each_consensus_gap_is_formed_once_per_iteration(monkeypatch):
    # the residual norms and the dual ascent share one set of gaps, so
    # the pair layout of x_bar is built once per iteration, not twice
    calls = []
    pairs = admm.coupling_pairs
    monkeypatch.setattr(admm, "coupling_pairs",
                        lambda x_bar: calls.append(1) or pairs(x_bar))
    n_antennas, n_samples = 2, 4
    spec = admm.ProblemSpec(
        channel=draw_channel(1, n_antennas, rng_seed=1),
        symbols=draw_symbols(1, n_samples, "qpsk", rng_seed=2),
        reference=chirp_reference(n_antennas, n_samples),
        epsilon=1.0, eta=2.0, max_iterations=7,
    )
    result = admm.solve(spec)
    assert result.iterations_run == 7
    assert len(calls) == 7


def test_coupling_pairs_matches_explicit_selector_matrices():
    # Reference implementation with explicit 2*N*L selector matrices;
    # the pair representation must agree bitwise (selector rows only
    # add zeros, which is exact in floating point).
    rng = np.random.default_rng(6)
    n_total = 5
    dim = 2 * n_total
    x_bar = rng.standard_normal(dim)
    selectors = []
    for n in range(n_total):
        f = np.zeros((dim, dim))
        f[n, n] = 1.0
        f[n_total + n, n_total + n] = 1.0
        selectors.append(f)
    # sum of selectors is the identity: the slots partition the lifting
    np.testing.assert_array_equal(sum(selectors), np.eye(dim))
    pairs = admm.coupling_pairs(x_bar)
    for n, f in enumerate(selectors):
        full = f @ x_bar
        np.testing.assert_array_equal(full[n], pairs[n, 0])
        np.testing.assert_array_equal(full[n_total + n], pairs[n, 1])
    np.testing.assert_array_equal(admm.scatter_pairs(pairs), x_bar)


def test_augmented_lagrangian_matches_manual_expansion():
    rng = np.random.default_rng(7)
    n_total = 2
    state = _random_state(rng, n_total)
    rho = 1.3
    xbc = rng.standard_normal(4)
    xb0 = rng.standard_normal(4)
    x = state.x_bar
    pairs = admm.coupling_pairs(x)
    want = (
        np.linalg.norm(x - xbc) ** 2
        + state.u @ (x - state.alpha)
        + state.v @ (x - xb0 - state.beta)
        + np.sum(state.w * (pairs - state.gamma))
        + rho / 2 * np.linalg.norm(x - state.alpha) ** 2
        + rho / 2 * np.linalg.norm(x - xb0 - state.beta) ** 2
        + rho / 2 * np.sum((pairs - state.gamma) ** 2)
    )
    got = admm.augmented_lagrangian(
        x, state.alpha, state.beta, state.gamma,
        state.u, state.v, state.w, rho, xbc, xb0,
    )
    assert abs(got - want) < 1e-12


def test_steps_on_a_stack_equal_the_steps_on_each_row():
    # every step acts on the trailing axis, with rho, epsilon and eta
    # given per row; each row must match the 1-D call bitwise
    rng = np.random.default_rng(8)
    n_total, rows = 5, 4
    states = [_random_state(rng, n_total) for _ in range(rows)]
    stack = admm.AdmmState(**{
        field: np.stack([getattr(s, field) for s in states])
        for field in ("x_bar", "alpha", "beta", "gamma", "u", "v", "w")
    })
    rho = rng.uniform(0.2, 3.0, rows)
    epsilon = rng.uniform(0.1, 3.0, rows)
    eta = rng.uniform(1.0, n_total, rows)
    xbc = rng.standard_normal((rows, 2 * n_total))
    xb0 = rng.standard_normal((rows, 2 * n_total))

    got = (
        admm.x_update(stack, rho, xbc, xb0),
        admm.alpha_update(stack.x_bar, stack.u, rho),
        admm.beta_update(stack.x_bar, xb0, stack.v, rho, epsilon),
        admm.gamma_update(stack.x_bar, stack.w, rho, eta, n_total),
        *admm.dual_updates(stack, *_gaps(stack.x_bar, stack.alpha,
                                         stack.beta, stack.gamma, xb0), rho),
        admm.coupling_pairs(stack.x_bar),
        admm.scatter_pairs(stack.gamma),
    )
    for i, s in enumerate(states):
        want = (
            admm.x_update(s, rho[i], xbc[i], xb0[i]),
            admm.alpha_update(s.x_bar, s.u, rho[i]),
            admm.beta_update(s.x_bar, xb0[i], s.v, rho[i], epsilon[i]),
            admm.gamma_update(s.x_bar, s.w, rho[i], eta[i], n_total),
            *admm.dual_updates(s, *_gaps(s.x_bar, s.alpha, s.beta, s.gamma,
                                         xb0[i]), rho[i]),
            admm.coupling_pairs(s.x_bar),
            admm.scatter_pairs(s.gamma),
        )
        for batched, single in zip(got, want):
            np.testing.assert_array_equal(batched[i], single)


def test_degenerate_rows_of_a_stack():
    x = np.array([[0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 4.0, 0.0]])
    zeros = np.zeros_like(x)
    with pytest.raises(admm.DegenerateProjectionError):
        admm.alpha_update(x, zeros, np.array([1.0, 1.0]))
    prev = np.full_like(x, 0.5)
    with np.errstate(all="raise"):
        alpha = admm.alpha_update(x, zeros, np.array([1.0, 1.0]),
                                  fallback=prev)
        # a zero row at epsilon = 0 and zero pairs inside the disc
        beta = admm.beta_update(x, zeros, zeros, 1.0, np.array([0.0, 1.0]))
        gamma = admm.gamma_update(x, np.zeros((2, 2, 2)), 1.0, 2.0, 2)
    np.testing.assert_array_equal(alpha[0], prev[0])
    np.testing.assert_array_equal(beta[0], zeros[0])
    np.testing.assert_array_equal(gamma[0], np.zeros((2, 2)))
    for projected in (alpha[1], beta[1], gamma[1].T.ravel()):
        np.testing.assert_allclose(projected, [0.6, 0.0, 0.8, 0.0])
