"""One solve for one instance or a stack of instances.

A stack is solved row by row in one loop, so every row must come out
exactly as it does alone, whatever rows surround it.  The reference
test holds the row-batched loop against a plain one-instance loop kept
here as the oracle, and the step-function tests hold the fused
iteration bitwise to a loop composed of the public step functions.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isacwave import admm
from isacwave.admm import ProblemSpec, solve, zero_forcing_target
from isacwave.signal_model import (
    ChannelRealization,
    ReferenceWaveform,
    SymbolBlock,
    chirp_reference,
    draw_channel,
    draw_symbols,
    lift,
    unlift,
    unvec,
)


def _spec(n, k, n_samples, seed, **kw):
    channel = draw_channel(k, n, rng_seed=seed)
    symbols = draw_symbols(k, n_samples, "qpsk", rng_seed=seed + 7919)
    return ProblemSpec(channel=channel, symbols=symbols,
                       reference=chirp_reference(n, n_samples), **kw)


def _assert_same(a, b):
    np.testing.assert_array_equal(a.waveform.entries, b.waveform.entries)
    for field in ("energy", "similarity", "papr"):
        np.testing.assert_array_equal(getattr(a.residual_history, field),
                                      getattr(b.residual_history, field))
    assert a.iterations_run == b.iterations_run
    assert a.rho_trajectory == b.rho_trajectory
    assert a.objective == b.objective
    assert a.lower_bound == b.lower_bound
    assert a.constraint_violations == b.constraint_violations


_rows = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "epsilon": st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
    "eta_share": st.floats(0.0, 1.0),
    "rho": st.floats(0.05, 5.0),
    "rho_schedule": st.sampled_from(("fixed", "adaptive")),
    "early_stop": st.booleans(),
    "feasibility_tolerance": st.sampled_from((1e-2, 1e-3, 1e-6)),
})


class TestStackedRowsMatchSingleSolves:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), k=st.integers(1, 2),
           n_samples=st.integers(2, 6), max_iterations=st.integers(1, 250),
           rows=st.lists(_rows, min_size=1, max_size=6),
           cuts=st.lists(st.integers(1, 5), max_size=3))
    def test_stack_split_and_single_solves_agree_bitwise(
            self, n, k, n_samples, max_iterations, rows, cuts):
        n_total = n * n_samples
        specs = [
            _spec(n, k, n_samples, row["seed"], epsilon=row["epsilon"],
                  eta=1.0 + row["eta_share"] * (n_total - 1.0),
                  rho=row["rho"], max_iterations=max_iterations,
                  rho_schedule=row["rho_schedule"],
                  early_stop=row["early_stop"],
                  feasibility_tolerance=row["feasibility_tolerance"])
            for row in rows
        ]
        stacked = solve(specs)
        assert isinstance(stacked, list) and len(stacked) == len(specs)
        bounds = sorted({c for c in cuts if c < len(specs)})
        split = [result
                 for lo, hi in zip([0] + bounds, bounds + [len(specs)])
                 for result in solve(specs[lo:hi])]
        for spec, whole, part in zip(specs, stacked, split):
            alone = solve(spec)
            _assert_same(whole, alone)
            _assert_same(part, alone)


def _reference_loop(spec):
    """The one-instance fixed-rho splitting, written out step by step."""
    n_total = spec.n_total
    rho, epsilon = spec.rho, spec.epsilon
    cap = spec.eta / n_total
    x_comm = lift(zero_forcing_target(spec.channel, spec.symbols))
    x_0 = spec.reference.lifted

    def pairs(v):
        return np.column_stack((v[:n_total], v[n_total:]))

    def scatter(p):
        return np.concatenate((p[:, 0], p[:, 1]))

    x = alpha = beta = u = v = np.zeros(2 * n_total)
    gamma = w = np.zeros((n_total, 2))
    history = []
    for _ in range(spec.max_iterations):
        x = (2.0 * x_comm - u - v - scatter(w)
             + rho * (alpha + x_0 + beta + scatter(gamma))) / (2.0 + 3.0 * rho)
        t = x + u / rho
        alpha = t / np.linalg.norm(t)
        t = x - x_0 + v / rho
        norm = np.linalg.norm(t)
        beta = t if norm <= epsilon else t * (epsilon / norm)
        t = pairs(x) + w / rho
        sq = np.sum(t * t, axis=1)
        scale = np.ones_like(sq)
        outside = sq > cap
        scale[outside] = np.sqrt(cap / sq[outside])
        gamma = t * scale[:, None]
        history.append((np.linalg.norm(x - alpha),
                        np.linalg.norm(x - x_0 - beta),
                        np.sqrt(np.sum((pairs(x) - gamma) ** 2))))
        u = u + rho * (x - alpha)
        v = v + rho * (x - x_0 - beta)
        w = w + rho * (pairs(x) - gamma)
    return unlift(x), np.array(history).T


def test_stacked_solve_matches_the_one_instance_loop():
    # tolerance fixed before the comparison: a few ulps of unit-scale
    # iterates accumulated over 300 iterations
    tolerance = 1e-12
    combos = [(e, h) for e in (0.5, 1.0, 1.5) for h in (1.5, 3.0, 8.0)]
    specs = [
        _spec(4, 2, 16, 300 + i, epsilon=combos[i % 9][0],
              eta=combos[i % 9][1], rho=(0.5, 1.0, 2.0)[i % 3],
              max_iterations=300, rho_schedule="fixed", early_stop=False)
        for i in range(20)
    ]
    for spec, result in zip(specs, solve(specs)):
        x, history = _reference_loop(spec)
        assert np.max(np.abs(result.waveform.vec - x)) <= tolerance
        got = np.array([result.residual_history.energy,
                        result.residual_history.similarity,
                        result.residual_history.papr])
        assert got.shape == history.shape
        assert np.max(np.abs(got - history)) <= tolerance


def _step_function_loop(specs):
    """The fixed-rho stack loop composed of the public step functions.

    Each iteration is x_update, the three projections (the sphere with
    its previous value as fallback), the consensus gaps with the PAPR
    gap in pair layout, their norms, and dual_updates, in that order.
    Returns the last iterate and the residual norms, shape
    (iterations, 3, rows).
    """
    n_rows, n_total = len(specs), specs[0].n_total
    x_comm = np.array([lift(zero_forcing_target(s.channel, s.symbols))
                       for s in specs])
    x_0 = np.array([s.reference.lifted for s in specs])
    rho = np.array([s.rho for s in specs])
    epsilon = np.array([s.epsilon for s in specs])
    eta = np.array([s.eta for s in specs])
    state = admm.AdmmState.initial(n_total, batch=(n_rows,))
    history = []
    for _ in range(specs[0].max_iterations):
        state.x_bar = admm.x_update(state, rho, x_comm, x_0)
        state.alpha = admm.alpha_update(state.x_bar, state.u, rho,
                                        fallback=state.alpha)
        state.beta = admm.beta_update(state.x_bar, x_0, state.v, rho, epsilon)
        state.gamma = admm.gamma_update(state.x_bar, state.w, rho, eta,
                                        n_total)
        energy_gap = state.x_bar - state.alpha
        similarity_gap = state.x_bar - x_0 - state.beta
        papr_gap = admm.coupling_pairs(state.x_bar) - state.gamma
        history.append((
            np.sqrt(np.vecdot(energy_gap, energy_gap)),
            np.sqrt(np.vecdot(similarity_gap, similarity_gap)),
            np.sqrt(np.add.reduce((papr_gap * papr_gap).reshape(n_rows, -1),
                                  axis=-1)),
        ))
        state.u, state.v, state.w = admm.dual_updates(
            state, energy_gap, similarity_gap, papr_gap, rho)
    return state.x_bar, np.array(history)


def _assert_is_the_step_function_loop(specs):
    x_bar, history = _step_function_loop(specs)
    for i, (spec, result) in enumerate(zip(specs, solve(specs))):
        n = spec.reference.n_antennas
        if spec.epsilon == 0:
            np.testing.assert_array_equal(result.waveform.entries,
                                          spec.reference.entries)
            assert result.iterations_run == 0
            continue
        np.testing.assert_array_equal(result.waveform.entries,
                                      unvec(unlift(x_bar[i]), n))
        np.testing.assert_array_equal(
            np.array([result.residual_history.energy,
                      result.residual_history.similarity,
                      result.residual_history.papr]),
            history[:, :, i].T)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), n_samples=st.integers(1, 6),
       max_iterations=st.integers(1, 60), data=st.data(),
       rows=st.lists(_rows, min_size=1, max_size=5))
def test_the_kernel_is_the_step_functions_bitwise(n, n_samples,
                                                  max_iterations, data, rows):
    # tolerance 0: the fused iteration keeps every operand order of the
    # step functions, so the waveform and each residual norm agree to the
    # last bit
    k = data.draw(st.integers(1, n), label="k")
    n_total = n * n_samples
    specs = [
        _spec(n, k, n_samples, row["seed"], epsilon=row["epsilon"],
              eta=1.0 + row["eta_share"] * (n_total - 1.0), rho=row["rho"],
              max_iterations=max_iterations, rho_schedule="fixed",
              early_stop=False)
        for row in rows
    ]
    _assert_is_the_step_function_loop(specs)


def _exact_instance(symbols, reference, **kw):
    # identity channel: the zero-forcing block is the symbol block itself
    n = len(reference)
    return ProblemSpec(
        channel=ChannelRealization(np.eye(n, dtype=complex)),
        symbols=SymbolBlock(np.asarray(symbols, dtype=complex)),
        reference=ReferenceWaveform(np.asarray(reference, dtype=complex)),
        max_iterations=150, **kw)


def test_degenerate_rows_in_a_stack_raise_no_warning_and_give_no_nan():
    flat = np.full((2, 2), 0.5)  # unit energy, every entry exactly 0.5
    specs = [
        # first x-update is exactly 0 (2*(-x0) + 2*x0): the sphere
        # projection gets a zero argument and keeps its previous value
        _exact_instance(-flat, flat, epsilon=1.0, eta=2.0, rho=2.0),
        # first x-update is exactly x0 ((2*2*x0 + x0) / 5): the ball
        # projection gets a zero argument
        _exact_instance(2.0 * flat, flat, epsilon=0.5, eta=2.0, rho=1.0),
        # the second sample is zero in both target and reference, so its
        # pairs enter the disc projection as (0, 0)
        _exact_instance([[1.0, 0.0], [1.0, 0.0]],
                        [[np.sqrt(0.5), 0.0], [np.sqrt(0.5), 0.0]],
                        epsilon=1.0, eta=2.0, rho=1.0),
        _spec(2, 2, 2, 5, epsilon=1.0, eta=2.0, max_iterations=150),
    ]
    with np.errstate(all="raise"):
        results = solve(specs)
    for spec, result in zip(specs, results):
        assert np.all(np.isfinite(result.waveform.entries))
        for field in ("energy", "similarity", "papr"):
            assert np.all(np.isfinite(getattr(result.residual_history, field)))
        _assert_same(result, solve(spec))


def test_the_kernel_is_the_step_functions_on_degenerate_rows():
    # a zero sphere argument (alpha keeps its previous value), a zero
    # ball argument and zero disc pairs
    flat = np.full((2, 2), 0.5)
    specs = [
        _exact_instance(-flat, flat, epsilon=1.0, eta=2.0, rho=2.0),
        _exact_instance(2.0 * flat, flat, epsilon=0.5, eta=2.0, rho=1.0),
        _exact_instance([[1.0, 0.0], [1.0, 0.0]],
                        [[np.sqrt(0.5), 0.0], [np.sqrt(0.5), 0.0]],
                        epsilon=1.0, eta=2.0, rho=1.0),
    ]
    specs = [replace(s, rho_schedule="fixed", early_stop=False)
             for s in specs]
    with np.errstate(all="raise"):
        _assert_is_the_step_function_loop(specs)


def test_a_stopped_row_takes_no_later_rho_doubling():
    # the early-stop row passes the certified stop at iteration 260, at
    # its initial rho.  Run on, it would stall and double rho at the
    # check at iteration 400; its neighbour runs the whole budget, so the
    # stack reaches that check.  The stopped row stays in the stack, so
    # the check must leave its rho and trajectory alone, and the row must
    # come out bitwise as it does alone.
    budget = dict(max_iterations=400, rho_schedule="adaptive")
    stopping = _spec(4, 2, 16, 1, epsilon=1.0, eta=1.5, rho=0.5,
                     feasibility_tolerance=1e-2, **budget)
    stalling = _spec(4, 2, 16, 1000, epsilon=0.5, eta=1.5, rho=1.0,
                     early_stop=False, **budget)
    alone = solve(stopping)
    assert alone.iterations_run == 260
    assert alone.rho_trajectory == ((0, 0.5),)
    running_on = solve(replace(stopping, early_stop=False))
    assert running_on.rho_trajectory == ((0, 0.5), (400, 1.0))
    stacked, neighbour = solve([stopping, stalling])
    assert neighbour.iterations_run == 400
    _assert_same(stacked, alone)


def test_a_stack_of_pinned_rows_runs_no_iteration(monkeypatch):
    # the loop builds the pair layout of the PAPR gap once per iteration
    calls = []
    coupling_pairs = admm.coupling_pairs

    def counting_coupling_pairs(*args):
        calls.append(1)
        return coupling_pairs(*args)

    monkeypatch.setattr(admm, "coupling_pairs", counting_coupling_pairs)
    pinned = [_spec(4, 2, 16, seed, epsilon=0.0, eta=2.0, max_iterations=50)
              for seed in range(3)]
    for spec, result in zip(pinned, solve(pinned)):
        np.testing.assert_array_equal(result.waveform.entries,
                                      spec.reference.entries)
        assert result.iterations_run == 0
    assert calls == []
    # the counter sees the loop once a row needs it
    solve(pinned + [_spec(4, 2, 16, 3, epsilon=1.0, eta=2.0,
                          max_iterations=50)])
    assert len(calls) == 50


def test_single_spec_gives_a_result_and_a_list_gives_a_list():
    spec = _spec(4, 2, 16, 1, epsilon=1.0, eta=2.0, max_iterations=20)
    assert not isinstance(solve(spec), list)
    assert len(solve([spec])) == 1
    assert solve([]) == []


@pytest.mark.parametrize("change", [
    dict(n=5), dict(n_samples=8), dict(max_iterations=21),
])
def test_stack_must_share_shape_and_iteration_budget(change):
    base = dict(n=4, n_samples=16, max_iterations=20)
    other = dict(base, **change)
    specs = [
        _spec(base["n"], 2, base["n_samples"], 1, epsilon=1.0, eta=2.0,
              max_iterations=base["max_iterations"]),
        _spec(other["n"], 2, other["n_samples"], 2, epsilon=1.0, eta=2.0,
              max_iterations=other["max_iterations"]),
    ]
    with pytest.raises(ValueError, match="share"):
        solve(specs)
