"""One solve for one instance or a stack of instances.

A stack is solved row by row in one loop, so every row must come out
exactly as it does alone, whatever rows surround it.  The reference
test holds the row-batched loop against a plain one-instance loop kept
here as the oracle, and the step-function tests hold the fused
iteration bitwise to a loop composed of the reference step functions
(``reference_admm``).
"""

import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from isacwave import admm, cli, montecarlo
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

import reference_admm as ref


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
    """The fixed-rho stack loop composed of the reference step functions.

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
    state = ref.AdmmState.initial(n_total, batch=(n_rows,))
    history = []
    for _ in range(specs[0].max_iterations):
        state.x_bar = ref.x_update(state, rho, x_comm, x_0)
        state.alpha = ref.alpha_update(state.x_bar, state.u, rho,
                                       fallback=state.alpha)
        state.beta = ref.beta_update(state.x_bar, x_0, state.v, rho, epsilon)
        state.gamma = ref.gamma_update(state.x_bar, state.w, rho, eta,
                                       n_total)
        energy_gap = state.x_bar - state.alpha
        similarity_gap = state.x_bar - x_0 - state.beta
        papr_gap = ref.coupling_pairs(state.x_bar) - state.gamma
        history.append((
            np.sqrt(np.vecdot(energy_gap, energy_gap)),
            np.sqrt(np.vecdot(similarity_gap, similarity_gap)),
            np.sqrt(np.add.reduce((papr_gap * papr_gap).reshape(n_rows, -1),
                                  axis=-1)),
        ))
        state.u, state.v, state.w = ref.dual_updates(
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


@pytest.fixture(scope="module")
def solve_counting_cuts():
    """solve(specs) and the (rows in the stack, rows kept) of each cut it
    made."""
    keep = admm._Stack.keep

    def run(specs):
        cuts = []

        def counting_keep(stack, rows):
            cuts.append((stack.rows.size, int(np.count_nonzero(rows))))
            return keep(stack, rows)

        with mock.patch.object(admm._Stack, "keep", counting_keep):
            return solve(specs), cuts

    return run


@pytest.mark.parametrize("seed, controls, stop, running_on", [
    # passes the certified stop at iteration 260, at its initial rho; run
    # on, it would stall and double rho at the check at iteration 400
    (1, dict(rho=0.5, feasibility_tolerance=1e-2), 260,
     ((0, 0.5), (400, 1.0))),
    # stops at iteration 200, the rho check at which neighbour 1000
    # doubles its rho: the stop comes first, then the rho check
    (2, dict(), 200, ((0, 1.0),)),
], ids=["stop-then-stall", "stop-at-a-rho-check"])
def test_a_stopped_row_takes_no_later_rho_doubling(
        solve_counting_cuts, seed, controls, stop, running_on):
    # both neighbours run the whole budget, so two of the three rows run
    # on and the stack is never cut: the stopped row stays in it, so every
    # later rho check must leave its rho and trajectory alone, and each
    # row must come out bitwise as it does alone
    budget = dict(max_iterations=400, rho_schedule="adaptive")
    stopping = _spec(4, 2, 16, seed, epsilon=1.0, eta=1.5, **controls,
                     **budget)
    stalling = [_spec(4, 2, 16, neighbour, epsilon=0.5, eta=1.5, rho=1.0,
                      early_stop=False, **budget)
                for neighbour in (1000, 1001)]
    alone = solve(stopping)
    assert alone.iterations_run == stop
    assert alone.rho_trajectory == ((0, stopping.rho),)
    assert (solve(replace(stopping, early_stop=False)).rho_trajectory
            == running_on)
    (stacked, *neighbours), cuts = solve_counting_cuts([stopping] + stalling)
    assert cuts == []
    assert [r.iterations_run for r in neighbours] == [400, 400]
    assert neighbours[0].rho_trajectory == ((0, 1.0), (200, 2.0))
    _assert_same(stacked, alone)
    for whole, spec in zip(neighbours, stalling):
        _assert_same(whole, solve(spec))


def test_a_stack_of_pinned_rows_runs_no_iteration(monkeypatch):
    # the loop checks feasibility every _STOP_CHECK_EVERY iterations, and
    # every stack reports its rows' violations once, at the end
    calls = []
    violations = admm._violations

    def counting_violations(*args):
        calls.append(1)
        return violations(*args)

    monkeypatch.setattr(admm, "_violations", counting_violations)
    pinned = [_spec(4, 2, 16, seed, epsilon=0.0, eta=2.0, max_iterations=50)
              for seed in range(3)]
    for spec, result in zip(pinned, solve(pinned)):
        np.testing.assert_array_equal(result.waveform.entries,
                                      spec.reference.entries)
        assert result.iterations_run == 0
    assert calls == [1]
    # the loop runs once a row needs it, and only that row
    mixed = solve(pinned + [_spec(4, 2, 16, 3, epsilon=1.0, eta=2.0,
                                  max_iterations=50)])
    assert [r.residual_history.papr.size for r in mixed] == [0, 0, 0, 50]


def test_a_stack_of_chunk_size_is_its_rows_solved_apart():
    # a sweep designs up to _CHUNK_ROWS rows as one stack, where the
    # loop's buffers run past 128 KB; its rows must still come out as
    # they do in smaller stacks and alone
    n_rows = montecarlo._CHUNK_ROWS
    instances = [_spec(4, 2, 16, seed, epsilon=1.0, eta=2.0)
                 for seed in range(16)]
    specs = [replace(instances[i % 16], rho=(0.1, 0.5, 1.0, 5.0)[i % 4],
                     eta=(1.0, 1.5, 3.0, 8.0)[i // 4 % 4],
                     epsilon=(0.5, 1.0, 1.5)[i % 3], max_iterations=30,
                     rho_schedule=("fixed", "adaptive")[i // 16 % 2],
                     early_stop=bool(i // 32 % 2))
             for i in range(n_rows)]
    stacked = solve(specs)
    quarter = n_rows // 4
    apart = [result for lo in range(0, n_rows, quarter)
             for result in solve(specs[lo:lo + quarter])]
    for whole, part in zip(stacked, apart):
        _assert_same(whole, part)
    for i in (0, n_rows // 2 - 1, n_rows - 1):
        _assert_same(stacked[i], solve(specs[i]))



def test_rows_of_mixed_user_counts_share_a_stack():
    # the zero-forcing targets of each user count come from their own
    # stacked call; the rows still come out as they do alone
    specs = [_spec(4, k, 8, seed, epsilon=1.0, eta=2.0, max_iterations=40)
             for seed, k in enumerate((2, 1, 2, 3, 1))]
    for stacked, spec in zip(solve(specs), specs):
        _assert_same(stacked, solve(spec))

def _zf_spec(seed, **kw):
    """A zf-normalized instance on 4 x 16 blocks serving 2 users."""
    channel, symbols = montecarlo.draw_instance(
        4, 2, 16, "qpsk", "zf-normalized", seed, seed + 1)
    return ProblemSpec(channel=channel, symbols=symbols,
                       reference=chirp_reference(4, 16), **kw)


_certifying = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "epsilon": st.sampled_from((1.5, 2.0)),
    "rho_schedule": st.sampled_from(("fixed", "adaptive")),
})
_budget_running = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "epsilon": st.sampled_from((0.5, 1.0, 1.5)),
    "rho": st.sampled_from((0.5, 1.0, 5.0)),
    "rho_schedule": st.sampled_from(("fixed", "adaptive")),
})


@settings(max_examples=50, deadline=None)
@given(certifying=st.lists(_certifying, min_size=1, max_size=6),
       budget_running=st.lists(_budget_running, min_size=1, max_size=3),
       pinned=st.integers(0, 2), max_iterations=st.integers(30, 220),
       order=st.randoms(use_true_random=False))
def test_rows_that_leave_the_stack_match_their_single_solves(
        solve_counting_cuts, certifying, budget_running, pinned,
        max_iterations, order):
    # zf-normalized rows at eta 3 and epsilon 1.5 or 2 mostly certify by
    # iteration 40; rows at the constant-modulus cap eta = 1 never do,
    # and pinned rows end at iteration 0.  Once at most half the rows
    # still run, the running rows move to a smaller stack, and again
    # each time that holds of the smaller stack
    def design(row, **kw):
        return _zf_spec(row["seed"], epsilon=row["epsilon"],
                        rho_schedule=row["rho_schedule"],
                        max_iterations=max_iterations, **kw)

    specs = ([design(row, eta=3.0) for row in certifying]
             + [design(row, eta=1.0, rho=row["rho"])
                for row in budget_running]
             + [replace(design(certifying[0], eta=3.0), epsilon=0.0)
                for _ in range(pinned)])
    order.shuffle(specs)
    alone = [solve(spec) for spec in specs]
    ended = sum(r.iterations_run < max_iterations for r in alone)
    assume(2 * ended >= len(specs))
    assert any(r.iterations_run == max_iterations for r in alone)
    stacked, cuts = solve_counting_cuts(specs)
    assert cuts and all(0 < kept <= size // 2 for size, kept in cuts)
    for whole, single in zip(stacked, alone):
        _assert_same(whole, single)


def test_a_cut_at_the_budget_still_ends_the_rows_that_run_on():
    # the certifying row stops at the last iteration of the budget, which
    # leaves half the stack running: the cut there must not skip the end
    # of the row that runs the whole budget
    stopping = _zf_spec(0, epsilon=1.5, eta=3.0)
    budget = solve(stopping).iterations_run
    assert budget < stopping.max_iterations
    specs = [replace(stopping, max_iterations=budget),
             _zf_spec(2, epsilon=1.0, eta=1.0, max_iterations=budget)]
    stacked = solve(specs)
    assert [r.iterations_run for r in stacked] == [budget, budget]
    for whole, spec in zip(stacked, specs):
        _assert_same(whole, solve(spec))


def test_a_row_that_survives_two_cuts_matches_its_single_solve(
        solve_counting_cuts):
    # six certifying rows stop at 110, 40, 40, 90, 40 and 60 iterations;
    # the row at the constant-modulus cap runs the whole budget.  The
    # stop at 60 leaves three of seven rows running, the stop at 110 one
    # of three, so that row's residual history crosses two cuts
    specs = ([_zf_spec(seed, epsilon=(1.5, 2.0)[seed % 2], eta=3.0,
                       max_iterations=200) for seed in range(6)]
             + [_zf_spec(9, epsilon=1.0, eta=1.0, max_iterations=200)])
    alone = [solve(spec) for spec in specs]
    assert ([r.iterations_run for r in alone]
            == [110, 40, 40, 90, 40, 60, 200])
    stacked, cuts = solve_counting_cuts(specs)
    assert cuts == [(7, 3), (3, 1)]
    for whole, single in zip(stacked, alone):
        _assert_same(whole, single)


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


def _shipped_ccdf_specs(grid_points, max_iterations):
    """Eight trials of the shipped ccdf sweep, each designed at the given
    (rho, eta) points of its grid with the sweep's fixed rho, as one
    stack would hold them."""
    shipped = json.loads((Path(__file__).resolve().parent.parent / "configs"
                          / "ccdf.json").read_text())
    cfg = cli._experiment_config(
        cli._resolve_section("experiment", shipped["experiment"]))
    channels, symbols = montecarlo._trial_draws(cfg, range(8))
    reference = chirp_reference(cfg.n_antennas, cfg.n_samples)
    [epsilon] = cfg.epsilon_grid
    return [ProblemSpec(channel=ChannelRealization(h), symbols=SymbolBlock(s),
                        reference=reference, epsilon=epsilon,
                        eta=cfg.eta_grid[j], rho=cfg.rho_grid[i],
                        max_iterations=max_iterations, rho_schedule="fixed",
                        early_stop=False)
            for h, s in zip(channels, symbols) for i, j in grid_points]


@pytest.mark.parametrize("grid_points", [
    # rho {0.1, 1} x eta {0, 8.5 dB}: rho and the disc cap differ between
    # rows, so the loop holds them as full rows
    [(0, 0), (0, 1), (1, 0), (1, 1)],
    # one grid point: every row shares rho and the cap, held as floats
    [(1, 1)],
], ids=["whole-grid", "one-point"])
def test_the_kernel_is_the_step_functions_on_the_shipped_ccdf_grid(
        grid_points):
    # tolerance 0, at the rows, blocks and weights of the benchmarked
    # ccdf request
    _assert_is_the_step_function_loop(_shipped_ccdf_specs(grid_points, 120))


@pytest.mark.parametrize("certifying_rho", [None, (0.5, 2.0)],
                         ids=["shared-rho", "mixed-rho"])
def test_full_width_weights_follow_their_rows_through_doublings_and_cuts(
        solve_counting_cuts, monkeypatch, certifying_rho):
    # the loop holds rho, 2 + 3 rho and the disc cap as full rows, or as
    # floats while every row shares one value.  Adaptive rows double rho
    # at the checks at 200, 300 and 400, fixed rows never do, and the
    # zf-normalized rows at eta 3 stop certified by iteration 140, so
    # that half the stack ends and the running rows move to a smaller
    # one, whose rows then share rho and the cap until the next doubling
    budget = dict(max_iterations=400)
    adaptive = [_spec(4, 2, 16, seed, epsilon=epsilon, eta=1.5, rho=1.0,
                      early_stop=False, rho_schedule="adaptive", **budget)
                for seed, epsilon in ((1000, 0.5), (1002, 0.5), (1006, 0.5),
                                      (1015, 0.5), (1017, 1.0))]
    fixed = [_spec(4, 2, 16, seed, epsilon=0.5, eta=1.5, rho=1.0,
                   early_stop=False, rho_schedule="fixed", **budget)
             for seed in (1001, 1003)]
    certifying = [_zf_spec(seed, epsilon=(1.5, 2.0)[seed % 2], eta=3.0,
                           rho=(1.0 if certifying_rho is None
                                else certifying_rho[seed % 2]), **budget)
                  for seed in range(7)]
    specs = [spec for pair in zip(certifying, adaptive + fixed)
             for spec in pair]
    alone = [solve(spec) for spec in specs]
    assert ({r.rho_trajectory[1:] for r in alone[1::2]}
            == {((200, 2.0),), ((300, 2.0),), ((200, 2.0), (300, 4.0)),
                ((400, 2.0),), ((200, 2.0), (400, 4.0)), ()})
    assert max(r.iterations_run for r in alone[::2]) <= 140
    weights = []
    full_width = admm._full_width

    def recording_full_width(value, width):
        weights.append(full_width(value, width))
        return weights[-1]

    monkeypatch.setattr(admm, "_full_width", recording_full_width)
    stacked, cuts = solve_counting_cuts(specs)
    assert cuts == [(14, 7)]
    assert {type(w) for w in weights} == {float, np.ndarray}
    for whole, single in zip(stacked, alone):
        _assert_same(whole, single)
