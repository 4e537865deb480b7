"""Each argument rule is written once and raises one message text from
every object that receives the argument.

Where two objects name the argument differently (``epsilon`` and
``epsilon_grid entries``, ``max_iterations``, ``m_iter`` and
``threads``), the message is the name followed by the same rule text.
"""

import math

import numpy as np
import pytest

from isacwave.admm import RHO_SCHEDULES, ProblemSpec, zero_forcing_target
from isacwave.montecarlo import (
    SNR_CONVENTIONS,
    ExperimentConfig,
    draw_instance,
    run_ccdf,
)
from isacwave.signal_model import (
    ChannelRealization,
    SymbolBlock,
    Waveform,
    chirp_reference,
    draw_channel,
    draw_symbols,
)

N, K, L = 4, 2, 8


def _instance(k_users=K):
    return (draw_channel(k_users, N, rng_seed=1),
            draw_symbols(k_users, L, "qpsk", rng_seed=2))


def _spec(k_users=K, **kw):
    channel, symbols = _instance(k_users)
    fields = dict(channel=channel, symbols=symbols,
                  reference=chirp_reference(N, L), epsilon=1.0, eta=2.0)
    fields.update(kw)
    return ProblemSpec(**fields)


def _cfg(**kw):
    fields = dict(n_antennas=N, k_users=K, n_samples=L, rho_grid=(1.0,),
                  eta_grid=(2.0,), epsilon_grid=(1.0,), snr_grid_db=(10.0,),
                  n_trials=2, m_iter=5)
    fields.update(kw)
    return ExperimentConfig(**fields)


def _message(make) -> str:
    with pytest.raises(ValueError) as raised:
        make()
    return str(raised.value)


def _assert_one_rule(makers: dict, rule: str):
    """Each maker, keyed by the name its object gives the argument,
    raises that name followed by ``rule``."""
    for name, make in makers.items():
        assert _message(make) == f"{name} {rule}"


@pytest.mark.parametrize("k_users", [N + 1, N + 3])
def test_more_users_than_antennas(k_users):
    channel, symbols = _instance(k_users)
    messages = {
        _message(lambda: _spec(k_users)),
        _message(lambda: _cfg(k_users=k_users)),
        _message(lambda: zero_forcing_target(channel, symbols)),
    }
    assert messages == {
        f"need k_users <= n_antennas, got K={k_users} > N={N}"}


@pytest.mark.parametrize("epsilon", [-1.0, math.inf])
def test_similarity_radius(epsilon):
    _assert_one_rule({
        "epsilon": lambda: _spec(epsilon=epsilon),
        "epsilon_grid entries": lambda: _cfg(epsilon_grid=(epsilon,)),
    }, "must be finite and >= 0")


@pytest.mark.parametrize("value", [0.0, math.nan])
def test_penalty_weight_and_tolerance(value):
    _assert_one_rule({
        "rho": lambda: _spec(rho=value),
        "rho_grid entries": lambda: _cfg(rho_grid=(value,)),
        "feasibility_tolerance": lambda: _spec(feasibility_tolerance=value),
    }, "must be finite and > 0")


@pytest.mark.parametrize("count", [0, 2.5, True])
def test_counts(count):
    _assert_one_rule({
        "max_iterations": lambda: _spec(max_iterations=count),
        "m_iter": lambda: _cfg(m_iter=count),
        "threads": lambda: run_ccdf(_cfg(), threads=count),
    }, f"must be an integer >= 1, got {count!r}")


def test_choices():
    assert _message(lambda: _spec(rho_schedule="sometimes")) == (
        f"rho_schedule must be one of {RHO_SCHEDULES}")
    expected = f"snr_convention must be one of {SNR_CONVENTIONS}"
    assert _message(lambda: _cfg(snr_convention="whatever")) == expected
    assert _message(lambda: draw_instance(
        N, K, L, "qpsk", "whatever", 1, 2)) == expected


@pytest.mark.parametrize("wrapper,name,axes", [
    (ChannelRealization, "channel matrix", "users x antennas"),
    (SymbolBlock, "symbols", "users x samples"),
    (Waveform, "waveform entries", "antennas x samples"),
])
def test_complex_matrices(wrapper, name, axes):
    assert _message(lambda: wrapper(np.ones(3))) == (
        f"{name} must be 2-D ({axes})")
    assert _message(lambda: wrapper(np.full((2, 3), np.nan))) == (
        f"{name} must be finite")
