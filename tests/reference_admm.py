"""The ADMM iteration written step by step, the reference of the solver.

`isacwave.admm` runs the splitting as one fused loop (`admm._iterate`)
that works each phase over the sphere, the ball and the PAPR discs in a
single numpy call.  This module keeps the same iteration as separate
step functions: the closed-form x-update, the three projections and the
dual ascent, plus the augmented Lagrangian the x-update minimises.  The
tests hold each step to an independent oracle and hold the fused loop
to these steps bit for bit (`test_solve_stack.py`), so the loop must
keep every operand order written here.

The solver holds the disc auxiliary gamma and its dual w in the slot
layout of x_bar.  The steps here hold them as per-sample (Re, Im) pairs,
the layout of the paper's per-sample discs, and this module defines that
layout (`coupling_pairs`, `scatter_pairs`) together with the duality
bound written in it (`lower_bound`).  The steps reach the solver's row
norms as `admm.<name>`.  The file name does not match pytest's test
patterns; it is imported by the tests, not collected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from isacwave import admm


def coupling_pairs(x_bar: np.ndarray) -> np.ndarray:
    """Per-sample (Re, Im) pairs of a lifted vector, shape (..., N*L, 2)."""
    half = x_bar.shape[-1] // 2
    pairs = np.empty(x_bar.shape[:-1] + (half, 2))
    pairs[..., 0] = x_bar[..., :half]
    pairs[..., 1] = x_bar[..., half:]
    return pairs


def scatter_pairs(pairs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`coupling_pairs`: place pairs back into slots."""
    return pairs.swapaxes(-1, -2).reshape(pairs.shape[:-2] + (-1,))


def lower_bound(
    v: np.ndarray,
    w: np.ndarray,
    x_bar_comm: np.ndarray,
    x_bar_0: np.ndarray,
    epsilon,
    eta,
) -> np.ndarray:
    """The duality bound g_lin of `admm.lower_bound`, with w as pairs.

    w has shape (..., N*L, 2); the disc sum takes each pair's norm as a
    row norm, and the sphere term places w back into slots.
    """
    n_total = w.shape[-2]
    constraints = (np.vecdot(v, x_bar_0)
                   + admm._per_row(epsilon, 0) * admm._row_norm(v)
                   + np.sqrt(admm._per_row(eta, 0) / n_total)
                   * np.add.reduce(admm._row_norm(w), axis=-1))
    return (1.0 + np.vecdot(x_bar_comm, x_bar_comm)
            - admm._row_norm(2.0 * x_bar_comm - v - scatter_pairs(w))
            - constraints)


class DegenerateProjectionError(ValueError):
    """Projection argument has no defined direction (zero vector)."""


@dataclass
class AdmmState:
    """Iterate of the splitting: primal block, auxiliaries, duals.

    gamma and w hold one (Re, Im) pair per sample, shape (N*L, 2); the
    pair for sample n corresponds to slots (n, N*L + n) of x_bar.  A
    stack of independent instances carries leading batch axes on every
    array: x_bar of shape (T, 2*N*L), gamma of shape (T, N*L, 2).
    """

    x_bar: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def initial(cls, n_total: int, batch: tuple = ()) -> "AdmmState":
        """All-zero start, with leading batch axes of shape ``batch``."""
        vector = tuple(batch) + (2 * n_total,)
        pairs = tuple(batch) + (n_total, 2)
        return cls(
            x_bar=np.zeros(vector),
            alpha=np.zeros(vector),
            beta=np.zeros(vector),
            gamma=np.zeros(pairs),
            u=np.zeros(vector),
            v=np.zeros(vector),
            w=np.zeros(pairs),
        )


def x_update(
    state: AdmmState, rho, x_bar_comm: np.ndarray, x_bar_0: np.ndarray
) -> np.ndarray:
    """Closed-form minimizer of the augmented objective in x_bar.

    The objective is quadratic with Hessian (2 + 3*rho) * I because the
    per-sample selectors partition the lifted coordinates, so the
    minimizer is the weighted average of the communication pull and the
    three constraint pulls, shifted by the duals.  Acts on the trailing
    axis; rho is a scalar or one value per row.
    """
    rho = admm._per_row(rho, 1)
    pull = (
        2.0 * x_bar_comm
        - state.u
        - state.v
        - scatter_pairs(state.w)
        + rho * (state.alpha + x_bar_0 + state.beta + scatter_pairs(state.gamma))
    )
    return pull / (2.0 + 3.0 * rho)


def alpha_update(
    x_bar_new: np.ndarray,
    u: np.ndarray,
    rho,
    fallback: np.ndarray | None = None,
) -> np.ndarray:
    """Project x_bar + u/rho onto the unit-energy sphere, row by row.

    A zero argument has no nearest point on the sphere; the previous
    auxiliary can be supplied as a fallback for such rows, otherwise
    this raises.
    """
    t = x_bar_new + u / admm._per_row(rho, 1)
    norm = admm._row_norm(t)
    degenerate = norm < 1e-12
    if not np.count_nonzero(degenerate):
        return t / norm[..., None]
    if fallback is None:
        raise DegenerateProjectionError(
            "cannot project the zero vector onto the unit sphere"
        )
    projected = t / np.where(degenerate, 1.0, norm)[..., None]
    return np.where(degenerate[..., None], fallback, projected)


def beta_update(
    x_bar_new: np.ndarray,
    x_bar_0: np.ndarray,
    v: np.ndarray,
    rho,
    epsilon,
) -> np.ndarray:
    """Project (x_bar - x0_bar) + v/rho onto the epsilon-ball, row by row."""
    t = x_bar_new - x_bar_0 + v / admm._per_row(rho, 1)
    epsilon = admm._per_row(epsilon, 0)
    # epsilon / max(norm, epsilon) is exactly 1 inside the ball; the
    # floor keeps a zero row at epsilon = 0 from dividing 0 by 0
    divisor = np.maximum(np.maximum(admm._row_norm(t), epsilon), admm._TINY)
    return t * (epsilon / divisor)[..., None]


def gamma_update(
    x_bar_new: np.ndarray,
    w: np.ndarray,
    rho,
    eta,
    n_total: int,
) -> np.ndarray:
    """Project each per-sample pair onto its energy disc.

    Pair n of coupling_pairs(x_bar) + w/rho is kept when its squared
    norm is at most eta/(N*L) and radially shrunk onto the boundary
    otherwise.  Boundary points are members, not violations.  eta is a
    scalar or one value per row.
    """
    # the pairs' Re and Im parts, computed in the slots of x_bar
    t = x_bar_new + scatter_pairs(w) / admm._per_row(rho, 1)
    re, im = t[..., :n_total], t[..., n_total:]
    cap = admm._per_row(eta, 1) / n_total
    # exactly 1 for pairs inside the disc (cap / cap), a zero pair included
    scale = np.sqrt(cap / np.maximum(re * re + im * im, cap))
    pairs = np.empty(t.shape[:-1] + (n_total, 2))
    np.multiply(re, scale, out=pairs[..., 0])
    np.multiply(im, scale, out=pairs[..., 1])
    return pairs


def dual_updates(
    state: AdmmState,
    energy_gap: np.ndarray,
    similarity_gap: np.ndarray,
    papr_gap: np.ndarray,
    rho,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascend the three duals along the new iterate's consensus gaps."""
    rho_row = admm._per_row(rho, 1)
    u = state.u + rho_row * energy_gap
    v = state.v + rho_row * similarity_gap
    w = state.w + admm._per_row(rho, 2) * papr_gap
    return u, v, w


def augmented_lagrangian(
    x_bar: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    gamma: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    rho: float,
    x_bar_comm: np.ndarray,
    x_bar_0: np.ndarray,
) -> float:
    """Augmented objective whose x_bar-minimizer is :func:`x_update`.

    Quadratic communication cost plus linear dual terms and rho/2 times
    the squared consensus residuals of the three couplings.
    """
    r_energy = x_bar - alpha
    r_similarity = x_bar - x_bar_0 - beta
    r_papr = coupling_pairs(x_bar) - gamma
    value = (
        np.linalg.norm(x_bar - x_bar_comm) ** 2
        + u @ r_energy
        + v @ r_similarity
        + np.sum(w * r_papr)
        + 0.5
        * rho
        * (
            np.linalg.norm(r_energy) ** 2
            + np.linalg.norm(r_similarity) ** 2
            + np.sum(r_papr * r_papr)
        )
    )
    return float(value)
