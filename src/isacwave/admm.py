"""Splitting solver for chirp-similar, PAPR-capped transmit blocks.

The design problem: find the block x (vectorized, unit total energy)
closest to the interference-free communication target

    x_comm = vec( H^H (H H^H)^-1 S ),

subject to staying within Euclidean distance epsilon of the radar
reference x0 and keeping the block PAPR at or below eta.  In the real
lifting x_bar = [Re(x); Im(x)] each complex sample n occupies the slot
pair (n, N*L + n); the per-sample energy cap |x_n|^2 <= eta/(N*L) is
equivalent to the block PAPR cap under unit energy and makes every
constraint a cheap Euclidean projection:

* alpha: the unit-energy sphere,
* beta:  the epsilon-ball around x0 (on x - x0),
* gamma: per-sample discs of radius sqrt(eta/(N*L)).

Consensus between x_bar and the three auxiliaries is enforced by dual
vectors u, v, w with a single penalty weight rho.  The duals are
unscaled Lagrange multipliers: they enter every update as u/rho.  One
iteration updates x_bar in closed form (the augmented objective is
quadratic in x_bar), projects the three auxiliaries, then ascends the
duals.  The iterate after the final x-update is returned as designed;
it sits on the constraint sets only up to the reported residuals.

Penalty schedule.  At a fixed rho = 1 a fraction of tightly constrained
instances settles into a period-2 orbit whose residuals plateau instead
of shrinking; a large enough penalty restores convergence on this
nonconvex set.  The "adaptive" schedule therefore doubles rho whenever
the residuals stall (see :data:`RHO_SCHEDULES`).  Because the duals are
unscaled, a change of rho needs no dual rescaling.

Stacks.  :func:`solve` advances independent instances as the rows of one
(T, 2*N*L) stack; one instance is the stack T = 1.  Every step acts on
the trailing axis with one value of rho, epsilon and eta per row, and
every norm is a per-row dot product, so a row's iterates are bitwise
the same whatever rows share its stack.  Rows never leave the stack: a
row that stops early has its iterate and iteration count recorded, and
its later values are never read.  An epsilon = 0 row ends at iteration
0 with the reference as its iterate.

The loop keeps its state splitting-major, in two (4, T, 2*N*L) buffers
[2c, u, v, w] and [x0, alpha, beta, gamma], with w and gamma in the slot
layout of x_bar.  So each phase is one numpy call over the sphere, the
ball and the discs together: the x-update is the alternating sum of
the first buffer plus rho times the sum of the second, the projection
arguments are [u, v, w]/rho + [x, x - x0, x], the consensus gaps are
[x, x - x0, x] - [alpha, beta, gamma], and one call ascends the three
duals.  The step functions (:func:`x_update`, :func:`alpha_update`,
:func:`beta_update`, :func:`gamma_update`, :func:`dual_updates`) are
the loop's reference: it keeps each of their operand orders, and so
their results, to the last bit.

Certified stop.  Minimising the Lagrangian of the splitting over x_bar
and the three constraint sets gives, for any duals (u, v, w), the value

    g = s^T c - ||s||^2/4 - v^T x0 - ||u|| - epsilon ||v||
        - sqrt(eta/(N*L)) sum_n ||w_n||,     s = u + v + P^T w,

with c the lifted target, x0 the lifted reference and P the map from
slots to per-sample pairs (:func:`lower_bound`).  By weak duality g is a
lower bound on the optimum for any duals, nonconvex as the problem is;
the sphere and the unit ball have the same support function, so it
bounds the problem with the ball in place of the sphere too.  It
certifies a design only when the design is feasible: a block inside
the tolerance but off the sets can sit below g.  An early_stop row ends at the
first check iteration, every _STOP_CHECK_EVERY, where its violations
(exactly those the result reports) are within feasibility_tolerance
and its relative gap (f - g)/|f| is at most _CERTIFIED_GAP.  A row
whose gap never closes runs its budget.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kpi
from .signal_model import (
    ChannelRealization,
    ReferenceWaveform,
    SymbolBlock,
    Waveform,
    lift,
    unlift,
    unvec,
    vec,
)


# "fixed" keeps rho for the whole run.  "adaptive" starts at rho and,
# every _RHO_CHECK_EVERY iterations, doubles it (up to _RHO_MAX) when the
# largest primal residual is above _RHO_STALL_FLOOR and has not halved
# since the previous check.
RHO_SCHEDULES = ("fixed", "adaptive")
_RHO_CHECK_EVERY = 100
_RHO_STALL_FLOOR = 1e-4
_RHO_MAX = 20.0

# an early_stop row is tested every _STOP_CHECK_EVERY iterations and
# stops once feasible with a relative certified gap <= _CERTIFIED_GAP
_STOP_CHECK_EVERY = 10
_CERTIFIED_GAP = 1e-8

# relative slack of every PAPR-cap comparison against its range edges;
# it absorbs the roundoff of a dB conversion and of a computed PAPR
_ETA_SLACK = 1e-9

# smallest divisor of a projection; keeps a zero argument finite
_TINY = np.finfo(float).tiny


class SingularChannelError(ValueError):
    """Channel rows are linearly dependent; no interference-free target."""


class DegenerateProjectionError(ValueError):
    """Projection argument has no defined direction (zero vector)."""


@dataclass(frozen=True)
class ProblemSpec:
    """One waveform-design instance plus solver controls.

    epsilon = 0 pins the design to the reference block exactly; it is
    accepted only when the reference itself satisfies the PAPR cap, up
    to the relative roundoff slack of :func:`papr_cap`.  eta is linear
    and can never be active below 1 (PAPR >= 1 always) or above N*L
    (the maximum PAPR of a unit-energy block).  rho is the initial
    penalty weight; rho_schedule (one of RHO_SCHEDULES) says whether it
    stays fixed or adapts to stalling residuals.  early_stop ends the
    solve once the design is feasible within feasibility_tolerance and
    certified optimal to a relative gap of 1e-8; without it the solve
    runs max_iterations.
    """

    channel: ChannelRealization
    symbols: SymbolBlock
    reference: ReferenceWaveform
    epsilon: float
    eta: float
    rho: float = 1.0
    max_iterations: int = 2000
    feasibility_tolerance: float = 1e-3
    early_stop: bool = True
    rho_schedule: str = "adaptive"

    def __post_init__(self) -> None:
        k, n = self.channel.k_users, self.channel.n_antennas
        if self.reference.n_antennas != n:
            raise ValueError(
                f"reference has {self.reference.n_antennas} antennas, channel has {n}"
            )
        if self.symbols.k_users != k:
            raise ValueError(
                f"symbols address {self.symbols.k_users} users, channel has {k}"
            )
        if self.symbols.n_samples != self.reference.n_samples:
            raise ValueError(
                f"symbols span {self.symbols.n_samples} samples, "
                f"reference spans {self.reference.n_samples}"
            )
        if k > n:
            raise ValueError(f"need k_users <= n_antennas, got K={k} > N={n}")
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and >= 0")
        if not 1.0 <= self.eta <= self.n_total:
            raise ValueError(f"eta must lie in [1, N*L] = [1, {self.n_total}]")
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ValueError("rho must be finite and > 0")
        if self.rho_schedule not in RHO_SCHEDULES:
            raise ValueError(f"rho_schedule must be one of {RHO_SCHEDULES}")
        if (isinstance(self.max_iterations, bool)
                or not isinstance(self.max_iterations, numbers.Integral)
                or self.max_iterations < 1):
            raise ValueError("max_iterations must be an integer >= 1")
        if not self.feasibility_tolerance > 0:
            raise ValueError("feasibility_tolerance must be > 0")
        if (self.epsilon == 0 and kpi.papr(self.reference.vec)
                > self.eta * (1.0 + _ETA_SLACK)):
            raise ValueError(
                "epsilon = 0 pins the design to the reference, "
                "but the reference violates the PAPR cap"
            )

    @property
    def n_total(self) -> int:
        """Samples per block, N*L."""
        return self.reference.n_antennas * self.reference.n_samples


def papr_cap(eta: float, n_total: int) -> float:
    """The linear PAPR cap eta, checked for an N*L-sample block.

    A cap outside [1, N*L] by more than a relative 1e-9 is rejected;
    one within that slack is clamped onto the range, so the result is
    always a valid ProblemSpec.eta.  n_total must be at least 1.
    """
    if not n_total >= 1:
        raise ValueError(f"n_total = N*L must be >= 1, got {n_total}")
    if not 1.0 - _ETA_SLACK <= eta <= n_total * (1.0 + _ETA_SLACK):
        raise ValueError(
            f"PAPR cap eta = {eta:g} must lie in [1, N*L] = [1, {n_total}], "
            f"i.e. [0 dB, {10.0 * math.log10(n_total):.2f} dB]"
        )
    return min(max(float(eta), 1.0), float(n_total))


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


def _per_row(value, trailing: int):
    """A scalar or per-row value, shaped to broadcast over ``trailing``
    more axes than the batch axes it is given for.

    A single value comes back as a float: it broadcasts to every row,
    and numpy applies a float faster than a one-element array.
    """
    value = np.asarray(value, dtype=float)
    if value.size == 1:
        return value.item()
    return value[(...,) + (None,) * trailing]


def _row_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing axis.

    Each row is one dot product, the one np.linalg.norm takes of a 1-D
    vector, so a row's norm equals that of the row alone and does not
    depend on the rows stacked with it.
    """
    return np.sqrt(np.vecdot(a, a))


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


def zero_forcing_target(
    channel: ChannelRealization, symbols: SymbolBlock
) -> np.ndarray:
    """Vectorized minimum-energy block with H X = S exactly.

    Computed as vec(H^H (H H^H)^-1 S).  Raises SingularChannelError when
    the Gram matrix H H^H is singular or numerically unusable.
    """
    h = channel.matrix
    s = symbols.symbols
    if channel.k_users > channel.n_antennas:
        raise ValueError("zero forcing needs k_users <= n_antennas")
    if h.shape[0] != s.shape[0]:
        raise ValueError(
            f"channel serves {h.shape[0]} users, symbols address {s.shape[0]}"
        )
    gram = h @ h.conj().T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularChannelError(
            f"channel rows are (numerically) dependent, cond(H H^H) = {cond:.3e}"
        )
    target = h.conj().T @ np.linalg.solve(gram, s)
    return vec(target)


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
    rho = _per_row(rho, 1)
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
    t = x_bar_new + u / _per_row(rho, 1)
    norm = _row_norm(t)
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
    t = x_bar_new - x_bar_0 + v / _per_row(rho, 1)
    epsilon = _per_row(epsilon, 0)
    # epsilon / max(norm, epsilon) is exactly 1 inside the ball; the
    # floor keeps a zero row at epsilon = 0 from dividing 0 by 0
    divisor = np.maximum(np.maximum(_row_norm(t), epsilon), _TINY)
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
    t = x_bar_new + scatter_pairs(w) / _per_row(rho, 1)
    re, im = t[..., :n_total], t[..., n_total:]
    cap = _per_row(eta, 1) / n_total
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
    rho_row = _per_row(rho, 1)
    u = state.u + rho_row * energy_gap
    v = state.v + rho_row * similarity_gap
    w = state.w + _per_row(rho, 2) * papr_gap
    return u, v, w


def lower_bound(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    x_bar_comm: np.ndarray,
    x_bar_0: np.ndarray,
    epsilon,
    eta,
) -> np.ndarray:
    """Lagrangian dual value g(u, v, w), a lower bound on the optimum.

    With s = u + v + P^T w, the Lagrangian of the splitting has its
    minimum over x_bar, s^T c - ||s||^2/4, at x_bar = c - s/2; over the
    sphere, the epsilon-ball and the per-sample discs the dual terms
    contribute -||u||, -v^T x0 - epsilon ||v|| and
    -sqrt(eta/(N*L)) sum_n ||w_n||.  By weak duality g bounds
    min ||x_bar - x_bar_comm||^2 over the feasible set from below for
    any duals.  Acts on the trailing axes, one value per row; epsilon
    and eta are scalars or one value per row.
    """
    n_total = w.shape[-2]
    s = u + v + scatter_pairs(w)
    return (np.vecdot(s, x_bar_comm) - 0.25 * np.vecdot(s, s)
            - np.vecdot(v, x_bar_0) - _row_norm(u)
            - _per_row(epsilon, 0) * _row_norm(v)
            - np.sqrt(_per_row(eta, 0) / n_total)
            * np.add.reduce(_row_norm(w), axis=-1))


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


@dataclass(frozen=True)
class ConstraintViolations:
    """How far the returned block sits from each constraint set."""

    norm_gap: float
    similarity_excess: float
    papr_excess: float

    def max(self) -> float:
        return max(self.norm_gap, self.similarity_excess, self.papr_excess)

    def as_dict(self) -> dict:
        return {
            "norm_gap": self.norm_gap,
            "similarity_excess": self.similarity_excess,
            "papr_excess": self.papr_excess,
        }


@dataclass(frozen=True)
class ResidualHistory:
    """Per-iteration primal residual norms of the three couplings."""

    energy: np.ndarray
    similarity: np.ndarray
    papr: np.ndarray

    def as_dict(self) -> dict:
        return {
            "energy": [float(r) for r in self.energy],
            "similarity": [float(r) for r in self.similarity],
            "papr": [float(r) for r in self.papr],
        }


@dataclass(frozen=True)
class SolveResult:
    """Designed block plus diagnostics of the splitting run.

    lower_bound is :func:`lower_bound` at the final duals: no feasible
    block comes closer to the target than it, so for a feasible design
    certified_gap says how far from optimal the design can be.  An
    epsilon = 0 design keeps the bound of zero duals, 0.  rho_trajectory
    lists the (iteration, rho) change points of the penalty weight: rho
    applies from that iteration (zero-based) on.  It starts with
    (0, spec.rho) and has no further entry under the fixed schedule.
    """

    waveform: Waveform
    objective: float
    lower_bound: float
    constraint_violations: ConstraintViolations
    residual_history: ResidualHistory
    iterations_run: int
    rho_trajectory: tuple

    @property
    def certified_gap(self) -> float:
        """(objective - lower_bound)/|objective|, the one the stop rule
        tests; absolute where the objective is 0."""
        return float(_relative_gap(self.objective, self.lower_bound))


def _relative_gap(objective, bound):
    """(f - g)/|f|, or f - g where f = 0; scalars or one per row."""
    return (objective - bound) / np.where(objective != 0,
                                          np.abs(objective), 1.0)


def _violations(x_bar: np.ndarray, x_bar_0: np.ndarray, epsilon: np.ndarray,
                eta: np.ndarray) -> np.ndarray:
    """Norm gap, similarity excess and PAPR excess of every row, shape
    (3, T): what a result reports, and so what the stop rule tests."""
    n_total = x_bar.shape[-1] // 2
    energy = np.vecdot(x_bar, x_bar)
    re, im = x_bar[..., :n_total], x_bar[..., n_total:]
    peak = np.max(re * re + im * im, axis=-1)
    papr = n_total * peak / np.maximum(energy, _TINY)
    return np.array([np.abs(energy - 1.0),
                     np.maximum(_row_norm(x_bar - x_bar_0) - epsilon, 0.0),
                     np.maximum(papr - eta, 0.0)])


def solve(
    spec: ProblemSpec | Sequence[ProblemSpec],
) -> SolveResult | list[SolveResult]:
    """Design one instance, or a stack of independent instances at once.

    ``solve(spec)`` returns one SolveResult; ``solve([spec, ...])``
    returns the list of SolveResults in the order given.  The instances
    of a stack must share N, L and max_iterations; each keeps its own
    epsilon, eta, rho, rho_schedule, feasibility_tolerance and
    early_stop, and its result does not depend on the other rows.

    Each instance runs the splitting for max_iterations, or with
    early_stop until it is feasible and certified optimal (see the
    module docstring), and returns the final primal block with its
    diagnostics.  An epsilon = 0 instance returns the reference block
    after 0 iterations: the similarity ball is the single point x0,
    feasible by ProblemSpec validation.
    """
    single = isinstance(spec, ProblemSpec)
    specs = [spec] if single else list(spec)
    shapes = {(s.reference.n_antennas, s.reference.n_samples,
               s.max_iterations) for s in specs}
    if len(shapes) > 1:
        raise ValueError(
            "stacked specs must share n_antennas, n_samples and "
            "max_iterations"
        )
    if not specs:
        return []
    x_bar_comm = np.array([lift(zero_forcing_target(s.channel, s.symbols))
                           for s in specs])
    results = [_result(s.reference.n_antennas, *run)
               for s, run in zip(specs, _iterate(specs, x_bar_comm))]
    return results[0] if single else results


def _iterate(specs: list, x_bar_comm: np.ndarray) -> list:
    """Advance a stack of instances, one row each, to their ends.

    A row ends after max_iterations, earlier when it stops certified, or
    at iteration 0 when epsilon = 0 pins it to the reference.  Its
    iterate, duals and iteration count are recorded at its end; after
    that it may go on being advanced with the stack, but its later
    values are never read.  Returns, per row, (x_bar, objective, lower
    bound and the three violations at its end, residual history of shape
    (3, iterations run), rho trajectory).
    """
    n_rows = len(specs)
    n_total = specs[0].n_total
    x_bar_0 = np.array([s.reference.lifted for s in specs])
    rho = np.array([s.rho for s in specs], dtype=float)
    epsilon = np.array([s.epsilon for s in specs], dtype=float)
    eta = np.array([s.eta for s in specs], dtype=float)
    tolerance = np.array([s.feasibility_tolerance for s in specs])
    early_stop = np.array([s.early_stop for s in specs])
    stops_early = bool(early_stop.any())
    adaptive = np.array([s.rho_schedule == "adaptive" for s in specs])
    checked = np.full(n_rows, np.inf)
    trajectories = [[(0, s.rho)] for s in specs]
    running = epsilon != 0
    ends = np.zeros(n_rows, dtype=int)
    n_iterations = specs[0].max_iterations if running.any() else 0
    # per iteration, the three residual norms of every row
    norms = np.empty((n_iterations, 3, n_rows))
    # splitting-major state, w and gamma in the slot layout of x_bar;
    # the x-update pull is the alternating sum of `duals` plus rho times
    # the sum of `pulls`
    shape = (n_rows, 2 * n_total)
    duals = np.zeros((4,) + shape)  # [2c, u, v, w]
    duals[0] = 2.0 * x_bar_comm
    pulls = np.zeros((4,) + shape)  # [x0, alpha, beta, gamma]
    pulls[0] = x_bar_0
    u_v_w, auxiliaries = duals[1:], pulls[1:]
    alpha, beta = pulls[1], pulls[2]
    gamma_pairs = pulls[3].reshape(n_rows, 2, n_total)
    # working buffers, their views taken once
    compared = np.empty((3,) + shape)  # [x, x - x0, x]
    x_bar, x_less_0 = compared[0], compared[1]
    t = np.empty((3,) + shape)  # the three projection arguments
    t_sphere_ball, t_sphere, t_ball = t[:2], t[0], t[1]
    t_pairs = t[2].reshape(n_rows, 2, n_total)
    squares = np.empty_like(t_pairs)
    # the gaps reuse t, spent once the projections are done
    gaps, gaps_sphere_ball, gaps_papr = t, t_sphere_ball, t[2]
    epsilon_row, cap = _per_row(epsilon, 0), _per_row(eta, 1) / n_total
    # max(max(norm, epsilon), tiny) as max(norm, max(epsilon, tiny))
    ball_floor = np.maximum(epsilon_row, _TINY)
    rho_row = _per_row(rho, 1)
    denominator = 2.0 + 3.0 * rho_row
    iteration = 0
    # each row's iterate and duals at its end; a pinned row keeps the
    # reference and zero duals
    x_bar_end = x_bar_0.copy()
    duals_end = np.zeros((3,) + shape)

    def measure(x_bar, u, v, w_slots):
        miss = x_bar - x_bar_comm
        # lower_bound takes w as C-order (Re, Im) pairs
        w = np.ascontiguousarray(
            w_slots.reshape(n_rows, 2, n_total).swapaxes(1, 2))
        return (np.vecdot(miss, miss),
                lower_bound(u, v, w, x_bar_comm, x_bar_0, epsilon, eta),
                _violations(x_bar, x_bar_0, epsilon, eta))

    def end(rows):
        x_bar_end[rows] = x_bar[rows]
        duals_end[:, rows] = u_v_w[:, rows]
        ends[rows] = iteration

    for m in range(n_iterations):
        # each phase is one call over the sphere, the ball and the discs,
        # with every operand order of the step functions
        np.divide(np.subtract.reduce(duals, 0)
                  + rho_row * np.add.reduce(pulls, 0),
                  denominator, out=x_bar)
        np.subtract(x_bar, x_bar_0, out=x_less_0)
        compared[2] = x_bar
        np.divide(u_v_w, rho_row, out=t)
        t += compared
        norm = np.sqrt(np.vecdot(t_sphere_ball, t_sphere_ball))
        degenerate = norm[0] < 1e-12
        if not np.count_nonzero(degenerate):
            np.divide(t_sphere, norm[0][:, None], out=alpha)
        else:
            # a zero argument keeps the previous alpha
            projected = t_sphere / np.where(degenerate, 1.0,
                                            norm[0])[:, None]
            alpha[...] = np.where(degenerate[:, None], alpha, projected)
        divisor = np.maximum(norm[1], ball_floor)
        np.multiply(t_ball, (epsilon_row / divisor)[:, None], out=beta)
        np.multiply(t_pairs, t_pairs, out=squares)
        scale = np.sqrt(cap / np.maximum(squares[:, 0] + squares[:, 1], cap))
        np.multiply(t_pairs, scale[:, None], out=gamma_pairs)
        np.subtract(compared, auxiliaries, out=gaps)
        row_norms = norms[m]
        np.vecdot(gaps_sphere_ball, gaps_sphere_ball, out=row_norms[:2])
        # the PAPR residual is summed in pair order
        papr_gap = coupling_pairs(gaps_papr)
        np.add.reduce((papr_gap * papr_gap).reshape(n_rows, -1), axis=-1,
                      out=row_norms[2])
        np.sqrt(row_norms, out=row_norms)
        gaps *= rho_row
        u_v_w += gaps
        iteration = m + 1
        if stops_early and iteration % _STOP_CHECK_EVERY == 0:
            objective, bound, violations = measure(x_bar, *u_v_w)
            stopped = (running & early_stop
                       & np.all(violations <= tolerance, axis=0)
                       & (_relative_gap(objective, bound) <= _CERTIFIED_GAP))
            if stopped.any():
                end(stopped)
                running &= ~stopped
                if not running.any():
                    break
        if iteration % _RHO_CHECK_EVERY == 0:
            largest = np.max(row_norms, axis=0)
            double = (running & adaptive & (largest > _RHO_STALL_FLOOR)
                      & (largest > 0.5 * checked) & (rho < _RHO_MAX))
            rho = np.where(double, np.minimum(2.0 * rho, _RHO_MAX), rho)
            rho_row = _per_row(rho, 1)
            denominator = 2.0 + 3.0 * rho_row
            for j in np.flatnonzero(double):
                trajectories[j].append((iteration, float(rho[j])))
            checked = np.where(adaptive, largest, checked)

    end(running)
    objective, bound, violations = measure(x_bar_end, *duals_end)
    return [(x_bar_end[i], objective[i], bound[i], violations[:, i],
             norms[:ran, :, i].T.copy(), trajectories[i])
            for i, ran in enumerate(ends)]


def _result(n_antennas: int, x_bar: np.ndarray, objective: float,
            bound: float, violations: np.ndarray, history: np.ndarray,
            trajectory: list) -> SolveResult:
    """The SolveResult of one row from its :func:`_iterate` entry."""
    return SolveResult(
        waveform=Waveform(unvec(unlift(x_bar), n_antennas)),
        objective=float(objective),
        lower_bound=float(bound),
        constraint_violations=ConstraintViolations(*map(float, violations)),
        residual_history=ResidualHistory(*history),
        iterations_run=history.shape[1],
        rho_trajectory=tuple(trajectory),
    )
