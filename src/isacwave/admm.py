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
the same whatever rows share its stack.
"""

from __future__ import annotations

import math
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

# relative slack of every PAPR-cap comparison against its range edges;
# it absorbs the roundoff of the dB conversion and of a computed PAPR
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
    stays fixed or adapts to stalling residuals.
    """

    channel: ChannelRealization
    symbols: SymbolBlock
    reference: ReferenceWaveform
    epsilon: float
    eta: float
    rho: float = 1.0
    max_iterations: int = 2000
    feasibility_tolerance: float = 1e-3
    early_stop: bool = False
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
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")
        if not 1.0 <= self.eta <= self.n_total:
            raise ValueError(f"eta must lie in [1, N*L] = [1, {self.n_total}]")
        if not self.rho > 0:
            raise ValueError("rho must be > 0")
        if self.rho_schedule not in RHO_SCHEDULES:
            raise ValueError(f"rho_schedule must be one of {RHO_SCHEDULES}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
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


def papr_cap(eta_db: float, n_total: int) -> float:
    """Linear PAPR cap of an eta given in dB, for an N*L-sample block.

    A cap outside [1, N*L] by more than a relative 1e-9 is rejected;
    one within that slack is clamped onto the range, so the result is
    always a valid ProblemSpec.eta.
    """
    try:
        eta = 10.0 ** (eta_db / 10.0)
    except OverflowError:
        eta = math.inf
    if not 1.0 - _ETA_SLACK <= eta <= n_total * (1.0 + _ETA_SLACK):
        raise ValueError(
            f"PAPR cap eta = {eta:g} ({eta_db:g} dB) must lie in "
            f"[1, N*L] = [1, {n_total}], i.e. "
            f"[0 dB, {10.0 * math.log10(n_total):.2f} dB]"
        )
    return min(max(eta, 1.0), float(n_total))


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
    iteration: int = 0

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

    def take(self, rows) -> "AdmmState":
        """The iterate of the selected rows of a stack."""
        return AdmmState(
            x_bar=self.x_bar[rows],
            alpha=self.alpha[rows],
            beta=self.beta[rows],
            gamma=self.gamma[rows],
            u=self.u[rows],
            v=self.v[rows],
            w=self.w[rows],
            iteration=self.iteration,
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
    x_bar_new: np.ndarray,
    alpha_new: np.ndarray,
    beta_new: np.ndarray,
    gamma_new: np.ndarray,
    rho,
    x_bar_0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascend the three duals along their consensus residuals."""
    rho_row = _per_row(rho, 1)
    u = state.u + rho_row * (x_bar_new - alpha_new)
    v = state.v + rho_row * (x_bar_new - x_bar_0 - beta_new)
    w = state.w + _per_row(rho, 2) * (coupling_pairs(x_bar_new) - gamma_new)
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

    rho_trajectory lists the (iteration, rho) change points of the
    penalty weight: rho applies from that iteration (zero-based) on.  It
    starts with (0, spec.rho) and has no further entry under the fixed
    schedule.
    """

    waveform: Waveform
    objective: float
    constraint_violations: ConstraintViolations
    residual_history: ResidualHistory
    iterations_run: int
    rho_trajectory: tuple


def _violations(spec: ProblemSpec, x: np.ndarray) -> ConstraintViolations:
    norm_gap = abs(float(np.linalg.norm(x) ** 2) - 1.0)
    similarity = float(np.linalg.norm(x - spec.reference.vec))
    papr_lin = kpi.papr(x)
    return ConstraintViolations(
        norm_gap=norm_gap,
        similarity_excess=max(0.0, similarity - spec.epsilon),
        papr_excess=max(0.0, papr_lin - spec.eta),
    )


def solve(
    spec: ProblemSpec | Sequence[ProblemSpec],
) -> SolveResult | list[SolveResult]:
    """Design one instance, or a stack of independent instances at once.

    ``solve(spec)`` returns one SolveResult; ``solve([spec, ...])``
    returns the list of SolveResults in the order given.  The instances
    of a stack must share N, L and max_iterations; each keeps its own
    epsilon, eta, rho, rho_schedule, feasibility_tolerance and
    early_stop, and its result does not depend on the other rows.

    Each instance runs the splitting for max_iterations (optionally
    stopping early once all residual norms drop below
    feasibility_tolerance) and returns the final primal block with its
    diagnostics.  epsilon = 0 short-circuits to the reference block: the
    similarity ball is the single point x0, feasible by ProblemSpec
    validation.
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
    x_bar_comm = [lift(zero_forcing_target(s.channel, s.symbols))
                  for s in specs]
    runs = [None] * len(specs)
    rows = [i for i, s in enumerate(specs) if s.epsilon != 0]
    if rows:
        stack = _iterate([specs[i] for i in rows],
                         np.array([x_bar_comm[i] for i in rows]))
        for i, run in zip(rows, stack):
            runs[i] = run
    results = [_result(s, comm, run)
               for s, comm, run in zip(specs, x_bar_comm, runs)]
    return results[0] if single else results


def _iterate(specs: list, x_bar_comm: np.ndarray) -> list:
    """Advance a stack of instances, one row each, to their ends.

    A row ends after max_iterations, or earlier when it stops early; a
    stopped row leaves the stack, so its iterate is frozen.  Returns,
    per row, (final x_bar, residual history of shape (3, iterations
    run), rho trajectory).
    """
    n_rows = len(specs)
    n_total = specs[0].n_total
    budget = specs[0].max_iterations
    x_bar_0 = np.array([s.reference.lifted for s in specs])
    rho = np.array([s.rho for s in specs], dtype=float)
    epsilon = np.array([s.epsilon for s in specs], dtype=float)
    eta = np.array([s.eta for s in specs], dtype=float)
    # a row without early stopping never falls below -inf
    tolerance = np.array([s.feasibility_tolerance if s.early_stop
                          else -np.inf for s in specs])
    stops_early = any(s.early_stop for s in specs)
    adaptive = np.array([s.rho_schedule == "adaptive" for s in specs])
    checked = np.full(n_rows, np.inf)
    trajectories = [[(0, s.rho)] for s in specs]
    history = np.empty((3, n_rows, budget))
    ends = [None] * n_rows
    live = np.arange(n_rows)  # the stack's rows, as indices into specs
    # per-iteration residual norms of the live rows, kept until the stack
    # next loses rows or ends and then written into history
    pending = ([], [], [])
    state = AdmmState.initial(n_total, batch=(n_rows,))

    for m in range(budget):
        state.x_bar = x_update(state, rho, x_bar_comm, x_bar_0)
        state.alpha = alpha_update(state.x_bar, state.u, rho,
                                   fallback=state.alpha)
        state.beta = beta_update(state.x_bar, x_bar_0, state.v, rho, epsilon)
        state.gamma = gamma_update(state.x_bar, state.w, rho, eta, n_total)
        r_energy = _row_norm(state.x_bar - state.alpha)
        r_similarity = _row_norm(state.x_bar - x_bar_0 - state.beta)
        papr_gap = coupling_pairs(state.x_bar) - state.gamma
        r_papr = np.sqrt(np.add.reduce(
            (papr_gap * papr_gap).reshape(live.size, -1), axis=-1))
        pending[0].append(r_energy)
        pending[1].append(r_similarity)
        pending[2].append(r_papr)
        state.u, state.v, state.w = dual_updates(
            state, state.x_bar, state.alpha, state.beta, state.gamma, rho,
            x_bar_0,
        )
        state.iteration = m + 1
        checks_rho = state.iteration % _RHO_CHECK_EVERY == 0
        if not (stops_early or checks_rho):
            continue
        largest = np.maximum(np.maximum(r_energy, r_similarity), r_papr)
        stopped = largest < tolerance
        if stopped.any():
            _record(history, live, state.iteration, pending)
            for j in np.flatnonzero(stopped):
                ends[live[j]] = (state.x_bar[j], state.iteration)
            keep = ~stopped
            state = state.take(keep)
            (live, rho, epsilon, eta, tolerance, adaptive, checked,
             largest, x_bar_comm, x_bar_0) = (
                a[keep] for a in (live, rho, epsilon, eta, tolerance,
                                  adaptive, checked, largest, x_bar_comm,
                                  x_bar_0))
            if live.size == 0:
                break
        if checks_rho:
            double = (adaptive & (largest > _RHO_STALL_FLOOR)
                      & (largest > 0.5 * checked) & (rho < _RHO_MAX))
            rho = np.where(double, np.minimum(2.0 * rho, _RHO_MAX), rho)
            for j in np.flatnonzero(double):
                trajectories[live[j]].append((state.iteration, float(rho[j])))
            checked = np.where(adaptive, largest, checked)

    _record(history, live, budget, pending)
    for j, row in enumerate(live):
        ends[row] = (state.x_bar[j], budget)
    return [(x_bar, history[:, row, :ran].copy(), trajectories[row])
            for row, (x_bar, ran) in enumerate(ends)]


def _record(history: np.ndarray, live: np.ndarray, end: int,
            pending: tuple) -> None:
    """Move the pending residual norms of the live rows into history,
    where they cover the iterations up to ``end``."""
    for series, norms in zip(history, pending):
        if norms:
            series[live, end - len(norms):end] = np.array(norms).T
            norms.clear()


def _result(spec: ProblemSpec, x_bar_comm: np.ndarray, run) -> SolveResult:
    """The SolveResult of one row; ``run`` is its :func:`_iterate` entry,
    or None for an epsilon = 0 row, which is pinned to the reference."""
    if run is None:
        empty = np.empty(0)
        x_bar_0 = spec.reference.lifted
        return SolveResult(
            waveform=Waveform(spec.reference.entries.copy()),
            objective=float(np.linalg.norm(x_bar_0 - x_bar_comm) ** 2),
            constraint_violations=_violations(spec, spec.reference.vec),
            residual_history=ResidualHistory(empty, empty, empty),
            iterations_run=0,
            rho_trajectory=((0, spec.rho),),
        )
    x_bar, history, trajectory = run
    x = unlift(x_bar)
    return SolveResult(
        waveform=Waveform(unvec(x, spec.reference.n_antennas)),
        objective=float(np.linalg.norm(x_bar - x_bar_comm) ** 2),
        constraint_violations=_violations(spec, x),
        residual_history=ResidualHistory(*history),
        iterations_run=history.shape[1],
        rho_trajectory=tuple(trajectory),
    )
