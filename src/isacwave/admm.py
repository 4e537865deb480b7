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
the same whatever rows share its stack.  The loop runs in stretches,
each ending where some row ends: at iteration 0 for an epsilon = 0 row,
which ends with the reference as its iterate, at a check where a row
stops certified, or at the end of the budget.  Between stretches, and
only there, the rows that ended get their SolveResults, and an ended
row leaves the stack once at most half of the stack's rows still run
(_COMPACT_SHARE): the running rows are then copied into a smaller
stack, which keeps a map to the caller's rows.  Until then an ended row
is advanced with the others and its later values are never read.  The
stack holds each row's residual norms from iteration 0 on, so a row's
history moves with it when the stack is cut.

The loop keeps its state splitting-major, in two (4, T, 2*N*L) buffers
[2c, u, v, w] and [x0, alpha, beta, gamma], with w and gamma in the slot
layout of x_bar.  So each phase is one numpy call over the sphere, the
ball and the discs together: the x-update is the alternating sum of
the first buffer plus rho times the sum of the second, the projection
arguments are [u, v, w]/rho + [x, x - x0, x], the consensus gaps are
[x, x - x0, x] - [alpha, beta, gamma], and one call ascends the three
duals.  The per-row weights rho, 2 + 3*rho and the disc cap eta/(N*L)
are held full-width, as contiguous (T, 2*N*L) and (T, N*L) arrays of
each row's value, or as floats while every row holds the same value:
numpy applies either faster than a (T, 1) column it must broadcast
along each row, to the same bits.  They are built at the start of each
stretch and rebuilt only at a rho check that doubles some row's rho,
and every phase writes into buffers allocated once per stretch.  The
loop's reference is the same iteration written as separate step
functions (x_update, alpha_update, beta_update, gamma_update and
dual_updates), kept with the tests in tests/reference_admm.py, which
hold gamma and w as per-sample (Re, Im) pairs: the loop keeps each of
their operand orders, and so their results, to the last bit.  The slot
layout is the only one the loop and the bound read; only the PAPR
residual norm is summed in pair order, the reference's order.

Certified stop.  On the feasible set ||x_bar|| = 1, so the objective
||x_bar - c||^2 is 1 + ||c||^2 - 2 c^T x_bar there, with c the lifted
target.  Dualising the ball and the discs with multipliers v and w and
minimising that Lagrangian with x_bar kept on the sphere gives, for any
duals (v, w),

    g_lin = 1 + ||c||^2 - v^T x0 - ||2c - v - P^T w|| - epsilon ||v||
            - sqrt(eta/(N*L)) sum_n ||w_n||,

with x0 the lifted reference, P the map from slots to per-sample
pairs and w_n the pair of sample n (:func:`lower_bound`); a w in the
slot layout is already P^T w.  By weak duality g_lin is a lower bound on
the optimum for any duals, nonconvex as the problem is.  It is never
below the dual of the whole splitting, which also dualises the sphere
with u and minimises over an unconstrained x_bar,

    g = s^T c - ||s||^2/4 - v^T x0 - ||u|| - epsilon ||v||
        - sqrt(eta/(N*L)) sum_n ||w_n||,     s = u + v + P^T w:

for x on the sphere, ||x - c||^2 + (v + P^T w)^T x
= ||x - c||^2 + s^T x - u^T x >= min_y (||y - c||^2 + s^T y) - ||u||,
so g <= g_lin for every (u, v, w).  g can stay loose on a design that is
already optimal, its gap held open by u; keeping x_bar on the sphere,
the S-procedure shift of the sphere multiplier, closes it on most such
designs.  At zero duals g_lin is (1 - ||c||)^2.  The bound certifies a
design only when the design is feasible: a block inside the tolerance
but off the sets can sit below it.  An early_stop row ends at the first check iteration,
every _STOP_CHECK_EVERY, where its violations (exactly those the result
reports) are within feasibility_tolerance and its relative gap
(f - g_lin)/max(|f|, _GAP_FLOOR) is at most _CERTIFIED_GAP.  The floor,
1e-6, lets a design whose target is feasible certify as f goes to 0,
once f - g_lin <= 1e-14: on 20 zf-normalized instances at eps 1.5 and
2, eta 3, every such design stops by iteration 40 with a floor of 1e-6
or 1e-4, by 50 with 1e-8, and some never do with 1e-10.  A row whose gap
never closes runs its budget.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import kpi
from .signal_model import (
    ChannelRealization,
    ReferenceWaveform,
    SymbolBlock,
    Waveform,
    unlift,
    unvec,
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
# stops once feasible with a relative certified gap <= _CERTIFIED_GAP;
# the gap is relative to max(|f|, _GAP_FLOOR), so a design whose target
# is itself feasible (f -> 0) can certify too
_STOP_CHECK_EVERY = 10
_CERTIFIED_GAP = 1e-8
_GAP_FLOOR = 1e-6

# an ended row leaves its stack once at most _COMPACT_SHARE of the
# stack's rows still run, and the running rows move to buffers of their
# own size.  The ten sumrate grid points at eta 1.25 and 3 (200-row
# stacks, fixed rho 5, 300 iterations, early_stop; one pinned core of a
# 2-vCPU Xeon VM, median of 5 alternating rounds) took 2.06 s never cut,
# 1.62 s at 0.25, 1.33 s at 0.5, 1.19 s at 0.75 and 1.41 s cut at every
# stop; 9 more rounds read 1.23 s at 0.5 and 1.22 s at 0.75
_COMPACT_SHARE = 0.5

# relative slack of every PAPR-cap comparison against its range edges;
# it absorbs the roundoff of a dB conversion and of a computed PAPR
_ETA_SLACK = 1e-9

# smallest divisor of a projection; keeps a zero argument finite
_TINY = np.finfo(float).tiny


class SingularChannelError(ValueError):
    """Channel rows are linearly dependent; no interference-free target."""


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
        if not isinstance(self.early_stop, (bool, np.bool_)):
            raise ValueError("early_stop must be a bool")
        if not (self.feasibility_tolerance > 0
                and math.isfinite(self.feasibility_tolerance)):
            raise ValueError("feasibility_tolerance must be finite and > 0")
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
            f"PAPR cap eta = {float(eta)!r} must lie in [1, N*L] = "
            f"[1, {n_total}], "
            f"i.e. [0 dB, {10.0 * math.log10(n_total):.2f} dB]"
        )
    return min(max(float(eta), 1.0), float(n_total))


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


def _full_width(value: np.ndarray, width: int):
    """A (T,) per-row value as a contiguous (T, width) array, each row
    its value repeated, or as a float when every row holds the same
    value.

    Either applies each row's value elementwise to a (T, width)
    operand, so a product or quotient is bitwise that of a (T, 1)
    column; numpy applies a float or an operand of the same shape
    faster than it broadcasts the column along each row.
    """
    if np.all(value == value[0]):
        return float(value[0])
    return np.repeat(value[:, None], width, axis=1)


def _row_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing axis.

    Each row is one dot product, the one np.linalg.norm takes of a 1-D
    vector, so a row's norm equals that of the row alone and does not
    depend on the rows stacked with it.
    """
    return np.sqrt(np.vecdot(a, a))


def zero_forcing_target(
    channel: ChannelRealization, symbols: SymbolBlock
) -> np.ndarray:
    """Vectorized minimum-energy block with H X = S exactly.

    Computed as vec(H^H (H H^H)^-1 S).  Raises SingularChannelError when
    the Gram matrix H H^H is singular or numerically unusable.
    """
    [target] = _zero_forcing_targets(channel.matrix[None],
                                     symbols.symbols[None])
    return target


def _zero_forcing_targets(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`zero_forcing_target` of each pair of a stack of (K, N)
    channels ``h`` and (K, L) symbol blocks ``s``, as a (T, N*L) array.

    Each slice goes through the same BLAS and LAPACK calls as a pair
    alone, so row t is bitwise the target of pair t alone.  Raises
    SingularChannelError with the condition number of the first pair
    whose Gram matrix is singular or numerically unusable.
    """
    if h.shape[-2] > h.shape[-1]:
        raise ValueError("zero forcing needs k_users <= n_antennas")
    if h.shape[-2] != s.shape[-2]:
        raise ValueError(f"channel serves {h.shape[-2]} users, symbols "
                         f"address {s.shape[-2]}")
    adjoint = h.conj().swapaxes(-1, -2)
    gram = h @ adjoint
    cond = np.linalg.cond(gram)
    unusable = ~np.isfinite(cond) | (cond > 1e12)
    if unusable.any():
        raise SingularChannelError(
            "channel rows are (numerically) dependent, cond(H H^H) = "
            f"{cond[np.argmax(unusable)]:.3e}"
        )
    # vec of each slice, its columns stacked
    return (adjoint @ np.linalg.solve(gram, s)).swapaxes(-1, -2).reshape(
        len(h), -1)


def lower_bound(
    v: np.ndarray,
    w: np.ndarray,
    x_bar_comm: np.ndarray,
    x_bar_0: np.ndarray,
    epsilon,
    eta,
) -> np.ndarray:
    """Lagrangian dual bound g_lin at the duals (v, w).

    w is in the slot layout of x_bar, as the loop holds it, so it is
    already P^T w.  On the unit sphere the objective is
    1 + ||c||^2 - 2 c^T x_bar.  With the ball and the discs dualised, its
    Lagrangian has its minimum over x_bar on the sphere,
    -||2c - v - P^T w||, at x_bar along 2c - v - P^T w; over the
    epsilon-ball and the per-sample discs the dual terms contribute
    -v^T x0 - epsilon ||v|| and -sqrt(eta/(N*L)) sum_n ||w_n||, with w_n
    the pair of slots (n, N*L + n).  By weak duality the sum bounds
    min ||x_bar - x_bar_comm||^2 over the feasible set from below for any
    duals.  Acts on the trailing axis, one value per row; epsilon and
    eta are scalars or one value per row.
    """
    n_total = w.shape[-1] // 2
    discs = w.reshape(w.shape[:-1] + (2, n_total))
    constraints = (np.vecdot(v, x_bar_0) + _per_row(epsilon, 0) * _row_norm(v)
                   + np.sqrt(_per_row(eta, 0) / n_total)
                   * np.add.reduce(np.sqrt(np.vecdot(discs, discs, axis=-2)),
                                   axis=-1))
    return (1.0 + np.vecdot(x_bar_comm, x_bar_comm)
            - _row_norm(2.0 * x_bar_comm - v - w) - constraints)


@dataclass(frozen=True)
class ConstraintViolations:
    """How far the returned block sits from each constraint set."""

    norm_gap: float
    similarity_excess: float
    papr_excess: float

    def max(self) -> float:
        return max(self.norm_gap, self.similarity_excess, self.papr_excess)

    def as_dict(self) -> dict:
        return asdict(self)


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
    epsilon = 0 design keeps the bound of zero duals, (1 - ||c||)^2 for
    the lifted target c, which is at most its objective ||x0 - c||^2 by
    the triangle inequality.  rho_trajectory lists the (iteration, rho)
    change points of the penalty weight: rho applies from that iteration
    (zero-based) on.  It starts with (0, spec.rho) and has no further
    entry under the fixed schedule.
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
        """(objective - lower_bound)/max(|objective|, 1e-6), the one the
        stop rule tests."""
        return float(_relative_gap(self.objective, self.lower_bound))


def _relative_gap(objective, bound):
    """(f - g)/max(|f|, _GAP_FLOOR); scalars or one per row."""
    return (objective - bound) / np.maximum(np.abs(objective), _GAP_FLOOR)


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
    returns the list of SolveResults in the order given, and [] for an
    empty sequence.  Both run :func:`_iterate`, a single spec as the
    stack of one.  The instances of a stack must share N, L and
    max_iterations; each keeps its own epsilon, eta, rho, rho_schedule,
    feasibility_tolerance and early_stop, and its result does not depend
    on the other rows.  Rows that hold the same channel and symbol
    objects, as a ccdf trial's grid points do, share one zero-forcing
    target.

    Each instance runs the splitting for max_iterations, or with
    early_stop until it is feasible and certified optimal (see the
    module docstring), and returns the final primal block with its
    diagnostics.  An epsilon = 0 instance returns the reference block
    after 0 iterations: the similarity ball is the single point x0,
    feasible by ProblemSpec validation.
    """
    single = isinstance(spec, ProblemSpec)
    results = _iterate([spec] if single else list(spec))
    return results[0] if single else results


class _Stack(NamedTuple):
    """The rows one stretch of the loop advances: every per-row input
    and state, row i of each array holding the caller's row rows[i]."""

    rows: np.ndarray
    x_bar_comm: np.ndarray
    epsilon: np.ndarray
    eta: np.ndarray
    tolerance: np.ndarray
    early_stop: np.ndarray
    adaptive: np.ndarray
    rho: np.ndarray
    # the largest residual norm at the previous rho check
    checked: np.ndarray
    running: np.ndarray
    # splitting-major state, w and gamma in the slot layout of x_bar; the
    # x-update pull is the alternating sum of `duals` plus rho times the
    # sum of `pulls`
    duals: np.ndarray  # [2c, u, v, w]
    pulls: np.ndarray  # [x0, alpha, beta, gamma]
    # per iteration, each row's energy, similarity and PAPR residual
    # norms from iteration 0 on, so a row's history moves with it
    history: np.ndarray  # (max_iterations, T, 3)

    def keep(self, selected: np.ndarray) -> _Stack:
        """The stack cut to the rows ``selected`` picks, in new arrays: a
        row is an entry of a 1-D array and a slice along the
        second-to-last axis of any other."""
        return _Stack._make(a[selected] if a.ndim == 1
                            else a[..., selected, :] for a in self)


def _objective_and_bound(x_bar, v, w, x_bar_comm, x_bar_0, epsilon, eta):
    """Objective ||x_bar - x_bar_comm||^2 and :func:`lower_bound` of
    every row."""
    miss = x_bar - x_bar_comm
    return (np.vecdot(miss, miss),
            lower_bound(v, w, x_bar_comm, x_bar_0, epsilon, eta))


def _iterate(specs: list) -> list:
    """The SolveResults of a stack of instances, one row each, in the
    order given; an empty stack gives [].

    The specs must share N, L and max_iterations.  Rows that hold the
    same channel and symbol objects share one zero-forcing target, and
    the distinct pairs of one user count get theirs from one call of
    :func:`_zero_forcing_targets`.  A row ends after max_iterations,
    earlier when it stops certified, or at iteration 0 when epsilon = 0
    pins it to the reference.  The one loop here alone builds results
    and decides cuts.  Each pass takes
    the rows that ended (first the pinned rows, then those that ended
    the last stretch of :func:`_advance`) and builds their SolveResults
    from their iterates, duals, residual histories and rho trajectories;
    it returns once no row runs, and otherwise cuts the stack if due and
    advances it to where the next row ends.  An ended row leaves the
    stack once at most _COMPACT_SHARE of the rows in it still run: the
    running rows are then copied into buffers of their own size, which
    keep a map to the caller's rows and carry each row's residual history
    from iteration 0.  Until then the ended row goes on being advanced
    with the stack, but its later values are never read.  Only the rho
    trajectories stay in the caller's order.
    """
    if len({(s.reference.n_antennas, s.reference.n_samples,
             s.max_iterations) for s in specs}) > 1:
        raise ValueError(
            "stacked specs must share n_antennas, n_samples and "
            "max_iterations"
        )
    if not specs:
        return []
    keys = [(id(s.channel), id(s.symbols)) for s in specs]
    pairs = dict(zip(keys, specs))
    targets = {}
    # one stacked call over the distinct pairs of each user count
    for users in dict.fromkeys(s.channel.k_users for s in pairs.values()):
        group = [key for key, s in pairs.items()
                 if s.channel.k_users == users]
        stacked = _zero_forcing_targets(
            np.array([pairs[key].channel.matrix for key in group]),
            np.array([pairs[key].symbols.symbols for key in group]))
        # the real lifting [Re; Im] of each row
        targets.update(zip(group, np.concatenate(
            (stacked.real, stacked.imag), axis=-1)))
    x_bar_comm = np.array([targets[key] for key in keys])
    n_rows = len(specs)
    n_antennas, n_total = specs[0].reference.n_antennas, specs[0].n_total
    # in the caller's order: per row its rho change points and, once
    # ended, its result
    trajectories = [[(0, s.rho)] for s in specs]
    results = [None] * n_rows
    duals = np.zeros((4, n_rows, 2 * n_total))
    duals[0] = 2.0 * x_bar_comm
    pulls = np.zeros((4, n_rows, 2 * n_total))
    pulls[0] = [s.reference.lifted for s in specs]
    stack = _Stack(
        rows=np.arange(n_rows), x_bar_comm=x_bar_comm,
        epsilon=np.array([s.epsilon for s in specs], dtype=float),
        eta=np.array([s.eta for s in specs], dtype=float),
        tolerance=np.array([s.feasibility_tolerance for s in specs]),
        early_stop=np.array([s.early_stop for s in specs]),
        adaptive=np.array([s.rho_schedule == "adaptive" for s in specs]),
        rho=np.array([s.rho for s in specs], dtype=float),
        checked=np.full(n_rows, np.inf),
        running=np.array([s.epsilon != 0 for s in specs]), duals=duals,
        pulls=pulls, history=np.empty((specs[0].max_iterations, n_rows, 3)))
    # a pinned row ends at iteration 0, on the reference with zero duals
    iteration, ending, x_bar = 0, ~stack.running, pulls[0]
    while True:
        x_bar, x_bar_0 = x_bar[ending], stack.pulls[0, ending]
        epsilon, eta = stack.epsilon[ending], stack.eta[ending]
        objective, bound = _objective_and_bound(
            x_bar, *stack.duals[2:, ending], stack.x_bar_comm[ending],
            x_bar_0, epsilon, eta)
        violations = _violations(x_bar, x_bar_0, epsilon, eta)
        history = stack.history[:iteration, ending]
        for j, i in enumerate(stack.rows[ending]):
            results[i] = SolveResult(
                waveform=Waveform(unvec(unlift(x_bar[j]), n_antennas)),
                objective=float(objective[j]),
                lower_bound=float(bound[j]),
                constraint_violations=ConstraintViolations(
                    *map(float, violations[:, j])),
                residual_history=ResidualHistory(*history[:, j].T.copy()),
                iterations_run=iteration,
                rho_trajectory=tuple(trajectories[i]),
            )
        if not stack.running.any():
            return results
        if (np.count_nonzero(stack.running)
                <= _COMPACT_SHARE * stack.running.size):
            stack = stack.keep(stack.running)
        iteration, ending, x_bar = _advance(stack, iteration, trajectories)


def _advance(stack: _Stack, start: int, trajectories: list) -> tuple:
    """Iterate ``stack`` from iteration ``start`` until some row ends, and
    return the iteration reached, the mask of the rows that ended there
    and the iterates of the whole stack.

    A stretch ends at the first check where some row stops certified, or
    at the budget's end, where every running row ends.  Within that last
    iteration the stop check comes first, then the rho check on the rows
    still running.  Each row's residual norms go to its row of the
    stack's history, and its rho change points to its caller's entry of
    ``trajectories``.  The stack's rho, checked, running, duals, pulls
    and history are updated in place; :func:`_iterate` alone builds the
    results and decides the cut.
    """
    (rows, x_bar_comm, epsilon, eta, tolerance, early_stop, adaptive, rho,
     checked, running, duals, pulls, history) = stack
    entered = running.copy()
    n_rows, width = duals.shape[1:]
    n_total = width // 2
    stops_early = bool(early_stop.any())
    x_bar_0 = pulls[0]
    u_v_w, auxiliaries = duals[1:], pulls[1:]
    alpha, beta = pulls[1], pulls[2]
    gamma_pairs = pulls[3].reshape(n_rows, 2, n_total)
    # working buffers, their views taken once
    shape = (n_rows, width)
    pull, weighted = np.empty(shape), np.empty(shape)
    compared = np.empty((3,) + shape)  # [x, x - x0, x]
    x_bar, x_less_0 = compared[0], compared[1]
    t = np.empty((3,) + shape)  # the three projection arguments
    t_sphere_ball, t_sphere, t_ball = t[:2], t[0], t[1]
    t_pairs = t[2].reshape(n_rows, 2, n_total)
    norm = np.empty((2, n_rows))  # of the sphere and ball arguments
    sphere_norm, ball_norm = norm[0], norm[1]
    sphere_column = sphere_norm[:, None]
    degenerate = np.empty(n_rows, dtype=bool)
    ball_scale = np.empty(n_rows)
    ball_column = ball_scale[:, None]
    squares = np.empty_like(t_pairs)
    squares_re, squares_im = squares[:, 0], squares[:, 1]
    disc_scale = np.empty((n_rows, n_total))
    disc_column = disc_scale[:, None]
    # the gaps reuse t, spent once the projections are done; the PAPR
    # gap is squared into pair order, (Re, Im) per sample, for its sum
    gaps, gaps_sphere_ball, gaps_papr = t, t_sphere_ball, t_pairs
    papr_squares = np.empty(shape)
    papr_squares_slots = papr_squares.reshape(n_rows, n_total,
                                              2).transpose(0, 2, 1)
    epsilon_row = _per_row(epsilon, 0)
    # max(max(norm, epsilon), tiny) as max(norm, max(epsilon, tiny))
    ball_floor = np.maximum(epsilon_row, _TINY)
    # the disc cap eta/(N*L), rho and the x-update's 2 + 3*rho held
    # full-width, so no phase broadcasts them as (T, 1) columns
    cap = _full_width(eta / n_total, n_total)
    rho_row = _full_width(rho, width)
    denominator = 2.0 + 3.0 * rho_row
    for m in range(start, len(history)):
        # each phase is one call over the sphere, the ball and the discs,
        # with every operand order of the reference step functions
        np.subtract.reduce(duals, 0, out=pull)
        np.add.reduce(pulls, 0, out=weighted)
        weighted *= rho_row
        pull += weighted
        np.divide(pull, denominator, out=x_bar)
        np.subtract(x_bar, x_bar_0, out=x_less_0)
        compared[2] = x_bar
        np.divide(u_v_w, rho_row, out=t)
        t += compared
        np.vecdot(t_sphere_ball, t_sphere_ball, out=norm)
        np.sqrt(norm, out=norm)
        np.less(sphere_norm, 1e-12, out=degenerate)
        if not np.count_nonzero(degenerate):
            np.divide(t_sphere, sphere_column, out=alpha)
        else:
            # a zero argument keeps the previous alpha
            projected = t_sphere / np.where(degenerate, 1.0,
                                            sphere_norm)[:, None]
            alpha[...] = np.where(degenerate[:, None], alpha, projected)
        np.maximum(ball_norm, ball_floor, out=ball_scale)
        np.divide(epsilon_row, ball_scale, out=ball_scale)
        np.multiply(t_ball, ball_column, out=beta)
        np.multiply(t_pairs, t_pairs, out=squares)
        np.add(squares_re, squares_im, out=disc_scale)
        np.maximum(disc_scale, cap, out=disc_scale)
        np.divide(cap, disc_scale, out=disc_scale)
        np.sqrt(disc_scale, out=disc_scale)
        np.multiply(t_pairs, disc_column, out=gamma_pairs)
        np.subtract(compared, auxiliaries, out=gaps)
        row_norms = history[m].T
        np.vecdot(gaps_sphere_ball, gaps_sphere_ball, out=row_norms[:2])
        # the PAPR residual is summed in pair order
        np.multiply(gaps_papr, gaps_papr, out=papr_squares_slots)
        np.add.reduce(papr_squares, axis=-1, out=row_norms[2])
        np.sqrt(row_norms, out=row_norms)
        gaps *= rho_row
        u_v_w += gaps
        iteration = m + 1
        ended = iteration == len(history)
        if stops_early and iteration % _STOP_CHECK_EVERY == 0:
            feasible = (running & early_stop
                        & np.all(_violations(x_bar, x_bar_0, epsilon, eta)
                                 <= tolerance, axis=0))
            # most checks find no row feasible, and then skip the bound
            if feasible.any():
                objective, bound = _objective_and_bound(
                    x_bar, *u_v_w[1:], x_bar_comm, x_bar_0, epsilon, eta)
                stopped = feasible & (_relative_gap(objective, bound)
                                      <= _CERTIFIED_GAP)
                running &= ~stopped
                ended = ended or stopped.any()
        if iteration % _RHO_CHECK_EVERY == 0:
            largest = np.max(row_norms, axis=0)
            double = (running & adaptive & (largest > _RHO_STALL_FLOOR)
                      & (largest > 0.5 * checked) & (rho < _RHO_MAX))
            np.copyto(rho, np.minimum(2.0 * rho, _RHO_MAX), where=double)
            if double.any():
                rho_row = _full_width(rho, width)
                denominator = 2.0 + 3.0 * rho_row
            for j in np.flatnonzero(double):
                trajectories[rows[j]].append((iteration, float(rho[j])))
            np.copyto(checked, largest, where=adaptive)
        if ended:
            break
    # at the budget's end every running row ends
    running &= iteration < len(history)
    return iteration, entered & ~running, x_bar
