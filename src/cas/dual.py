"""Eigenvalue optimization for the dual-functional waveform scheme.

A single waveform serves sensing and forwarding simultaneously, so the full
budget rides on one eigenvalue profile evaluated against both stages.  The
profile is improved by stepping along the capacity gradient and rescaling
back onto the power simplex, with a halving line search that only accepts
strict descent of the end-to-end distortion.  Both natural warm starts are
available: the sensing-optimal uniform profile and the capacity-optimal
water-filling profile.
"""

from dataclasses import dataclass

import numpy as np

from .model import (DistortionReport, PowerAllocation, SystemConfig,
                    capacity_eigform, check_vector, live_gains, read_only)
from .waterfilling import evaluate, uniform_allocation, waterfill_capacity

INIT_SENSING = "sensing_optimal"
INIT_COMMUNICATION = "communication_optimal"

_BETA_MIN = 1e-12
_MAX_ITERS = 500


@dataclass(frozen=True)
class DualSolution:
    """Final profile with the accepted-objective trace of the search.

    iterations counts accepted steps; objective_trace[0] is the initial
    point, so its length is iterations + 1 and it never increases.
    converged is False only when the iteration cap stopped the search.
    """

    alloc: PowerAllocation
    report: DistortionReport
    iterations: int
    objective_trace: np.ndarray
    init_kind: str
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "objective_trace", read_only(self.objective_trace))


def evaluate_dual(alloc: PowerAllocation, cfg: SystemConfig, alphas) -> DistortionReport:
    """End-to-end distortion when one profile feeds both pipeline stages."""
    if len(alloc) != cfg.n_tx:
        raise ValueError(
            f"allocation length {len(alloc)} does not match n_tx {cfg.n_tx}"
        )
    alloc.check_budget(cfg.p_total)
    return evaluate(alloc, capacity_eigform(alloc, alphas), cfg)


def capacity_gradient(alloc: PowerAllocation, alphas) -> np.ndarray:
    """Gradient of the forward-link rate with respect to the eigenvalues."""
    a = check_vector(alphas, "alphas", len(alloc))
    return a / (a * alloc.lambdas + 1.0)


def gradient_step(alloc: PowerAllocation, beta: float, direction) -> PowerAllocation:
    """Move ``beta`` along ``direction``, then rescale onto the unit-budget simplex."""
    if beta < 0:
        raise ValueError("step size must be nonnegative")
    moved = alloc.lambdas + beta * direction
    s = float(moved.sum())
    if s <= 0:
        raise ValueError("degenerate step: zero allocation and zero direction")
    return PowerAllocation(moved * (1.0 / s))


def optimize_dual(cfg: SystemConfig, alphas,
                  init_kind: str = INIT_SENSING) -> DualSolution:
    """Descent on the dual-functional profile from one warm start.

    The direction is the rate gradient, taken at the warm start and after
    each accepted step, and the base step is 1 over its l1-norm, so the
    first trial step moves a budget-sized amount.  Stops
    when an accepted step improves the objective by at most 1e-8 of the
    zero-power distortion ceiling m_s*n_tx*var_eta, when no halved step
    size down to _BETA_MIN improves it at all, or after _MAX_ITERS steps.
    """
    if init_kind == INIT_SENSING:
        alloc = uniform_allocation(cfg.p_total, cfg.n_tx)
    elif init_kind == INIT_COMMUNICATION:
        alloc = waterfill_capacity(cfg.p_total, alphas).alloc
    else:
        raise ValueError(f"unknown init_kind {init_kind!r}")

    report = evaluate_dual(alloc, cfg, alphas)
    trace = [report.d_sc]
    if not live_gains(alphas).any():
        # dead link: the rate is identically zero, nothing to trade
        return DualSolution(alloc, report, 0, np.asarray(trace), init_kind, True)
    direction = capacity_gradient(alloc, alphas)
    beta0 = 1.0 / float(np.abs(direction).sum())
    tol = 1e-8 * cfg.var_eta * cfg.m_s * cfg.n_tx

    converged = True
    for _ in range(_MAX_ITERS):
        beta = beta0
        while beta >= _BETA_MIN:
            cand = gradient_step(alloc, beta, direction)
            cand_report = evaluate_dual(cand, cfg, alphas)
            if cand_report.d_sc < trace[-1]:
                break
            beta *= 0.5
        else:
            break  # no step size down to the floor descends
        alloc, report = cand, cand_report
        trace.append(report.d_sc)
        if trace[-2] - trace[-1] <= tol:
            break
        direction = capacity_gradient(alloc, alphas)
    else:
        converged = False

    return DualSolution(alloc, report, len(trace) - 1, np.asarray(trace),
                        init_kind, converged)


def optimize_dual_best(cfg: SystemConfig, alphas) -> DualSolution:
    """Run both warm starts and keep whichever ends lower (ties: sensing start)."""
    best = None
    for kind in (INIT_SENSING, INIT_COMMUNICATION):
        sol = optimize_dual(cfg, alphas, init_kind=kind)
        if best is None or sol.report.d_sc < best.report.d_sc:
            best = sol
    return best
