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
                    capacity_eigform)
from .waterfilling import evaluate, uniform_allocation, waterfill_capacity

INIT_SENSING = "sensing_optimal"
INIT_COMMUNICATION = "communication_optimal"

_BETA_MIN = 1e-12


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
        tr = np.array(self.objective_trace, dtype=float)
        tr.setflags(write=False)
        object.__setattr__(self, "objective_trace", tr)


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
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size != len(alloc):
        raise ValueError("alphas must be a 1-d vector matching the allocation")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("alphas must be nonnegative and finite")
    return a / (a * alloc.lambdas + 1.0)


def gradient_step(alloc: PowerAllocation, beta: float, alphas,
                  p_total: float) -> PowerAllocation:
    """Move along the rate gradient, then rescale onto the power simplex."""
    if beta < 0:
        raise ValueError("step size must be nonnegative")
    moved = alloc.lambdas + beta * capacity_gradient(alloc, alphas)
    s = float(moved.sum())
    if s <= 0:
        raise ValueError("degenerate step: zero allocation and zero gradient")
    return PowerAllocation(moved * (float(p_total) / s))


def optimize_dual(cfg: SystemConfig, alphas, init_kind: str = INIT_SENSING,
                  eps: float | None = None,
                  max_iters: int = 500) -> DualSolution:
    """Descent on the dual-functional profile from one warm start.

    Stops when an accepted step improves the objective by at most eps
    (default 1e-8 of the zero-power distortion ceiling), when no halved step
    size down to 1e-12 improves it at all, or at max_iters.  The base step
    is p_total / l1-norm of the initial gradient so the first trial step
    moves a budget-sized amount.
    """
    if init_kind == INIT_SENSING:
        alloc = uniform_allocation(cfg.p_total, cfg.n_tx)
    elif init_kind == INIT_COMMUNICATION:
        alloc = waterfill_capacity(cfg.p_total, alphas).alloc
    else:
        raise ValueError(f"unknown init_kind {init_kind!r}")
    if eps is None:
        eps = 1e-8 * cfg.var_eta * cfg.m_s * cfg.n_tx
    if not eps > 0:
        raise ValueError("eps must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")

    report = evaluate_dual(alloc, cfg, alphas)
    trace = [report.d_sc]
    g0 = float(np.abs(capacity_gradient(alloc, alphas)).sum())
    if g0 == 0:
        # dead link: the rate is identically zero, nothing to trade
        return DualSolution(alloc, report, 0, np.asarray(trace), init_kind, True)
    beta0 = cfg.p_total / g0

    converged = True
    for _ in range(max_iters):
        beta = beta0
        accepted = None
        while beta >= _BETA_MIN:
            cand = gradient_step(alloc, beta, alphas, cfg.p_total)
            cand_report = evaluate_dual(cand, cfg, alphas)
            if cand_report.d_sc < trace[-1]:
                accepted = (cand, cand_report)
                break
            beta *= 0.5
        if accepted is None:
            break
        alloc, report = accepted
        trace.append(report.d_sc)
        if trace[-2] - trace[-1] <= eps:
            break
    else:
        converged = False

    return DualSolution(alloc, report, len(trace) - 1, np.asarray(trace),
                        init_kind, converged)


def optimize_dual_best(cfg: SystemConfig, alphas,
                       eps: float | None = None) -> DualSolution:
    """Run both warm starts and keep whichever ends lower (ties: sensing start)."""
    best = None
    for kind in (INIT_SENSING, INIT_COMMUNICATION):
        sol = optimize_dual(cfg, alphas, init_kind=kind, eps=eps)
        if best is None or sol.report.d_sc < best.report.d_sc:
            best = sol
    return best
