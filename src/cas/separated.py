"""Power-split optimization for the separated waveform scheme.

The budget is divided between an isotropic sensing waveform (power p_s) and
a capacity-optimal communication waveform (power p_total - p_s).  Because
the sensing waveform is uniform, all n forwarded source eigenvalues equal
g(x) with x = p_s/n, and reverse water-filling over equal eigenvalues is
closed-form:

    d_sc(p_s) = m*n*f(x) + m*n*g(x)*exp(-C(p_total - p_s)/(m*n))

with C the water-filling capacity.  Its derivative is explicit, so the
optimal split is found as a root of the derivative by bisection on its sign.
"""

import math
from dataclasses import dataclass

from .model import (DistortionReport, PowerAllocation, SystemConfig,
                    sensing_subchannel_distortion)
from .waterfilling import evaluate, uniform_allocation, waterfill_capacity


@dataclass(frozen=True)
class SeparatedSolution:
    """Best split found, with the allocations realizing it on both waveforms.

    slope is dd_sc/dp_s at p_s, the optimality certificate: about zero
    (relative to either of its two terms) at an interior optimum, >= 0 when
    p_s = 0 and <= 0 when p_s = p_total.  evaluations counts slope
    evaluations.
    """

    p_s: float
    p_c: float
    report: DistortionReport
    sensing_alloc: PowerAllocation
    comm_alloc: PowerAllocation
    slope: float
    evaluations: int


def evaluate_split(p_s: float, cfg: SystemConfig, alphas) -> DistortionReport:
    """End-to-end distortion of spending ``p_s`` on sensing and the rest on forwarding."""
    slack = 1e-12 * cfg.p_total
    if not (-slack <= p_s <= cfg.p_total + slack):
        raise ValueError(f"p_s must lie in [0, p_total], got {p_s!r}")
    p_s = min(max(float(p_s), 0.0), cfg.p_total)
    wf = waterfill_capacity(max(cfg.p_total - p_s, 0.0), alphas)
    return evaluate(uniform_allocation(p_s, cfg.n_tx), wf.capacity, cfg)


def split_slope(p_s: float, cfg: SystemConfig, alphas) -> float:
    """Derivative of evaluate_split's d_sc with respect to p_s, on a live link.

    dd_sc/dp_s = m*f'(x)*(1 - E) + g(x)*E/level, where x = p_s/n,
    f' = -T*f^2/var_s, E = exp(-C/(m*n)), and C and level are the capacity
    and water level at p_c = p_total - p_s (dC/dp_c = 1/level).
    """
    f = sensing_subchannel_distortion(p_s / cfg.n_tx, cfg)
    wf = waterfill_capacity(cfg.p_total - p_s, alphas)
    c = wf.capacity / (cfg.m_s * cfg.n_tx)
    d_f = -cfg.n_symbols * f * f / cfg.var_s
    return (-cfg.m_s * d_f * math.expm1(-c)
            + (cfg.var_eta - f) * math.exp(-c) / wf.level)


def optimize_separated(cfg: SystemConfig, alphas) -> SeparatedSolution:
    """Optimal sensing/communication power split, from the root of split_slope.

    The slope is negative at p_s = 0 and positive at p_s = p_total on a live
    link; bisection on its sign keeps a bracket with a negative slope at the
    left end and a nonnegative one at the right end until the two ends are
    adjacent floats (about 55 evaluations), so the result is a local minimum.
    Of the two ends, the one with the smaller |slope| is returned, with one
    water-filling at its p_c giving both comm_alloc and the report's rate.
    On a dead link (all gains zero) d_sc does not depend on the split, and
    p_s = 0 is returned with slope 0.
    """
    if waterfill_capacity(cfg.p_total, alphas).degenerate:
        p_s, slope, evals = 0.0, 0.0, 0
    else:
        lo, hi = 0.0, cfg.p_total
        s_lo = split_slope(lo, cfg, alphas)
        s_hi = split_slope(hi, cfg, alphas)
        evals = 2
        if s_lo >= 0:
            p_s, slope = lo, s_lo
        elif s_hi <= 0:
            p_s, slope = hi, s_hi
        else:
            while True:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                s = split_slope(mid, cfg, alphas)
                evals += 1
                if s < 0:
                    lo, s_lo = mid, s
                else:
                    hi, s_hi = mid, s
            p_s, slope = (lo, s_lo) if -s_lo <= s_hi else (hi, s_hi)

    p_c = cfg.p_total - p_s
    sensing_alloc = uniform_allocation(p_s, cfg.n_tx)
    wf = waterfill_capacity(p_c, alphas)
    return SeparatedSolution(
        p_s=p_s,
        p_c=p_c,
        report=evaluate(sensing_alloc, wf.capacity, cfg),
        sensing_alloc=sensing_alloc,
        comm_alloc=wf.alloc,
        slope=slope,
        evaluations=evals,
    )
