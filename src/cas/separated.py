"""Power-split optimization for the separated waveform scheme.

The budget is divided between an isotropic sensing waveform (power p_s) and
a capacity-optimal communication waveform (power p_total - p_s).  Because
the sensing waveform is uniform, all n forwarded source eigenvalues equal
g(x) with x = p_s/n, and reverse water-filling over equal eigenvalues is
closed-form:

    d_sc(p_s) = m*n*f(x) + m*n*g(x)*exp(-C(p_total - p_s)/(m*n))

with C the water-filling capacity.  Its derivative is explicit, so the
optimal split is found as a root of the derivative by bisection on its sign.
C is piecewise analytic in p_c once the floors 1/alpha are sorted, so the
search sorts the gains once per link (``capacity_curve``) and evaluates
each slope on plain floats; only the returned split is water-filled in full.
"""

import math
from dataclasses import dataclass

from .model import (DistortionReport, PowerAllocation, SystemConfig,
                    check_vector, subchannel_mmse)
from .waterfilling import (WaterfillResult, capacity_curve, evaluate,
                           uniform_allocation, waterfill_capacity)


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


def compose_split(p_s: float, cfg: SystemConfig,
                  alphas) -> tuple[DistortionReport, WaterfillResult]:
    """(report, water-filling) of sensing uniformly with ``p_s`` and water-filling the rest."""
    wf = waterfill_capacity(max(cfg.p_total - p_s, 0.0), alphas)
    return evaluate(uniform_allocation(p_s, cfg.n_tx), wf.capacity, cfg), wf


def _split_power(p_s: float, cfg: SystemConfig) -> float:
    """``p_s`` as a float in [0, p_total], within which it must lie to 1e-12."""
    if not (-1e-12 <= p_s <= cfg.p_total + 1e-12):
        raise ValueError(f"p_s must lie in [0, p_total], got {p_s!r}")
    return min(max(float(p_s), 0.0), cfg.p_total)


def evaluate_split(p_s: float, cfg: SystemConfig, alphas) -> DistortionReport:
    """End-to-end distortion of spending ``p_s`` on sensing and the rest on forwarding."""
    return compose_split(_split_power(p_s, cfg), cfg,
                         check_vector(alphas, "alphas", cfg.n_tx))[0]


def split_slope(p_s: float, cfg: SystemConfig, alphas, *, curve=None) -> float:
    """Derivative of evaluate_split's d_sc with respect to p_s.

    dd_sc/dp_s = m*f'(x)*(1 - E) + g(x)*E/level, where x = p_s/n,
    f' = -T*f^2/var_s, E = exp(-C/(m*n)), and C and level are the capacity
    and water level at p_c = p_total - p_s (dC/dp_c = 1/level), read off
    ``curve = capacity_curve(alphas)`` in plain floats.  A caller that
    evaluates many splits of one link passes that curve, so the gains are
    sorted once.  On a dead link d_sc does not depend on the split, and the
    slope is 0.0.  p_s is checked as evaluate_split checks it.
    """
    p_s = _split_power(p_s, cfg)
    if curve is None:
        curve = capacity_curve(check_vector(alphas, "alphas", cfg.n_tx))
        if curve is None:
            return 0.0
    f = subchannel_mmse(p_s / cfg.n_tx, cfg)
    level, capacity = curve(cfg.p_total - p_s)
    c = capacity / (cfg.m_s * cfg.n_tx)
    d_f = -cfg.n_symbols * f * f / cfg.var_s
    return (-cfg.m_s * d_f * math.expm1(-c)
            + (cfg.var_eta - f) * math.exp(-c) / level)


def optimize_separated(cfg: SystemConfig, alphas) -> SeparatedSolution:
    """Optimal sensing/communication power split, from the root of split_slope.

    The slope is negative at p_s = 0 and positive at p_s = p_total on a live
    link; bisection on its sign keeps a bracket with a negative slope at the
    left end and a nonnegative one at the right end until the two ends are
    adjacent floats, so the result is a local minimum.  That takes about 55
    evaluations at typical systems, and at most 2 + 1,074 = 1,076: the
    bracket's width halves from p_total = 1 down to the float spacing at
    the root, which is at least 2**-1074 (near 0).  Every evaluation reads
    one ``capacity_curve`` of the gains, built once per call.  Of the two
    ends, the one with the smaller |slope| is returned, with one
    water-filling at its p_c giving both comm_alloc and the report's rate.
    On a dead link (no live gain) d_sc does not depend on the split, and
    p_s = 0 is returned with slope 0.
    """
    alphas = check_vector(alphas, "alphas", cfg.n_tx)
    curve = capacity_curve(alphas)
    if curve is None:
        p_s, slope, evals = 0.0, 0.0, 0
    else:
        lo, hi = 0.0, cfg.p_total
        s_lo = split_slope(lo, cfg, alphas, curve=curve)
        s_hi = split_slope(hi, cfg, alphas, curve=curve)
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
                s = split_slope(mid, cfg, alphas, curve=curve)
                evals += 1
                if s < 0:
                    lo, s_lo = mid, s
                else:
                    hi, s_hi = mid, s
            p_s, slope = (lo, s_lo) if -s_lo <= s_hi else (hi, s_hi)

    report, wf = compose_split(p_s, cfg, alphas)
    return SeparatedSolution(
        p_s=p_s,
        p_c=cfg.p_total - p_s,
        report=report,
        sensing_alloc=uniform_allocation(p_s, cfg.n_tx),
        comm_alloc=wf.alloc,
        slope=slope,
        evaluations=evals,
    )
