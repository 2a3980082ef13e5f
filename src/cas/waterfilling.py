"""Water-filling solvers for the forward link and its reverse (rate-distortion) dual.

Both solve one problem, the level L with sum_i max(L - o_i, 0) = B over
floors o, which ``_fill`` reads off sorted prefix sums in a fixed number of
steps.  Capacity has o = 1/alpha and B = p_c (Palomar & Fonollosa, IEEE TSP
2005); the reverse has o = -log eig, B = R/m and xi = exp(-L) (Cover &
Thomas, Elements of Information Theory, section 10.3.3), stable across many
orders of magnitude.  Each forward solve carries a KKT residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import (DistortionReport, PowerAllocation, SystemConfig,
                    assemble_report, check_gains, sensing_distortion,
                    source_eigenvalue)


@dataclass(frozen=True)
class WaterfillResult:
    """Capacity-optimal allocation over parallel channels.

    level is the water level xi_c: active channels receive level - 1/alpha_i.
    kkt_residual is the worst relative violation among the power budget,
    stationarity on active channels and dual feasibility on inactive ones.
    With all gains zero any allocation is optimal, and zeros are returned.
    """

    alloc: PowerAllocation
    level: float
    capacity: float
    kkt_residual: float = 0.0


@dataclass(frozen=True)
class ReverseWaterfillResult:
    """Distortion-minimal forwarding of parallel Gaussian sources at a rate budget.

    xi is the reverse water level: each component is delivered at distortion
    min(xi, eig).  d_c multiplies the per-component sum by the source
    multiplicity.  saturated marks rate targets so large that xi underflows
    to zero (rate is still the consumed rate, computed in the log domain).
    An all-zero source costs nothing to deliver at any rate: xi, d_c and
    rate are then zero.
    """

    xi: float
    per_component_d: np.ndarray
    d_c: float
    rate: float
    saturated: bool = False

    def __post_init__(self):
        d = np.array(self.per_component_d, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "per_component_d", d)


def uniform_allocation(p_s: float, n: int) -> PowerAllocation:
    """Split ``p_s`` evenly over ``n`` eigenchannels (the isotropic profile)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if p_s < 0:
        raise ValueError("power must be nonnegative")
    return PowerAllocation(np.full(int(n), float(p_s) / int(n)))


def _kkt_residual(lam: np.ndarray, level: float, alphas: np.ndarray,
                  p_c: float) -> float:
    grads = np.divide(alphas, alphas * lam + 1.0)
    mu = 1.0 / level
    r_power = abs(lam.sum() - p_c) / max(p_c, np.finfo(float).tiny)
    active = lam > 0
    r_stat = 0.0
    if active.any():
        r_stat = float(np.max(np.abs(grads[active] - mu))) / mu
    r_dual = 0.0
    if (~active).any():
        r_dual = float(np.max(np.maximum(grads[~active] - mu, 0.0))) / mu
    return max(r_power, r_stat, r_dual)


def _fill(floors: np.ndarray, budget: float):
    """Level L with sum_i max(L - floors_i, 0) = budget, and each floor's depth under L.

    With the floors measured as offsets o above the lowest one and sorted,
    filling the k lowest gives the depth (budget + o_1 + ... + o_k)/k above
    the lowest floor; the depth is that of the largest k whose depth reaches
    o_k.  Every filled offset is at most depth <= budget, so even a budget
    far below the floors' float spacing is handed out whole.
    """
    low = floors.min()
    offsets = floors - low
    ordered = np.sort(offsets)
    depths = (budget + np.cumsum(ordered)) / np.arange(1, ordered.size + 1)
    # k = 1 always qualifies, since depths[0] = budget and ordered[0] = 0
    depth = depths[np.flatnonzero(depths >= ordered)[-1]]
    return float(low + depth), np.maximum(depth - offsets, 0.0)


def waterfill_capacity(p_c: float, alphas) -> WaterfillResult:
    """Maximize the forward-link rate over parallel channels with budget ``p_c``.

    Args:
        p_c: power budget, >= 0.
        alphas: per-eigenchannel gains, nonnegative, zeros allowed.

    Returns:
        WaterfillResult with lam_i = max(level - 1/alpha_i, 0), the sum of
        active powers matching p_c to relative 1e-8 or tighter.

    The level and the powers are ``_fill`` on the floors 1/alpha of the
    positive gains with budget p_c.
    """
    if p_c < 0 or not math.isfinite(p_c):
        raise ValueError("power budget must be nonnegative and finite")
    a = check_gains(alphas)
    n = a.size
    pos = a > 0
    if not pos.any():
        zero = PowerAllocation(np.zeros(n))
        return WaterfillResult(zero, 0.0, 0.0, 0.0)
    inv = 1.0 / a[pos]
    if p_c == 0:
        # nothing to place: the lowest floor is the level, and the KKT
        # conditions hold exactly rather than up to the rounding of 1/level
        zero = PowerAllocation(np.zeros(n))
        return WaterfillResult(zero, float(inv.min()), 0.0, 0.0)
    level, filled = _fill(inv, p_c)
    lam = np.zeros(n)
    lam[pos] = filled
    alloc = PowerAllocation(lam)
    capacity = float(np.sum(np.log1p(a * lam)))
    return WaterfillResult(alloc, level, capacity,
                           _kkt_residual(lam, level, a, float(p_c)))


def reverse_waterfill(source_eigs, multiplicity: int,
                      target_rate: float) -> ReverseWaterfillResult:
    """Minimize total forwarding distortion of parallel sources at a rate budget.

    Args:
        source_eigs: per-component source variances, nonnegative.
        multiplicity: how many independent copies of each component are
            forwarded (receive antennas of the sensing array).
        target_rate: available rate in nats per block, >= 0.

    Returns:
        ReverseWaterfillResult with per-component distortion min(xi, eig),
        d_c = multiplicity * sum of those, and the rate actually consumed,
        which matches target_rate to rounding, even for a target below
        the float spacing of the log eigenvalues.

    The level is ``_fill`` on the floors -log eig with budget R/m, and
    xi = exp(-level); component i spends m times its depth, the positive
    part of log(eig_i/xi) nats.  Zero eigenvalues are never active and are
    left out; a zero target yields xi = max(eig) and zero rate.
    """
    eigs = np.asarray(source_eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ValueError("source_eigs must be a nonempty 1-d vector")
    if np.any(eigs < 0) or not np.all(np.isfinite(eigs)):
        raise ValueError("source eigenvalues must be nonnegative and finite")
    if not isinstance(multiplicity, (int, np.integer)) or multiplicity < 1:
        raise ValueError(f"multiplicity must be a positive integer, got {multiplicity!r}")
    if target_rate < 0 or not np.isfinite(target_rate):
        raise ValueError("target rate must be nonnegative and finite")
    m = int(multiplicity)
    pos = eigs[eigs > 0]
    if pos.size == 0:
        return ReverseWaterfillResult(0.0, np.zeros_like(eigs), 0.0, 0.0)
    if target_rate == 0:
        xi = float(pos.max())
        rate = 0.0
    else:
        level, filled = _fill(-np.log(pos), target_rate / m)
        xi = math.exp(-level)
        rate = m * float(filled.sum())
    per = np.minimum(xi, eigs)
    return ReverseWaterfillResult(xi, per, m * float(per.sum()), rate, xi == 0.0)


def evaluate(alloc: PowerAllocation, capacity: float,
             cfg: SystemConfig) -> DistortionReport:
    """Distortion of sensing with ``alloc`` and forwarding at ``capacity``, for both schemes."""
    eta = source_eigenvalue(alloc.lambdas, cfg)
    rwf = reverse_waterfill(eta, cfg.m_s, capacity)
    return assemble_report(sensing_distortion(alloc, cfg), rwf.d_c, capacity,
                           rwf.xi, eta)
