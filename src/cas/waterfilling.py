"""Water-filling solvers for the forward link and its reverse (rate-distortion) dual.

Both solve one problem, the level L with sum_i max(L - o_i, 0) = B over
floors o, which ``_depth`` reads off sorted prefix sums in a fixed number of
steps.  Capacity has o = 1/alpha and B = p_c (Palomar & Fonollosa, IEEE TSP
2005); the reverse has o = -log eig, B = R/m and xi = exp(-L) (Cover &
Thomas, Elements of Information Theory, section 10.3.3), stable across many
orders of magnitude.  Each forward solve reads its rate from
``capacity_eigform`` and carries a KKT residual.  For one link at many
budgets, ``capacity_curve`` sorts the floors once and gives the level and
capacity at each budget in plain floats.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import (DistortionReport, PowerAllocation, SystemConfig,
                    assemble_report, capacity_eigform, check_vector,
                    live_gains, read_only, sensing_distortion,
                    source_eigenvalue)


@dataclass(frozen=True)
class WaterfillResult:
    """Capacity-optimal allocation over parallel channels.

    level is the water level xi_c: active channels receive level - 1/alpha_i.
    kkt_residual is the worst relative violation among the power budget,
    stationarity on active channels and dual feasibility on inactive ones.
    With no live gain any allocation is optimal, and zeros are returned.
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
        object.__setattr__(self, "per_component_d", read_only(self.per_component_d))


def uniform_allocation(p_s: float, n: int) -> PowerAllocation:
    """Split ``p_s`` evenly over ``n`` eigenchannels (the isotropic profile)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
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


def _depth(ordered, prefix, budget: float) -> float:
    """Depth of the level L with sum_i max(L - o_i, 0) = budget above the lowest floor.

    ``ordered`` are the floors' offsets o above the lowest one, ascending
    (so o_1 = 0), and ``prefix`` their running sums, both plain float
    sequences.  Filling the k lowest gives the depth (budget + o_1 + ... +
    o_k)/k; the depth is that of the largest k whose depth reaches o_k.
    """
    for k in range(len(ordered), 0, -1):
        depth = (budget + prefix[k - 1]) / k
        # k = 1 always qualifies, since its depth is budget >= 0 = o_1
        if depth >= ordered[k - 1]:
            return depth


def _fill(floors: np.ndarray, budget: float):
    """Level L with sum_i max(L - floors_i, 0) = budget, and each floor's depth under L.

    The depth above the lowest floor is ``_depth`` on the sorted offsets.
    Every filled offset is at most depth <= budget, so even a budget far
    below the floors' float spacing is handed out whole.
    """
    low = floors.min()
    offsets = floors - low
    ordered = np.sort(offsets).tolist()
    depth = _depth(ordered, list(accumulate(ordered)), budget)
    return float(low + depth), np.maximum(depth - offsets, 0.0)


def capacity_curve(alphas):
    """Water level and capacity of ``waterfill_capacity`` as a function of p_c, for fixed gains.

    Sorts the floors 1/alpha of the live gains once, with their offsets and
    prefix sums; each call of the returned ``curve(p_c) -> (level,
    capacity)`` is then ``_depth`` and at most one log1p per gain in plain
    floats.  The level is the same float as waterfill_capacity's and the
    capacity its correctly rounded sum (math.fsum) of the same terms.
    None on a dead link.
    """
    a = check_vector(alphas, "alphas")
    # descending gains have ascending floors
    gains = np.sort(a[live_gains(a)])[::-1]
    if not gains.size:
        return None
    floors = 1.0 / gains
    low = float(floors[0])
    offsets = (floors - low).tolist()
    gains = gains.tolist()
    prefix = list(accumulate(offsets))

    def curve(p_c: float) -> tuple[float, float]:
        depth = _depth(offsets, prefix, p_c)
        # the offsets below the depth are those of the channels with power
        active = range(bisect_left(offsets, depth))
        return low + depth, math.fsum(math.log1p(gains[i] * (depth - offsets[i]))
                                      for i in active)

    return curve


def waterfill_capacity(p_c: float, alphas) -> WaterfillResult:
    """Maximize the forward-link rate over parallel channels with budget ``p_c``.

    Args:
        p_c: power budget, >= 0.
        alphas: per-eigenchannel gains, nonnegative, zeros allowed.

    Returns:
        WaterfillResult with lam_i = max(level - 1/alpha_i, 0), the sum of
        active powers matching p_c to relative 1e-8 or tighter.

    The level and the powers are ``_fill`` on the floors 1/alpha of the
    live gains (``live_gains``), with budget p_c; a dead gain gets no power.
    """
    if p_c < 0 or not math.isfinite(p_c):
        raise ValueError("power budget must be nonnegative and finite")
    a = check_vector(alphas, "alphas")
    n = a.size
    pos = live_gains(a)
    inv = 1.0 / a[pos]
    if p_c == 0 or not inv.size:
        # nothing to place, or nowhere: the lowest floor (0.0 on a dead link)
        # is the level, and KKT holds exactly, not up to rounding of 1/level
        level = float(inv.min()) if inv.size else 0.0
        return WaterfillResult(PowerAllocation(np.zeros(n)), level, 0.0, 0.0)
    level, filled = _fill(inv, p_c)
    lam = np.zeros(n)
    lam[pos] = filled
    alloc = PowerAllocation(lam)
    return WaterfillResult(alloc, level, capacity_eigform(alloc, a),
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
    eigs = check_vector(source_eigs, "source_eigs")
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
                           rwf.xi)
