"""Water-filling solvers for the forward link and its reverse (rate-distortion) dual.

Both solvers are exact and take a fixed number of steps: they sort the
channels once and read the water level off the prefix sums for the number
of active channels that is consistent with it (Palomar & Fonollosa, IEEE
TSP 2005, for capacity; Cover & Thomas, Elements of Information Theory,
section 10.3.3, for the reverse problem, solved in the log domain so it is
stable across many orders of magnitude).  Each forward solve carries a KKT
residual so optimality is certified rather than assumed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import (DistortionReport, PowerAllocation, SystemConfig,
                    assemble_report, sensing_distortion, source_eigenvalue)


@dataclass(frozen=True)
class WaterfillResult:
    """Capacity-optimal allocation over parallel channels.

    level is the water level xi_c: active channels receive level - 1/alpha_i.
    kkt_residual is the worst relative violation among the power budget,
    stationarity on active channels and dual feasibility on inactive ones.
    degenerate marks the all-zero-gain channel with positive budget, where
    any allocation is optimal and zeros are returned.
    """

    alloc: PowerAllocation
    level: float
    capacity: float
    kkt_residual: float = 0.0
    degenerate: bool = False


@dataclass(frozen=True)
class ReverseWaterfillResult:
    """Distortion-minimal forwarding of parallel Gaussian sources at a rate budget.

    xi is the reverse water level: each component is delivered at distortion
    min(xi, eig).  d_c multiplies the per-component sum by the source
    multiplicity.  saturated marks rate targets so large that xi underflows
    to zero (rate is still the consumed rate, computed in the log domain).
    degenerate marks an all-zero source, which costs nothing to deliver at
    any rate.
    """

    xi: float
    per_component_d: np.ndarray
    d_c: float
    rate: float
    degenerate: bool = False
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


def waterfill_capacity(p_c: float, alphas) -> WaterfillResult:
    """Maximize the forward-link rate over parallel channels with budget ``p_c``.

    Args:
        p_c: power budget, >= 0.
        alphas: per-eigenchannel gains, nonnegative, zeros allowed.

    Returns:
        WaterfillResult with lam_i = max(level - 1/alpha_i, 0), the sum of
        active powers matching p_c to relative 1e-8 or tighter.

    With 1/alpha sorted ascending over the positive gains and measured as
    offsets o_i above the lowest one, filling the k strongest channels
    gives the water depth w = (p_c + o_1 + ... + o_k)/k above that floor;
    the depth is the one of the largest k whose depth reaches o_k.  Active
    powers are w - o_i, and every active offset is at most w <= p_c, so
    even a budget far below the floors' float spacing is handed out whole.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("alphas must be a nonempty 1-d vector")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("alphas must be nonnegative and finite")
    if p_c < 0:
        raise ValueError("power budget must be nonnegative")
    n = a.size
    pos = a > 0
    if not pos.any():
        zero = PowerAllocation(np.zeros(n))
        return WaterfillResult(zero, 0.0, 0.0, 0.0, degenerate=bool(p_c > 0))
    inv = 1.0 / a[pos]
    if p_c == 0:
        # nothing to place: the lowest floor is the level, and the KKT
        # conditions hold exactly rather than up to the rounding of 1/level
        zero = PowerAllocation(np.zeros(n))
        return WaterfillResult(zero, float(inv.min()), 0.0, 0.0)
    floor = inv.min()
    offsets = inv - floor
    ordered = np.sort(offsets)
    depths = (p_c + np.cumsum(ordered)) / np.arange(1, ordered.size + 1)
    # k = 1 always qualifies, since depths[0] = p_c and ordered[0] = 0
    depth = depths[np.flatnonzero(depths >= ordered)[-1]]
    level = float(floor + depth)
    lam = np.zeros(n)
    lam[pos] = np.maximum(depth - offsets, 0.0)
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
        which matches target_rate up to the rounding of the log
        eigenvalues (a target below that resolution consumes zero rate).

    With the log eigenvalues sorted descending, spending the rate R on the
    k largest components gives log xi = (sum of their logs - R/m)/k.  The
    active set is the smallest k whose level is at least the (k+1)-th log
    eigenvalue (all components if none is).  Zero eigenvalues are never
    active and are left out; a zero target yields xi = max(eig) and zero
    rate.
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
        return ReverseWaterfillResult(0.0, np.zeros_like(eigs), 0.0, 0.0,
                                      degenerate=True)
    if target_rate == 0:
        xi = float(pos.max())
        rate = 0.0
    else:
        logs = np.sort(np.log(pos))[::-1]
        u = (np.cumsum(logs) - target_rate / m) / np.arange(1, logs.size + 1)
        # >= rather than >: with ties, or a rate below float resolution, the
        # level can equal the next log eigenvalue exactly
        passing = np.flatnonzero(u[:-1] >= logs[1:])
        k = int(passing[0]) + 1 if passing.size else logs.size
        log_xi = float(u[k - 1])
        xi = math.exp(log_xi)
        rate = m * float(np.sum(logs[:k] - log_xi))
    per = np.minimum(xi, eigs)
    return ReverseWaterfillResult(xi, per, m * float(per.sum()), rate,
                                  False, xi == 0.0)


def evaluate(alloc: PowerAllocation, capacity: float,
             cfg: SystemConfig) -> DistortionReport:
    """Distortion of sensing with ``alloc`` and forwarding at ``capacity``, for both schemes."""
    eta = source_eigenvalue(alloc.lambdas, cfg)
    rwf = reverse_waterfill(eta, cfg.m_s, capacity)
    return assemble_report(sensing_distortion(alloc, cfg), rwf.d_c, capacity,
                           rwf.xi, eta)
