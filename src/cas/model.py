"""Closed-form distortion model for communication-assisted sensing.

A base station senses a target response, compresses the MMSE estimate and
forwards it to a fusion center over a fading link.  End-to-end distortion
splits into an estimation part (sensing noise) and a delivery part
(rate-limited forwarding), and both reduce to per-eigenchannel scalar
formulas once the transmit covariance is diagonalized.  This module holds
the shared configuration/result types and those scalar formulas:
``subchannel_mmse`` is the one sensing MMSE, ``source_eigenvalue`` its
checked entry, and ``capacity_eigform`` the one rate of an allocation.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


def check_vector(values, name: str, size: int | None = None) -> np.ndarray:
    """``values`` as a nonempty 1-d finite nonnegative float vector (``size`` long if given)."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size == 0 or (size is not None and a.size != size):
        raise ValueError(f"{name} must be a nonempty 1-d vector of length {size or 'n'}, "
                         f"got shape {a.shape}")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be nonnegative and finite")
    return a


def read_only(values) -> np.ndarray:
    """A copy of ``values`` that cannot be written, in its own dtype."""
    arr = np.array(values)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters shared by every stage of the pipeline.

    n_tx:      transmit antennas at the base station (N)
    m_s:       receive antennas of the sensing array
    m_c:       receive antennas at the fusion center
    n_symbols: symbols per coherent processing block (T)
    var_eta:   prior variance of each target-response coefficient
    var_s:     sensing noise variance per receive antenna and symbol
    var_c:     communication noise variance per receive antenna and symbol
    p_total:   the per-symbol power budget and the unit of power, fixed at
               1.0: var_s, var_c and every power are per unit of it
    """

    n_tx: int
    m_s: int
    m_c: int
    n_symbols: int
    var_eta: float
    var_s: float
    var_c: float
    p_total: ClassVar[float] = 1.0

    def __post_init__(self):
        for name in ("n_tx", "m_s", "m_c", "n_symbols"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        # T >= N keeps every covariance eigenvalue profile realizable by an
        # actual length-T waveform (orthonormal rows exist only if T >= N).
        if self.n_symbols < self.n_tx:
            raise ValueError("n_symbols must be at least n_tx")
        for name in ("var_eta", "var_s", "var_c"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float, np.floating)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative eigenvalues of a transmit sample covariance (per-symbol, in budgets)."""

    lambdas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambdas",
                           read_only(check_vector(self.lambdas, "allocation")))

    def __len__(self):
        return self.lambdas.size

    @property
    def total(self) -> float:
        return float(self.lambdas.sum())

    def check_budget(self, p_total: float) -> None:
        """Raise if the allocation spends more than ``p_total`` (relative slack 1e-9)."""
        if self.total > p_total * (1.0 + 1e-9):
            raise ValueError(
                f"allocation spends {self.total:.12g} > budget {p_total:.12g}"
            )


@dataclass(frozen=True)
class DistortionReport:
    """End-to-end distortion breakdown for one transmit strategy.

    d_sc is assembled as d_s + d_c, never re-derived, so the identity holds
    exactly in floating point.  capacity may be math.inf for an idealized
    unconstrained link.  xi is the reverse water level of the forwarded
    source eigenvalues (``source_eigenvalue`` of the allocation).
    """

    d_s: float
    d_c: float
    d_sc: float
    capacity: float
    xi: float

    def __post_init__(self):
        if self.d_sc != self.d_s + self.d_c:
            raise ValueError("d_sc must equal d_s + d_c exactly")


def noise_var_from_snr(snr_db: float, cfg) -> float:
    """Noise variance per unit budget at a per-block SNR of ``snr_db`` decibels.

    The block SNR is T * p_total / variance, so variance = T / 10**(snr_db/10)
    with the budget as unit; ``cfg`` is a SystemConfig or an ExperimentConfig.
    """
    return cfg.n_symbols / 10.0 ** (snr_db / 10.0)


def live_gains(alphas) -> np.ndarray:
    """Mask of the gains with a finite water-filling floor 1/alpha; a link with none is dead."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.isfinite(1.0 / np.asarray(alphas, dtype=float))


def subchannel_mmse(lam, cfg: SystemConfig):
    """MMSE of one target-response eigenchannel given sensing power ``lam``.

    Takes a float or an array of powers and checks none of them.  Decreasing
    and convex in lam; equals var_eta at zero power and vanishes as power
    grows.  Written as var_eta over a divisor >= 1 so it never rounds above
    var_eta for lam >= 0, which keeps source_eigenvalue nonnegative in
    floating point.
    """
    return cfg.var_eta / (1.0 + cfg.n_symbols * cfg.var_eta * lam / cfg.var_s)


def source_eigenvalue(lambda_s, cfg: SystemConfig):
    """Variance of one eigenchannel of the MMSE estimate (the forwarded source).

    The checked entry to the sensing formula: refuses a negative power,
    then returns var_eta - subchannel_mmse, so the estimate and its error
    sum to var_eta exactly in floating point.
    """
    if np.any(np.asarray(lambda_s) < 0):
        raise ValueError("sensing eigenvalue power must be nonnegative")
    return cfg.var_eta - subchannel_mmse(lambda_s, cfg)


def sensing_distortion(alloc: PowerAllocation, cfg: SystemConfig) -> float:
    """Total estimation-stage distortion for a sensing covariance eigenprofile."""
    if len(alloc) != cfg.n_tx:
        raise ValueError(
            f"allocation length {len(alloc)} does not match n_tx {cfg.n_tx}"
        )
    return cfg.m_s * float(np.sum(subchannel_mmse(alloc.lambdas, cfg)))


def capacity_eigform(alloc: PowerAllocation, alphas) -> float:
    """Forward-link rate (nats per block) of an eigendomain power allocation.

    alphas are the per-eigenchannel gains T * gram_eig / var_c, in the same
    basis and order as the allocation.
    """
    a = check_vector(alphas, "alphas", len(alloc))
    return float(np.sum(np.log1p(a * alloc.lambdas)))


def assemble_report(d_s: float, d_c: float, capacity: float,
                    xi: float) -> DistortionReport:
    """Build a DistortionReport, validating domains and summing d_sc = d_s + d_c."""
    if d_s < 0 or d_c < 0 or xi < 0:
        raise ValueError("distortions and the water level must be nonnegative")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    return DistortionReport(
        d_s=float(d_s),
        d_c=float(d_c),
        d_sc=float(d_s) + float(d_c),
        capacity=float(capacity),
        xi=float(xi),
    )
