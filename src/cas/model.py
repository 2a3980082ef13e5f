"""Closed-form distortion model for communication-assisted sensing.

A base station senses a target response, compresses the MMSE estimate and
forwards it to a fusion center over a fading link.  End-to-end distortion
splits into an estimation part (sensing noise) and a delivery part
(rate-limited forwarding), and both reduce to per-eigenchannel scalar
formulas once the transmit covariance is diagonalized.  This module holds
the shared configuration/result types and those scalar formulas.
"""

import math
from dataclasses import dataclass

import numpy as np


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
    p_total:   transmit power budget per symbol
    """

    n_tx: int
    m_s: int
    m_c: int
    n_symbols: int
    var_eta: float
    var_s: float
    var_c: float
    p_total: float

    def __post_init__(self):
        for name in ("n_tx", "m_s", "m_c", "n_symbols"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        # T >= N keeps every covariance eigenvalue profile realizable by an
        # actual length-T waveform (orthonormal rows exist only if T >= N).
        if self.n_symbols < self.n_tx:
            raise ValueError("n_symbols must be at least n_tx")
        for name in ("var_eta", "var_s", "var_c", "p_total"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float, np.floating)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative eigenvalues of a transmit sample covariance (per-symbol watts)."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("allocation must be a nonempty 1-d vector")
        if not np.all(np.isfinite(lam)):
            raise ValueError("allocation entries must be finite")
        if np.any(lam < 0):
            raise ValueError("allocation entries must be nonnegative")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

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
    exactly in floating point.  source_eigs are the per-eigenchannel
    variances of the estimate handed to the forwarding stage (length n_tx,
    each conceptually repeated m_s times).  capacity may be math.inf for an
    idealized unconstrained link.  xi is their reverse water level.
    """

    d_s: float
    d_c: float
    d_sc: float
    capacity: float
    xi: float
    source_eigs: np.ndarray

    def __post_init__(self):
        eigs = np.array(self.source_eigs, dtype=float)
        eigs.setflags(write=False)
        object.__setattr__(self, "source_eigs", eigs)
        if self.d_sc != self.d_s + self.d_c:
            raise ValueError("d_sc must equal d_s + d_c exactly")


def noise_var_from_snr(snr_db: float, cfg: SystemConfig) -> float:
    """Noise variance realizing a per-block SNR of ``snr_db`` decibels.

    The block SNR convention is T * p_total / variance, so
    variance = T * p_total / 10**(snr_db / 10).
    """
    return cfg.n_symbols * cfg.p_total / 10.0 ** (snr_db / 10.0)


def sensing_subchannel_distortion(lambda_s, cfg: SystemConfig):
    """MMSE of one target-response eigenchannel given sensing power ``lambda_s``.

    Accepts a scalar or an array of eigenvalues.  Decreasing and convex in
    lambda_s; equals var_eta at zero power and vanishes as power grows.
    Written as var_eta over a divisor >= 1 so it never rounds above var_eta,
    which keeps source_eigenvalue nonnegative in floating point.
    """
    lam = np.asarray(lambda_s, dtype=float)
    if np.any(lam < 0):
        raise ValueError("sensing eigenvalue power must be nonnegative")
    out = cfg.var_eta / (1.0 + cfg.n_symbols * cfg.var_eta * lam / cfg.var_s)
    return out.item() if out.ndim == 0 else out


def source_eigenvalue(lambda_s, cfg: SystemConfig):
    """Variance of one eigenchannel of the MMSE estimate (the forwarded source).

    Complementary to the estimation error: implemented as
    var_eta - sensing_subchannel_distortion so the two sum to var_eta
    exactly in floating point.
    """
    f = sensing_subchannel_distortion(lambda_s, cfg)
    return cfg.var_eta - f


def sensing_distortion(alloc: PowerAllocation, cfg: SystemConfig) -> float:
    """Total estimation-stage distortion for a sensing covariance eigenprofile."""
    if len(alloc) != cfg.n_tx:
        raise ValueError(
            f"allocation length {len(alloc)} does not match n_tx {cfg.n_tx}"
        )
    per = sensing_subchannel_distortion(alloc.lambdas, cfg)
    return cfg.m_s * float(np.sum(per))


def capacity_eigform(alloc: PowerAllocation, alphas) -> float:
    """Forward-link rate (nats per block) of an eigendomain power allocation.

    alphas are the per-eigenchannel gains T * gram_eig / var_c, in the same
    basis and order as the allocation.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size != len(alloc):
        raise ValueError("alphas must be a 1-d vector matching the allocation")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("alphas must be nonnegative and finite")
    return float(np.sum(np.log1p(a * alloc.lambdas)))


def assemble_report(d_s: float, d_c: float, capacity: float, xi: float,
                    source_eigs) -> DistortionReport:
    """Build a DistortionReport, validating domains and summing d_sc = d_s + d_c."""
    eigs = np.asarray(source_eigs, dtype=float)
    if d_s < 0 or d_c < 0 or xi < 0:
        raise ValueError("distortions and the water level must be nonnegative")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    if np.any(eigs < 0):
        raise ValueError("source eigenvalues must be nonnegative")
    return DistortionReport(
        d_s=float(d_s),
        d_c=float(d_c),
        d_sc=float(d_s) + float(d_c),
        capacity=float(capacity),
        xi=float(xi),
        source_eigs=eigs,
    )
