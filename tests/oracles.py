"""Independent references that the tests check the package against.

None of these is on the solve path.  The split slope water-fills in full
at each call, with no sorted form kept.  The random ones draw from the package's own
seeded streams (``cas.channel._rng``), so every channel matrix and Monte
Carlo trial is the same draw the package would make:

    stream 0: communication channel entries (``channel_matrix``)
    stream 2: Monte Carlo estimation trials (one child per trial)
"""

import math

import numpy as np

from cas.channel import _STREAM_CHANNEL, _complex_normal, _rng
from cas.model import PowerAllocation, SystemConfig, subchannel_mmse
from cas.waterfilling import waterfill_capacity

# stream 1 is unused: renumbering the Monte Carlo stream would change its draws
_STREAM_MC = 2


def channel_matrix(seed: int, m_c: int, n_tx: int) -> np.ndarray:
    """The m_c x n_tx channel h whose Gram eigenvalues ``generate_rayleigh`` returns."""
    return _complex_normal(_rng(_STREAM_CHANNEL, seed), (int(m_c), int(n_tx)))


def split_slope_terms(p_s, cfg: SystemConfig, alphas):
    """The two terms of dd_sc/dp_s, from a full ``waterfill_capacity`` at p_total - p_s.

    Returns (m*f'(x)*(1 - E), g(x)*E/level) with x = p_s/n and
    E = exp(-C/(m*n)), whose sum is the slope; the gains are validated,
    inverted and sorted afresh at each call.  Live links only.
    """
    f = subchannel_mmse(p_s / cfg.n_tx, cfg)
    wf = waterfill_capacity(cfg.p_total - p_s, alphas)
    c = wf.capacity / (cfg.m_s * cfg.n_tx)
    d_f = -cfg.n_symbols * f * f / cfg.var_s
    return (-cfg.m_s * d_f * math.expm1(-c),
            (cfg.var_eta - f) * math.exp(-c) / wf.level)


def random_unitary(n, seed):
    """Haar-distributed n x n unitary (QR of a complex Gaussian, phases fixed)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def logdet_capacity(h, cov, cfg):
    """Independent mutual-information oracle, no eigen decomposition."""
    m_c = h.shape[0]
    inner = np.eye(m_c, dtype=complex) + (cfg.n_symbols / cfg.var_c) * (h @ cov @ h.conj().T)
    sign, logdet = np.linalg.slogdet(inner)
    assert sign.real > 0
    return float(logdet.real)


def covariance_from_alloc(alloc: PowerAllocation, basis) -> np.ndarray:
    """Assemble the Hermitian covariance basis * diag(lambdas) * basis^H."""
    u = np.asarray(basis, dtype=complex)
    n = len(alloc)
    if u.shape != (n, n):
        raise ValueError("basis shape does not match the allocation")
    if float(np.abs(u.conj().T @ u - np.eye(n)).max()) > 1e-8:
        raise ValueError("basis must be unitary")
    mat = (u * alloc.lambdas) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


def exact_waveform(alloc: PowerAllocation, t: int, basis=None) -> np.ndarray:
    """Deterministic waveform whose sample covariance realizes the allocation exactly.

    Columns are sqrt(t) * basis * diag(sqrt(lambdas)) followed by zeros, i.e.
    scaled orthonormal rows, so X X^H / t = basis diag(lambdas) basis^H with
    no sampling error.  Requires t >= len(alloc).
    """
    n = len(alloc)
    if t < n:
        raise ValueError("t must be at least the allocation length")
    u = np.eye(n, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
    if u.shape != (n, n):
        raise ValueError("basis shape does not match the allocation")
    x = np.zeros((n, int(t)), dtype=complex)
    x[:, :n] = u * np.sqrt(float(t) * alloc.lambdas)
    return x


def mmse_matrix_oracle(x_s: np.ndarray, cfg: SystemConfig) -> float:
    """Estimation distortion of an explicit waveform via the information-matrix trace.

    Directly evaluates m_s * tr[(I/var_eta + X* X^T / var_s)^{-1}] with no
    eigen decomposition, serving as an independent check of the closed-form
    per-eigenchannel distortion.
    """
    x = np.asarray(x_s)
    if x.shape != (cfg.n_tx, cfg.n_symbols):
        raise ValueError(
            f"waveform shape {x.shape} does not match (n_tx, n_symbols)"
        )
    info = np.eye(cfg.n_tx, dtype=complex) / cfg.var_eta + (x.conj() @ x.T) / cfg.var_s
    inv = np.linalg.solve(info, np.eye(cfg.n_tx, dtype=complex))
    return cfg.m_s * float(np.trace(inv).real)


def mmse_monte_carlo_stats(alloc: PowerAllocation, cfg: SystemConfig,
                           trials: int, seed: int):
    """Empirical estimation distortion over seeded trials.

    Builds the exact waveform for the allocation, forms the linear MMSE
    estimator once through a linear solve of the T x T receive covariance,
    then averages the squared estimation error over independent draws of the
    target response and sensing noise.

    Returns (mean, standard_error, trials).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if len(alloc) != cfg.n_tx:
        raise ValueError("allocation length does not match n_tx")
    x = exact_waveform(alloc, cfg.n_symbols)
    t = cfg.n_symbols
    b = cfg.var_eta * (x.T @ x.conj()) + cfg.var_s * np.eye(t, dtype=complex)
    b_inv = np.linalg.solve(b, np.eye(t, dtype=complex))
    estimator = cfg.var_eta * (x.conj() @ b_inv)
    errs = np.empty(int(trials))
    for trial in range(int(trials)):
        rng = _rng(_STREAM_MC, seed, trial)
        h = _complex_normal(rng, (cfg.n_tx, cfg.m_s), cfg.var_eta)
        z = _complex_normal(rng, (t, cfg.m_s), cfg.var_s)
        y = x.T @ h + z
        est = estimator @ y
        errs[trial] = float(np.sum(np.abs(est - h) ** 2))
    mean = float(errs.mean())
    stderr = float(errs.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return mean, stderr, int(trials)
