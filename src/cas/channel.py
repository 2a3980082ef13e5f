"""Seeded channel generation, waveform covariances and estimation oracles.

Randomness is split into fixed streams so the channel draw and the Monte
Carlo trials never share state:

    stream 0: communication channel entries
    stream 2: Monte Carlo estimation trials (one child per trial)

Each generator is seeded with (stream, user seed, extra keys), so any result
is reproducible from the user seed alone and independent of call order.
"""

from dataclasses import dataclass

import numpy as np

from .model import PowerAllocation, SystemConfig, read_only

_STREAM_CHANNEL = 0
# stream 1 is unused: renumbering the Monte Carlo stream would change its draws
_STREAM_MC = 2


def _rng(stream: int, *keys: int) -> np.random.Generator:
    # fold into the nonnegative range SeedSequence accepts
    folded = [int(k) % (2 ** 63) for k in keys]
    return np.random.default_rng([stream, *folded])


def _complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class CommChannel:
    """One realization of the forwarding link.

    gram_eigs are the eigenvalues of h^H h in descending order, eigvecs the
    matching orthonormal columns.  Past the first min(m_c, n_tx) the
    eigenvalues are zero only up to round-off (about 1e-15 at seed 0), and
    they are kept as computed, not zeroed.
    """

    h: np.ndarray
    gram_eigs: np.ndarray
    eigvecs: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("h", "gram_eigs", "eigvecs"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        if np.any(self.gram_eigs < 0) or np.any(np.diff(self.gram_eigs) > 0):
            raise ValueError("gram_eigs must be nonnegative and descending")


def generate_rayleigh(seed: int, m_c: int, n_tx: int) -> CommChannel:
    """Draw an i.i.d. unit-variance complex Gaussian m_c x n_tx channel."""
    if m_c < 1 or n_tx < 1:
        raise ValueError("channel dimensions must be positive")
    rng = _rng(_STREAM_CHANNEL, seed)
    h = _complex_normal(rng, (int(m_c), int(n_tx)))
    gram = h.conj().T @ h
    w, v = np.linalg.eigh(gram)
    order = slice(None, None, -1)
    return CommChannel(h, np.maximum(w[order], 0.0), v[:, order], int(seed))


def alphas_from_channel(channel: CommChannel, cfg: SystemConfig) -> np.ndarray:
    """Per-eigenchannel forward-link gains T * gram_eig / var_c, descending."""
    if channel.gram_eigs.size != cfg.n_tx:
        raise ValueError("channel eigencount does not match n_tx")
    return cfg.n_symbols * channel.gram_eigs / cfg.var_c


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

