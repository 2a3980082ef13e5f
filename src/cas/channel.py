"""Seeded Rayleigh draws of the forwarding link and their eigenchannel gains.

The solver sees the link only through the eigenvalues of h^H h.  The draw
of h comes from a fixed stream (stream 0), seeded with (stream, user seed),
so every channel is reproducible from the user seed alone and independent
of call order or process count.
"""

import numpy as np

from .model import SystemConfig, check_vector, read_only

_STREAM_CHANNEL = 0


def _rng(stream: int, *keys: int) -> "np.random.Generator":
    # SeedSequence refuses a negative key, and keys of any size get their own draw
    return np.random.default_rng([stream, *map(int, keys)])


def _complex_normal(rng: "np.random.Generator", shape, var: float = 1.0) -> np.ndarray:
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def generate_rayleigh(seed: int, m_c: int, n_tx: int) -> np.ndarray:
    """Gram eigenvalues of an i.i.d. unit-variance complex Gaussian m_c x n_tx channel.

    Returns the n_tx eigenvalues of h^H h in descending order, read-only.
    h^H h has rank min(m_c, n_tx), so the eigenvalues past it are set to
    exactly 0.0 rather than kept at their round-off (about 1e-15 at seed 0),
    which would make them live gains that depend on the LAPACK build.
    """
    if m_c < 1 or n_tx < 1:
        raise ValueError("channel dimensions must be positive")
    h = _complex_normal(_rng(_STREAM_CHANNEL, seed), (int(m_c), int(n_tx)))
    w = np.maximum(np.linalg.eigh(h.conj().T @ h)[0][::-1], 0.0)
    w[min(int(m_c), int(n_tx)):] = 0.0
    return read_only(w)


def alphas_from_channel(gram_eigs, cfg: SystemConfig) -> np.ndarray:
    """Per-eigenchannel forward-link gains T * gram_eig / var_c.

    gram_eigs must be n_tx finite nonnegative values; their order is kept.
    """
    gram_eigs = check_vector(gram_eigs, "gram_eigs", cfg.n_tx)
    return cfg.n_symbols * gram_eigs / cfg.var_c
