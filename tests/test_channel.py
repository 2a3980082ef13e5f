import numpy as np
import pytest

from cas import (PowerAllocation, SystemConfig, alphas_from_channel,
                 generate_rayleigh)
from cas.model import capacity_eigform, sensing_distortion
from cas.waterfilling import uniform_allocation, waterfill_capacity
from conftest import reference_system
from oracles import (channel_matrix, covariance_from_alloc, exact_waveform,
                     logdet_capacity, mmse_matrix_oracle, mmse_monte_carlo_stats,
                     random_unitary)


def test_generate_rayleigh_deterministic():
    a = generate_rayleigh(3, 5, 10)
    b = generate_rayleigh(3, 5, 10)
    c = generate_rayleigh(4, 5, 10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_rayleigh_moments():
    h = channel_matrix(0, 200, 500)
    power = np.abs(h) ** 2
    assert power.mean() == pytest.approx(1.0, abs=0.02)
    # real and imaginary parts carry half the power each
    assert (h.real ** 2).mean() == pytest.approx(0.5, abs=0.02)


def test_generate_rayleigh_eigenstructure():
    eigs = generate_rayleigh(1, 5, 10)
    assert eigs.shape == (10,)
    assert not eigs.flags.writeable
    assert np.all(eigs >= 0)
    assert np.all(np.diff(eigs) <= 0)
    # rank is at most m_c
    assert np.all(eigs[5:] <= 1e-10 * eigs[0])
    h = channel_matrix(1, 5, 10)
    gram = h.conj().T @ h
    w, v = np.linalg.eigh(gram)
    # the reference draw is the package's draw, to the last bit
    assert np.array_equal(eigs, np.maximum(w[::-1], 0.0))
    v = v[:, ::-1]
    assert np.abs(v.conj().T @ v - np.eye(10)).max() < 1e-10
    rebuilt = (v * eigs) @ v.conj().T
    assert np.abs(gram - rebuilt).max() < 1e-10 * eigs[0]


def test_alphas_from_channel_examples():
    cfg = reference_system(10.0)
    one = SystemConfig(n_tx=1, m_s=1, m_c=1, n_symbols=100,
                       var_eta=0.1, var_s=1.0, var_c=10.0, p_total=1.0)
    assert np.allclose(alphas_from_channel(np.array([1.0]), one), [10.0])
    two = SystemConfig(n_tx=2, m_s=1, m_c=2, n_symbols=100,
                       var_eta=0.1, var_s=1.0, var_c=10.0, p_total=1.0)
    eigs = np.array([2.0, 1.0])
    assert np.allclose(alphas_from_channel(eigs, two), [20.0, 10.0])
    assert np.all(alphas_from_channel(np.zeros(2), two) == 0.0)
    with pytest.raises(ValueError):
        alphas_from_channel(eigs, cfg)


def test_covariance_from_alloc():
    alloc = PowerAllocation(np.array([0.5, 0.3, 0.2]))
    ident = covariance_from_alloc(alloc, np.eye(3))
    assert np.allclose(ident, np.diag(alloc.lambdas))
    u = random_unitary(3, 5)
    cov = covariance_from_alloc(alloc, u)
    assert np.trace(cov).real == pytest.approx(1.0, rel=1e-12)
    eigs = np.sort(np.linalg.eigvalsh(cov))
    assert np.allclose(eigs, np.sort(alloc.lambdas), atol=1e-10)
    uni = covariance_from_alloc(uniform_allocation(0.9, 3), u)
    assert np.allclose(uni, 0.3 * np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        covariance_from_alloc(alloc, np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        covariance_from_alloc(alloc, np.eye(2))


def test_exact_waveform_realizes_allocation():
    alloc = PowerAllocation(np.array([0.5, 0.3, 0.0, 0.2]))
    u = random_unitary(4, 9)
    x = exact_waveform(alloc, 64, basis=u)
    sample_cov = (x @ x.conj().T) / 64
    target = (u * alloc.lambdas) @ u.conj().T
    assert np.abs(sample_cov - target).max() < 1e-12
    with pytest.raises(ValueError):
        exact_waveform(alloc, 3)


def test_mmse_matrix_oracle_examples():
    cfg = reference_system(10.0)
    zero = np.zeros((10, 100), dtype=complex)
    assert mmse_matrix_oracle(zero, cfg) == pytest.approx(5.0, rel=1e-12)
    x = exact_waveform(uniform_allocation(1.0, 10), 100)
    assert mmse_matrix_oracle(x, cfg) == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(ValueError):
        mmse_matrix_oracle(np.zeros((10, 99), dtype=complex), cfg)


def test_closed_form_matches_matrix_oracle():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        cfg = SystemConfig(n_tx=n, m_s=int(rng.integers(1, 6)), m_c=2,
                           n_symbols=50, var_eta=10.0 ** rng.uniform(-2, 0.5),
                           var_s=10.0 ** rng.uniform(-1, 1), var_c=1.0,
                           p_total=1.0)
        alloc = PowerAllocation(rng.uniform(0, 1, n))
        x = exact_waveform(alloc, cfg.n_symbols, basis=random_unitary(n, 100 + trial))
        closed = sensing_distortion(alloc, cfg)
        oracle = mmse_matrix_oracle(x, cfg)
        assert abs(closed - oracle) <= 1e-10 * oracle


def test_capacity_eigform_matches_logdet():
    cfg = reference_system(10.0)
    for seed in range(5):
        alphas = alphas_from_channel(generate_rayleigh(seed, 5, 10), cfg)
        alloc = waterfill_capacity(cfg.p_total, alphas).alloc
        h = channel_matrix(seed, 5, 10)
        eigvecs = np.linalg.eigh(h.conj().T @ h)[1][:, ::-1]
        cov = covariance_from_alloc(alloc, eigvecs)
        eig = capacity_eigform(alloc, alphas)
        logdet = logdet_capacity(h, cov, cfg)
        assert logdet == pytest.approx(eig, rel=1e-9, abs=1e-12)


def test_mmse_monte_carlo_agrees_with_closed_form():
    cfg = reference_system(10.0)
    alloc = uniform_allocation(1.0, 10)
    mean, se, n = mmse_monte_carlo_stats(alloc, cfg, trials=1500, seed=0)
    assert n == 1500
    assert abs(mean - 2.5) <= 3.0 * se
    assert se < 0.05


def test_mmse_monte_carlo_zero_power():
    cfg = reference_system(10.0)
    alloc = uniform_allocation(0.0, 10)
    mean, se, _ = mmse_monte_carlo_stats(alloc, cfg, trials=400, seed=1)
    assert abs(mean - 5.0) <= 3.0 * se


def test_mmse_monte_carlo_validation(cfg10):
    with pytest.raises(ValueError):
        mmse_monte_carlo_stats(uniform_allocation(1.0, 10), cfg10, trials=0, seed=0)
    with pytest.raises(ValueError):
        mmse_monte_carlo_stats(uniform_allocation(1.0, 9), cfg10, trials=10, seed=0)


def test_channel_input_validation(cfg10):
    with pytest.raises(ValueError):
        generate_rayleigh(0, 0, 5)
    ones = np.ones(9)
    for bad in (np.r_[ones, -1.0], np.r_[ones, np.nan], np.ones((1, 10))):
        with pytest.raises(ValueError):
            alphas_from_channel(bad, cfg10)
