import numpy as np
import pytest

from cas import (PowerAllocation, SystemConfig, alphas_from_channel,
                 generate_rayleigh, optimize_dual_best, optimize_separated)
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
    # a seed past 2**63 has a draw of its own, and a negative seed has none
    assert not np.array_equal(generate_rayleigh(2 ** 63 + 5, 5, 10),
                              generate_rayleigh(5, 5, 10))
    with pytest.raises(ValueError):
        generate_rayleigh(-1, 5, 10)


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
    # rank is m_c: the rest is exactly zero
    assert np.all(eigs[5:] == 0.0)
    h = channel_matrix(1, 5, 10)
    gram = h.conj().T @ h
    w, v = np.linalg.eigh(gram)
    # the reference draw is the package's draw up to the rank, to the last bit
    assert np.array_equal(eigs[:5], w[::-1][:5])
    v = v[:, ::-1]
    assert np.abs(v.conj().T @ v - np.eye(10)).max() < 1e-10
    rebuilt = (v * eigs) @ v.conj().T
    assert np.abs(gram - rebuilt).max() < 1e-10 * eigs[0]


def test_generate_rayleigh_zero_past_rank():
    for m_c, n_tx in ((1, 4), (3, 8), (5, 10), (4, 4), (10, 10), (12, 6)):
        for seed in range(3):
            eigs = generate_rayleigh(seed, m_c, n_tx)
            rank = min(m_c, n_tx)
            assert np.all(eigs[:rank] > 0) and np.all(eigs[rank:] == 0.0)
            h = channel_matrix(seed, m_c, n_tx)
            w = np.maximum(np.linalg.eigh(h.conj().T @ h)[0][::-1], 0.0)
            assert np.array_equal(eigs[:rank], w[:rank])
            if m_c >= n_tx:
                # full rank: nothing is zeroed
                assert np.array_equal(eigs, w)


def test_solutions_are_well_conditioned_in_the_channel():
    # a LAPACK build may move a live Gram eigenvalue by a few ulps; both
    # schemes' d_sc must then move by round-off, not by a changed search path
    rng = np.random.default_rng(6)
    worst = 0.0
    for seed in range(10):
        for snr_c_db in (0.0, 10.0, 20.0):
            cfg = reference_system(snr_c_db)
            eigs = generate_rayleigh(seed, cfg.m_c, cfg.n_tx)

            def both(gram):
                alphas = alphas_from_channel(gram, cfg)
                return (optimize_separated(cfg, alphas).report.d_sc,
                        optimize_dual_best(cfg, alphas).report.d_sc)

            ref = both(eigs)
            for _ in range(3):
                ulps = rng.integers(-4, 5, eigs.size)
                moved = both(eigs * (1.0 + ulps * 2.0 ** -52))
                worst = max(worst, *(abs(m - r) / r for m, r in zip(moved, ref)))
    assert worst <= 1e-12, worst


def test_alphas_from_channel_examples():
    cfg = reference_system(10.0)
    one = SystemConfig(n_tx=1, m_s=1, m_c=1, n_symbols=100,
                       var_eta=0.1, var_s=1.0, var_c=10.0)
    assert np.allclose(alphas_from_channel(np.array([1.0]), one), [10.0])
    two = SystemConfig(n_tx=2, m_s=1, m_c=2, n_symbols=100,
                       var_eta=0.1, var_s=1.0, var_c=10.0)
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
                           var_s=10.0 ** rng.uniform(-1, 1), var_c=1.0)
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
