import numpy as np
import pytest

from cas import (INIT_COMMUNICATION, INIT_SENSING, PowerAllocation,
                 alphas_from_channel, capacity_gradient, evaluate_dual,
                 generate_rayleigh, gradient_step, optimize_dual,
                 optimize_dual_best, uniform_allocation, waterfill_capacity)
from conftest import reference_system


def channel_alphas(seed, cfg):
    return alphas_from_channel(generate_rayleigh(seed, cfg.m_c, cfg.n_tx), cfg)


def test_evaluate_dual_zero_profile(cfg10):
    alphas = channel_alphas(0, cfg10)
    rep = evaluate_dual(PowerAllocation(np.zeros(10)), cfg10, alphas)
    assert rep.d_s == pytest.approx(5.0, rel=1e-12)
    assert rep.d_c == 0.0
    assert rep.capacity == 0.0
    assert rep.d_sc == pytest.approx(5.0, rel=1e-12)


def test_evaluate_dual_golden_uniform(cfg10):
    # frozen from two independent implementations of the same pipeline
    rep = evaluate_dual(uniform_allocation(1.0, 10), cfg10, channel_alphas(0, cfg10))
    assert rep.d_s == pytest.approx(2.5, rel=1e-12)
    assert rep.d_sc == pytest.approx(4.527322441252, rel=1e-9)
    assert rep.capacity == pytest.approx(10.478740195824, rel=1e-9)


def test_evaluate_dual_dead_link(cfg10):
    rng = np.random.default_rng(2)
    alphas = np.zeros(10)
    for _ in range(5):
        lam = rng.uniform(0, 0.1, 10)
        rep = evaluate_dual(PowerAllocation(lam), cfg10, alphas)
        # no rate: d_c pays back exactly what sensing recovered
        assert rep.d_sc == pytest.approx(5.0, rel=1e-12)


def test_evaluate_dual_budget_enforced(cfg10):
    alphas = channel_alphas(0, cfg10)
    with pytest.raises(ValueError):
        evaluate_dual(uniform_allocation(1.1, 10), cfg10, alphas)
    with pytest.raises(ValueError):
        evaluate_dual(uniform_allocation(1.0, 9), cfg10, alphas)


def test_capacity_gradient_examples():
    alloc = PowerAllocation(np.array([0.75, 0.25]))
    grad = capacity_gradient(alloc, np.array([2.0, 1.0]))
    assert np.allclose(grad, [0.8, 0.8], rtol=1e-12)
    zero = capacity_gradient(PowerAllocation(np.zeros(2)), np.array([2.0, 1.0]))
    assert np.allclose(zero, [2.0, 1.0])
    dead = capacity_gradient(alloc, np.zeros(2))
    assert np.all(dead == 0.0)
    with pytest.raises(ValueError):
        capacity_gradient(alloc, np.array([1.0, 2.0, 3.0]))


def test_gradient_step_examples():
    alloc = PowerAllocation(np.array([0.5, 0.5]))
    same = gradient_step(alloc, 0.0, np.array([1.0, 1.0]), 1.0)
    assert np.allclose(same.lambdas, [0.5, 0.5])
    stepped = gradient_step(alloc, 0.5, np.array([2.0, 0.0]), 1.0)
    # moved = [0.5 + 0.5*2/(2*0.5+1), 0.5] = [1.0, 0.5], rescaled to sum 1
    assert np.allclose(stepped.lambdas, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)
    assert stepped.total == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        gradient_step(PowerAllocation(np.zeros(2)), 1.0, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        gradient_step(alloc, -1.0, np.array([1.0, 1.0]), 1.0)


def test_symmetric_link_fixed_point(cfg10):
    # equal gains: uniform is both warm starts and the rescaled gradient
    # step leaves it unchanged, so the search stops immediately
    alphas = np.full(10, 25.0)
    sol = optimize_dual(cfg10, alphas, init_kind=INIT_SENSING)
    assert np.allclose(sol.alloc.lambdas, 0.1, rtol=1e-12)
    assert sol.iterations <= 1
    assert sol.converged
    assert len(sol.objective_trace) == sol.iterations + 1


def test_trace_nonincreasing_and_bounded(cfg10):
    for seed in range(4):
        alphas = channel_alphas(seed, cfg10)
        for kind in (INIT_SENSING, INIT_COMMUNICATION):
            sol = optimize_dual(cfg10, alphas, init_kind=kind)
            tr = sol.objective_trace
            assert np.all(np.diff(tr) <= 0)
            assert tr[-1] <= tr[0]
            assert sol.iterations == len(tr) - 1
            assert sol.iterations <= 200
            assert sol.converged
            assert sol.alloc.total == pytest.approx(cfg10.p_total, rel=1e-9)
            assert sol.report.d_sc == tr[-1]


def test_dual_beats_or_matches_both_inits(cfg10):
    alphas = channel_alphas(5, cfg10)
    best = optimize_dual_best(cfg10, alphas)
    s = optimize_dual(cfg10, alphas, init_kind=INIT_SENSING)
    c = optimize_dual(cfg10, alphas, init_kind=INIT_COMMUNICATION)
    assert best.report.d_sc <= s.report.d_sc
    assert best.report.d_sc <= c.report.d_sc


def test_high_snr_approaches_capacity_optimal():
    cfg = reference_system(20.0)
    for seed in range(5):
        alphas = channel_alphas(seed, cfg)
        copt = waterfill_capacity(cfg.p_total, alphas).alloc
        d_copt = evaluate_dual(copt, cfg, alphas).d_sc
        sol = optimize_dual_best(cfg, alphas)
        assert sol.report.d_sc <= d_copt * (1.0 + 1e-9)


def test_dead_link_terminates_at_init(cfg10):
    alphas = np.zeros(10)
    sol = optimize_dual(cfg10, alphas, init_kind=INIT_SENSING)
    assert sol.iterations == 0
    assert sol.converged
    assert sol.report.d_sc == pytest.approx(5.0, rel=1e-12)


def test_max_iters_flag(cfg10):
    alphas = channel_alphas(0, cfg10)
    sol = optimize_dual(cfg10, alphas, init_kind=INIT_SENSING, eps=1e-300,
                        max_iters=2)
    assert sol.iterations <= 2
    if sol.iterations == 2:
        assert not sol.converged
    full = optimize_dual(cfg10, alphas, init_kind=INIT_SENSING)
    assert full.report.d_sc <= sol.report.d_sc


def test_optimize_dual_validation(cfg10):
    alphas = channel_alphas(0, cfg10)
    with pytest.raises(ValueError):
        optimize_dual(cfg10, alphas, init_kind="other")
    with pytest.raises(ValueError):
        optimize_dual(cfg10, alphas, eps=0.0)
    with pytest.raises(ValueError):
        optimize_dual(cfg10, alphas, max_iters=0)
