import numpy as np
import pytest

from cas import (PowerAllocation, alphas_from_channel, evaluate_dual,
                 generate_rayleigh, optimize_dual_best, optimize_separated)
from cas import dual
from cas.dual import (INIT_COMMUNICATION, INIT_SENSING, capacity_gradient,
                      gradient_step, optimize_dual)
from cas.experiment import ExperimentConfig, system_for
from cas.waterfilling import uniform_allocation, waterfill_capacity
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
    stepped = gradient_step(alloc, 0.5, np.array([1.0, 0.0]), 1.0)
    # moved = [0.5 + 0.5*1, 0.5] = [1.0, 0.5], rescaled to sum 1
    assert np.allclose(stepped.lambdas, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)
    assert stepped.total == pytest.approx(1.0, rel=1e-12)
    # the direction is in units of the budget: the same step at p_total 2
    # moves twice as many watts and lands on twice the profile
    doubled = gradient_step(PowerAllocation(np.array([1.0, 1.0])), 0.5,
                            np.array([1.0, 0.0]), 2.0)
    assert np.allclose(doubled.lambdas, [4.0 / 3.0, 2.0 / 3.0], rtol=1e-12)
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


def test_max_iters_flag(cfg10, monkeypatch):
    alphas = channel_alphas(0, cfg10)
    full = optimize_dual(cfg10, alphas, init_kind=INIT_SENSING)
    monkeypatch.setattr(dual, "_MAX_ITERS", 1)
    sol = optimize_dual(cfg10, alphas, init_kind=INIT_SENSING)
    assert sol.iterations == 1
    assert not sol.converged
    assert full.report.d_sc <= sol.report.d_sc


def test_optimize_dual_validation(cfg10):
    alphas = channel_alphas(0, cfg10)
    with pytest.raises(ValueError):
        optimize_dual(cfg10, alphas, init_kind="other")


def test_search_does_not_depend_on_power_scale():
    # at fixed SNRs the model is the same at every p_total, and so must be
    # the search; its step floor must scale with its step, or no step is
    # ever tried at p_total 1e-8
    def solve(p_total):
        cfg = system_for(ExperimentConfig(p_total=p_total), 10.0)
        return optimize_dual_best(cfg, channel_alphas(3, cfg))

    ref, small = solve(1.0), solve(1e-8)
    assert ref.iterations > 0 and small.iterations > 0
    assert small.report.d_sc == pytest.approx(ref.report.d_sc, rel=1e-9)


@pytest.mark.parametrize("p_total", [1e-300, 1e-8, 1e8, 1e300])
def test_both_searches_are_scale_free(p_total):
    # at fixed SNRs the budget is only a unit: every distortion, rate and
    # count equals the p_total 1 record, and every power scales with p_total
    def solve(p, seed, snr_c_db):
        cfg = system_for(ExperimentConfig(p_total=p), snr_c_db)
        alphas = channel_alphas(seed, cfg)
        return optimize_separated(cfg, alphas), optimize_dual_best(cfg, alphas)

    for seed in range(5):
        for snr_c_db in (0.0, 10.0, 20.0):
            ref_sep, ref_dual = solve(1.0, seed, snr_c_db)
            sep, dual_sol = solve(p_total, seed, snr_c_db)
            for ref, got in ((ref_sep, sep), (ref_dual, dual_sol)):
                for key in ("d_s", "d_c", "d_sc", "capacity"):
                    assert (getattr(got.report, key)
                            == pytest.approx(getattr(ref.report, key), rel=1e-12))
            assert sep.evaluations == ref_sep.evaluations
            assert dual_sol.iterations == ref_dual.iterations
            assert sep.p_s == pytest.approx(p_total * ref_sep.p_s, rel=1e-12)
            for ref, got in ((ref_sep.sensing_alloc, sep.sensing_alloc),
                             (ref_sep.comm_alloc, sep.comm_alloc),
                             (ref_dual.alloc, dual_sol.alloc)):
                np.testing.assert_allclose(got.lambdas, p_total * ref.lambdas,
                                           rtol=1e-12, atol=0.0)
