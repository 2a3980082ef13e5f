import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cas import (alphas_from_channel, evaluate_dual, evaluate_split,
                 generate_rayleigh, optimize_dual_best, optimize_separated,
                 separated)
from cas.dual import INIT_COMMUNICATION, INIT_SENSING, optimize_dual
from cas.model import capacity_eigform, source_eigenvalue, subchannel_mmse
from cas.waterfilling import (capacity_curve, uniform_allocation,
                              waterfill_capacity)
from cas.separated import split_slope
from conftest import reference_system
from oracles import split_slope_terms


def channel_alphas(seed, cfg):
    return alphas_from_channel(generate_rayleigh(seed, cfg.m_c, cfg.n_tx), cfg)


def test_full_sensing_split(cfg10):
    alphas = channel_alphas(0, cfg10)
    rep = evaluate_split(cfg10.p_total, cfg10, alphas)
    # everything on sensing: d_s = 2.5; zero rate costs the full source, 2.5
    assert rep.d_s == pytest.approx(2.5, rel=1e-12)
    assert rep.d_c == pytest.approx(2.5, rel=1e-12)
    assert rep.d_sc == pytest.approx(5.0, rel=1e-12)
    assert rep.capacity == 0.0


def test_zero_sensing_split(cfg10):
    alphas = channel_alphas(0, cfg10)
    rep = evaluate_split(0.0, cfg10, alphas)
    assert rep.d_s == pytest.approx(5.0, rel=1e-12)
    assert rep.d_c == 0.0
    assert rep.d_sc == pytest.approx(5.0, rel=1e-12)
    assert rep.capacity > 0


def test_split_out_of_range_raises(cfg10):
    alphas = channel_alphas(0, cfg10)
    for score in (evaluate_split, split_slope):
        for bad in (-0.01, cfg10.p_total + 0.01, math.nan):
            with pytest.raises(ValueError, match=r"p_s must lie in \[0, p_total\]"):
                score(bad, cfg10, alphas)


def test_split_golden_value(cfg10):
    # frozen from two independent implementations of the same pipeline
    rep = evaluate_split(0.5, cfg10, channel_alphas(0, cfg10))
    assert rep.d_s == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert rep.d_sc == pytest.approx(4.683086456039, rel=1e-9)
    assert rep.capacity == pytest.approx(10.545196005445, rel=1e-9)


def test_dead_link_makes_split_irrelevant():
    cfg = reference_system(10.0)
    # a gain whose floor 1/alpha overflows carries no rate, as a zero does
    for first in (0.0, 5e-324, 1e-309):
        alphas = np.array([first] + [0.0] * (cfg.n_tx - 1))
        for p_s in (0.0, 0.3, 0.7, 1.0):
            rep = evaluate_split(p_s, cfg, alphas)
            assert rep.d_sc == pytest.approx(0.5 * cfg.m_s * cfg.n_tx * cfg.var_eta * 2,
                                             rel=1e-12)
            assert split_slope(p_s, cfg, alphas) == 0.0
        sol = optimize_separated(cfg, alphas)
        assert sol.report.d_sc == pytest.approx(5.0, rel=1e-9)
        assert (sol.p_s, sol.slope, sol.evaluations) == (0.0, 0.0, 0)
        assert capacity_curve(alphas) is None
        assert waterfill_capacity(1.0, alphas).level == 0.0


def test_optimizer_beats_endpoint_neighborhoods(cfg10):
    alphas = channel_alphas(0, cfg10)
    sol = optimize_separated(cfg10, alphas)
    assert sol.report.d_sc < evaluate_split(0.05, cfg10, alphas).d_sc
    assert sol.report.d_sc < evaluate_split(0.95, cfg10, alphas).d_sc
    assert 0.0 < sol.p_s < cfg10.p_total


def test_optimizer_solution_consistency(cfg10):
    alphas = channel_alphas(3, cfg10)
    sol = optimize_separated(cfg10, alphas)
    assert sol.p_s + sol.p_c == pytest.approx(cfg10.p_total, rel=1e-9)
    assert np.allclose(sol.sensing_alloc.lambdas, sol.p_s / cfg10.n_tx)
    wf = waterfill_capacity(sol.p_c, alphas)
    assert np.allclose(sol.comm_alloc.lambdas, wf.alloc.lambdas)
    assert sol.report.d_sc <= evaluate_split(0.0, cfg10, alphas).d_sc + 1e-12
    assert sol.report.d_sc <= evaluate_split(1.0, cfg10, alphas).d_sc + 1e-12


def test_optimizer_right_end_exit():
    # at a sensing SNR of -300 dB the sensed source g(p_total/n) rounds to
    # zero, so nothing is left to forward and the slope at p_total is 0
    cfg = reference_system(10.0, snr_s_db=-300.0)
    sol = optimize_separated(cfg, channel_alphas(0, cfg))
    assert sol.p_s == cfg.p_total
    assert sol.slope == 0.0
    assert sol.evaluations == 2
    assert sol.report.d_sc == cfg.m_s * cfg.n_tx * cfg.var_eta


def test_optimizer_validation(cfg10):
    for bad in (-np.ones(cfg10.n_tx), np.full(cfg10.n_tx, np.inf), np.ones((2, 5))):
        with pytest.raises(ValueError):
            optimize_separated(cfg10, bad)


def test_gain_length_checked_by_every_scorer_and_optimizer(cfg10):
    # the separated entries once solved a 3- or 20-gain link for a 10-antenna
    # system without complaint; the dual ones always refused
    alphas = channel_alphas(0, cfg10)
    for bad in (alphas[:3], np.concatenate([alphas, alphas])):
        for solve in (lambda: evaluate_split(0.5, cfg10, bad),
                      lambda: optimize_separated(cfg10, bad),
                      lambda: evaluate_dual(uniform_allocation(1.0, 10), cfg10, bad),
                      lambda: optimize_dual(cfg10, bad, init_kind=INIT_SENSING),
                      lambda: optimize_dual(cfg10, bad, init_kind=INIT_COMMUNICATION),
                      lambda: optimize_dual_best(cfg10, bad)):
            with pytest.raises(ValueError):
                solve()


def test_split_slope_matches_finite_difference(cfg10):
    h = 1e-6
    for seed in range(3):
        alphas = channel_alphas(seed, cfg10)
        for p_s in (0.1, 0.3, 0.7):
            fd = (evaluate_split(p_s + h, cfg10, alphas).d_sc
                  - evaluate_split(p_s - h, cfg10, alphas).d_sc) / (2 * h)
            assert split_slope(p_s, cfg10, alphas) == pytest.approx(fd, rel=1e-5)


# gains with ties (the sampled values), dead ones (0 and 5e-324) and floors
# 1/alpha far above the budget, whose float spacing a p_c of one ulp of
# p_total is below
GAINS = st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-3, 1.0, 2.0, 1e3]),
                           st.floats(1e-4, 1e4)),
                 min_size=10, max_size=10).filter(lambda g: max(g) > 1e-300)
SPLITS = st.one_of(st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-15]),
                   st.floats(0.0, 1.0))

# measured worst over 20,000 random draws: 4.9e-16 of |term 1| + |term 2|
SLOPE_ORACLE_RTOL = 1e-13


@example(alphas=[1e-3] * 10, p_s=math.nextafter(1.0, 0.0), snr_s=20.0)
@example(alphas=[5e-324, 2.0, 0.0, 2.0] + [0.0] * 6, p_s=1.0, snr_s=20.0)
@example(alphas=[1e3, 1e-4] + [0.0] * 8, p_s=0.0, snr_s=90.0)
@given(alphas=GAINS, p_s=SPLITS, snr_s=st.floats(0.0, 90.0))
def test_split_slope_matches_waterfill_oracle(alphas, p_s, snr_s):
    cfg = reference_system(10.0, snr_s)
    a, b = split_slope_terms(p_s, cfg, np.array(alphas))
    assert abs(split_slope(p_s, cfg, alphas) - (a + b)) <= SLOPE_ORACLE_RTOL * (abs(a) + abs(b))


@given(alphas=GAINS, p_c=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300]),
                                   st.floats(0.0, 1e3)))
def test_capacity_curve_matches_waterfill_capacity(alphas, p_c):
    # the same level float, and the capacity as the correctly rounded sum of
    # the terms capacity_eigform adds up (measured worst over 20,000 draws:
    # 3.2e-16 relative)
    level, capacity = capacity_curve(alphas)(p_c)
    wf = waterfill_capacity(p_c, alphas)
    assert level == wf.level
    reference = capacity_eigform(wf.alloc, alphas)
    assert abs(capacity - reference) <= 1e-15 * reference


def test_optimizer_water_fills_once(monkeypatch):
    # the search reads the sorted gains; only the final evaluation water-fills
    calls = []

    def counted(p_c, alphas):
        calls.append(p_c)
        return waterfill_capacity(p_c, alphas)

    monkeypatch.setattr(separated, "waterfill_capacity", counted)
    for snr_s, snr_c, seed in CERTIFIED[::7]:
        cfg = reference_system(snr_c, snr_s)
        calls.clear()
        sol = optimize_separated(cfg, channel_alphas(seed, cfg))
        assert calls == [sol.p_c]
        assert sol.evaluations <= 70


def dense_d_sc(cfg, alphas, p_s):
    """d_sc on a p_s grid from the closed form, with vectorized sorting water-filling.

    Uniform sensing makes all n source eigenvalues equal to g(p_s/n), so the
    reverse water-filling of evaluate_split reduces to
    d_c = m*n*g*exp(-C/(m*n)).
    """
    n, m = cfg.n_tx, cfg.m_s
    floors = np.sort(1.0 / alphas[alphas > 0])
    p_c = (cfg.p_total - p_s)[:, None]
    levels = (p_c + np.cumsum(floors)) / np.arange(1, floors.size + 1)
    ok = levels >= floors
    k = floors.size - 1 - np.argmax(ok[:, ::-1], axis=1)
    level = levels[np.arange(p_s.size), k][:, None]
    cap = np.log1p(np.maximum(level - floors, 0.0) / floors).sum(axis=1)
    f = subchannel_mmse(p_s / n, cfg)
    return m * n * f + m * n * (cfg.var_eta - f) * np.exp(-cap / (m * n))


# SNR_s from the reference 20 dB up to 90 dB, where f flattens and the
# sensing term of the slope nearly vanishes
CERTIFIED = [(snr_s, snr_c, seed)
             for snr_s in (0.0, 20.0, 60.0, 90.0)
             for snr_c in (-5.0, 0.0, 10.0, 20.0, 40.0)
             for seed in range(3)]


def test_optimizer_slope_certificate():
    # the returned slope vanishes against either of its terms, within a
    # bisection that ends after a bounded number of evaluations
    for snr_s, snr_c, seed in CERTIFIED:
        cfg = reference_system(snr_c, snr_s)
        alphas = channel_alphas(seed, cfg)
        sol = optimize_separated(cfg, alphas)
        assert 0.0 < sol.p_s < cfg.p_total
        assert sol.slope == split_slope(sol.p_s, cfg, alphas)
        wf = waterfill_capacity(sol.p_c, alphas)
        e = math.exp(-wf.capacity / (cfg.m_s * cfg.n_tx))
        # g(x)*E/level, with g(x) the (equal) source eigenvalues
        rate_term = source_eigenvalue(sol.p_s / cfg.n_tx, cfg) * e / wf.level
        assert abs(sol.slope) <= 1e-10 * rate_term
        assert sol.evaluations <= 70
        assert sol.report.d_sc == evaluate_split(sol.p_s, cfg, alphas).d_sc


def test_optimizer_beats_dense_grid():
    # no point of a 20,001-point grid beats the derivative root
    grid = np.linspace(0.0, 1.0, 20_001)
    worst = -np.inf
    for snr_s, snr_c, seed in CERTIFIED:
        cfg = reference_system(snr_c, snr_s)
        alphas = channel_alphas(seed, cfg)
        d = dense_d_sc(cfg, alphas, grid)
        for i in (0, 1234, 10_000, 20_000):
            assert d[i] == pytest.approx(
                evaluate_split(grid[i], cfg, alphas).d_sc, rel=1e-12)
        sol = optimize_separated(cfg, alphas)
        worst = max(worst, (sol.report.d_sc - d.min()) / d.min())
    assert worst <= 1e-12
