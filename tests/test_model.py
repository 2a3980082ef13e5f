import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cas import DistortionReport, PowerAllocation, SystemConfig
from cas.experiment import ConfigError, config_from_mapping
from cas.model import (assemble_report, capacity_eigform, noise_var_from_snr,
                       sensing_distortion, source_eigenvalue, subchannel_mmse)
from cas.waterfilling import uniform_allocation
from conftest import reference_system

lam_st = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n_tx=10, m_s=5, m_c=5, n_symbols=5,
                     var_eta=0.1, var_s=1.0, var_c=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n_tx=0, m_s=5, m_c=5, n_symbols=100,
                     var_eta=0.1, var_s=1.0, var_c=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n_tx=2, m_s=5, m_c=5, n_symbols=100,
                     var_eta=-0.1, var_s=1.0, var_c=1.0)
    with pytest.raises(ConfigError, match="p_total must be a positive finite number, got 0.0"):
        config_from_mapping({"p_total": "0"})


def test_budget_is_the_unit_of_power():
    # the budget is fixed at 1.0 and cannot be set on a system: the sweep
    # applies the configured p_total to its records only
    assert SystemConfig.p_total == 1.0
    assert reference_system().p_total == 1.0
    with pytest.raises(TypeError):
        SystemConfig(n_tx=2, m_s=5, m_c=5, n_symbols=100,
                     var_eta=0.1, var_s=1.0, var_c=1.0, p_total=2.0)


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        PowerAllocation(np.array([0.1, -1e-12]))
    with pytest.raises(ValueError):
        PowerAllocation(np.array([[0.1]]))
    with pytest.raises(ValueError):
        PowerAllocation(np.array([np.inf]))
    alloc = PowerAllocation(np.array([0.25, 0.75]))
    assert alloc.total == 1.0
    assert len(alloc) == 2
    with pytest.raises(ValueError):
        alloc.lambdas[0] = 5.0


def test_power_allocation_budget_check():
    alloc = PowerAllocation(np.array([0.5, 0.5]))
    alloc.check_budget(1.0)
    alloc.check_budget(1.0 - 1e-12)
    with pytest.raises(ValueError):
        alloc.check_budget(0.9)


def test_noise_var_from_snr_reference_points():
    cfg = reference_system()
    assert noise_var_from_snr(20.0, cfg) == pytest.approx(1.0, rel=1e-12)
    assert noise_var_from_snr(10.0, cfg) == pytest.approx(10.0, rel=1e-12)
    assert noise_var_from_snr(0.0, cfg) == pytest.approx(100.0, rel=1e-12)
    assert noise_var_from_snr(-10.0, cfg) == pytest.approx(1000.0, rel=1e-12)


def test_subchannel_distortion_examples(cfg10):
    assert subchannel_mmse(0.0, cfg10) == cfg10.var_eta
    # var_s=1, T=100, var_eta=0.1: f(0.1) = 0.1/(1 + 10*0.1) = 0.05
    assert subchannel_mmse(0.1, cfg10) == pytest.approx(0.05, rel=1e-12)
    assert subchannel_mmse(1e12, cfg10) < 1e-12
    assert subchannel_mmse(np.inf, cfg10) == 0.0


def test_source_eigenvalue_examples(cfg10):
    assert source_eigenvalue(0.0, cfg10) == 0.0
    assert source_eigenvalue(0.1, cfg10) == pytest.approx(0.05, rel=1e-12)
    assert source_eigenvalue(np.inf, cfg10) == cfg10.var_eta
    with pytest.raises(ValueError, match="sensing eigenvalue power must be nonnegative"):
        source_eigenvalue(-1e-9, cfg10)


@given(lam=lam_st)
def test_estimate_plus_error_is_prior_variance(lam):
    cfg = reference_system()
    f = subchannel_mmse(lam, cfg)
    g = source_eigenvalue(lam, cfg)
    assert f + g == cfg.var_eta


@given(lam1=lam_st, lam2=lam_st)
def test_subchannel_distortion_monotone(lam1, lam2):
    cfg = reference_system()
    lo, hi = sorted((lam1, lam2))
    assert subchannel_mmse(hi, cfg) <= subchannel_mmse(lo, cfg)
    assert source_eigenvalue(hi, cfg) >= source_eigenvalue(lo, cfg)


@given(lam1=lam_st, lam2=lam_st)
def test_subchannel_distortion_convex(lam1, lam2):
    cfg = reference_system()
    mid = 0.5 * (lam1 + lam2)
    chord = 0.5 * (subchannel_mmse(lam1, cfg) + subchannel_mmse(lam2, cfg))
    assert subchannel_mmse(mid, cfg) <= chord + 1e-15


def test_sensing_distortion_examples(cfg10):
    assert sensing_distortion(uniform_allocation(0.0, 10), cfg10) == pytest.approx(5.0, rel=1e-12)
    assert sensing_distortion(uniform_allocation(1.0, 10), cfg10) == pytest.approx(2.5, rel=1e-12)
    tiny = SystemConfig(n_tx=1, m_s=1, m_c=1, n_symbols=100,
                        var_eta=0.1, var_s=1.0, var_c=1.0)
    assert sensing_distortion(PowerAllocation(np.array([0.1])), tiny) == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(ValueError):
        sensing_distortion(uniform_allocation(1.0, 9), cfg10)


def test_capacity_eigform_examples():
    alloc = PowerAllocation(np.array([0.75, 0.25]))
    expected = math.log(1 + 2.0 * 0.75) + math.log(1 + 1.0 * 0.25)
    assert capacity_eigform(alloc, np.array([2.0, 1.0])) == pytest.approx(expected, rel=1e-14)
    assert capacity_eigform(PowerAllocation(np.zeros(4)), np.ones(4)) == 0.0
    assert capacity_eigform(alloc, np.zeros(2)) == 0.0
    with pytest.raises(ValueError):
        capacity_eigform(alloc, np.array([1.0]))
    with pytest.raises(ValueError):
        capacity_eigform(alloc, np.array([1.0, -1.0]))


def test_capacity_eigform_concave_in_scale():
    rng = np.random.default_rng(3)
    alphas = 10.0 ** rng.uniform(-1, 2, 6)
    lam = rng.uniform(0, 1, 6)
    lam_a = PowerAllocation(lam)
    lam_b = PowerAllocation(rng.uniform(0, 1, 6))
    mid = PowerAllocation(0.5 * (lam_a.lambdas + lam_b.lambdas))
    chord = 0.5 * (capacity_eigform(lam_a, alphas) + capacity_eigform(lam_b, alphas))
    assert capacity_eigform(mid, alphas) >= chord - 1e-12
    scales = np.linspace(0, 1, 30)
    caps = [capacity_eigform(PowerAllocation(t * lam), alphas) for t in scales]
    assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))


def test_assemble_report(cfg10):
    rep = assemble_report(2.5, 1.25, 10.0, 0.025)
    assert rep.d_sc == rep.d_s + rep.d_c
    assert rep.d_sc == 3.75
    assert rep.capacity == 10.0
    assert rep.xi == 0.025
    # ideal link sentinel
    rep_inf = assemble_report(2.5, 0.0, math.inf, 0.0)
    assert rep_inf.d_sc == 2.5 and math.isinf(rep_inf.capacity)
    with pytest.raises(ValueError):
        assemble_report(-0.1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        assemble_report(0.1, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        assemble_report(0.1, 1.0, -1.0, 0.0)


def test_report_identity_enforced():
    with pytest.raises(ValueError):
        DistortionReport(d_s=1.0, d_c=1.0, d_sc=2.0000001, capacity=0.0, xi=0.0)
