import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cas.waterfilling import (reverse_waterfill, uniform_allocation,
                              waterfill_capacity)


def sorted_waterfill_oracle(p_c, alphas):
    """Exact sorting-based water-filling, a loop over k written apart from the solver."""
    a = np.asarray(alphas, float)
    lam = np.zeros_like(a)
    pos = np.flatnonzero(a > 0)
    if pos.size == 0 or p_c <= 0:
        return lam
    inv = np.sort(1.0 / a[pos])
    level = None
    for k in range(1, inv.size + 1):
        cand = (p_c + inv[:k].sum()) / k
        if cand >= inv[k - 1] and (k == inv.size or cand <= inv[k]):
            level = cand
    assert level is not None
    lam[pos] = np.maximum(level - 1.0 / a[pos], 0.0)
    return lam


def reverse_rate_oracle(eigs, mult, xi):
    eigs = np.asarray(eigs, float)
    mask = eigs > xi
    return mult * float(np.log(eigs[mask] / xi).sum()) if mask.any() else 0.0


def test_uniform_allocation():
    alloc = uniform_allocation(1.0, 4)
    assert np.allclose(alloc.lambdas, 0.25)
    assert uniform_allocation(0.0, 3).total == 0.0
    with pytest.raises(ValueError):
        uniform_allocation(-0.5, 3)
    with pytest.raises(ValueError):
        uniform_allocation(1.0, 0)


def test_waterfill_two_channel_analytic():
    res = waterfill_capacity(1.0, np.array([2.0, 1.0]))
    assert res.level == pytest.approx(1.25, rel=1e-10)
    assert np.allclose(res.alloc.lambdas, [0.75, 0.25], rtol=1e-9, atol=1e-12)
    assert res.capacity == pytest.approx(math.log(2.5) + math.log(1.25), rel=1e-10)
    assert res.kkt_residual <= 1e-8


def test_waterfill_two_channel_dominates_grid():
    alphas = np.array([2.0, 1.0])
    res = waterfill_capacity(1.0, alphas)
    lam1 = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    caps = (np.log1p(alphas[0] * lam1) + np.log1p(alphas[1] * (1.0 - lam1)))
    assert caps.max() <= res.capacity + 1e-9


def test_waterfill_equal_gains_splits_evenly():
    res = waterfill_capacity(2.0, np.full(4, 3.0))
    assert np.allclose(res.alloc.lambdas, 0.5, rtol=1e-10)


def test_waterfill_zero_budget():
    # one-ulp apart gains: rounding of a prefix-sum level must not leak power
    for a in ([1.0, 2.0], [2.0, 2.0, float(np.nextafter(2.0, 3.0))]):
        res = waterfill_capacity(0.0, np.array(a))
        assert res.alloc.total == 0.0
        assert res.capacity == 0.0
        assert res.kkt_residual == 0.0


def test_waterfill_tiny_budget_is_kept():
    # a budget below the float spacing of the floors must not round away
    for p_c in (1e-20, 1e-300):
        for a in ([1.0], [0.1, 0.1, 0.1], [3.0, 3.0, 0.5, 0.0],
                  [2.0, float(np.nextafter(2.0, 3.0))]):
            res = waterfill_capacity(p_c, np.array(a))
            assert res.alloc.total == pytest.approx(p_c, rel=1e-12)
            assert res.kkt_residual <= 1e-8


def test_waterfill_dead_channel_degenerate():
    res = waterfill_capacity(1.0, np.zeros(3))
    assert np.array_equal(res.alloc.lambdas, np.zeros(3))
    assert res.level == 0.0 and res.kkt_residual == 0.0
    assert res.capacity == 0.0
    assert res.alloc.total == 0.0


def test_waterfill_input_validation():
    with pytest.raises(ValueError):
        waterfill_capacity(-1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        waterfill_capacity(1.0, np.array([-1.0]))
    with pytest.raises(ValueError):
        waterfill_capacity(1.0, np.array([np.inf]))
    for p_c in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            waterfill_capacity(p_c, np.array([1.0, 2.0]))


def test_waterfill_matches_sorting_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = rng.integers(1, 9)
        a = 10.0 ** rng.uniform(-1.5, 1.5, n)
        a[rng.random(n) < 0.2] = 0.0
        if not (a > 0).any():
            continue
        p_c = 10.0 ** rng.uniform(-2, 1)
        res = waterfill_capacity(p_c, a)
        expected = sorted_waterfill_oracle(p_c, a)
        assert np.allclose(res.alloc.lambdas, expected, rtol=1e-8, atol=1e-10)
        cap = float(np.sum(np.log1p(a * expected)))
        assert res.capacity == pytest.approx(cap, rel=1e-8, abs=1e-12)
        assert res.kkt_residual <= 1e-8


@given(arrs=st.lists(st.one_of(st.floats(0.05, 50.0), st.just(0.0)),
                     min_size=1, max_size=8),
       p_c=st.floats(1e-3, 10.0))
def test_waterfill_budget_and_kkt(arrs, p_c):
    a = np.array(arrs)
    res = waterfill_capacity(p_c, a)
    lam = res.alloc.lambdas
    assert np.all(lam >= 0)
    assert np.all(lam[a == 0] == 0)
    if not a.any():
        assert res.capacity == 0.0
        return
    assert abs(res.alloc.total - p_c) <= 1e-8 * p_c
    assert res.kkt_residual <= 1e-8
    active = 1.0 / a[a > 0]
    expected = np.maximum(res.level - active, 0.0)
    assert np.allclose(lam[a > 0], expected, rtol=1e-12, atol=1e-15)


# few distinct values, so draws often tie or differ by one ulp
_TIED = st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.0, float(np.nextafter(2.0, 3.0)), 30.0])


@given(arrs=st.lists(_TIED, min_size=1, max_size=8),
       p_c=st.one_of(st.floats(1e-3, 10.0), st.just(0.0)))
def test_waterfill_matches_oracle_with_ties(arrs, p_c):
    a = np.array(arrs)
    res = waterfill_capacity(p_c, a)
    if not a.any():
        assert res.alloc.total == 0.0 and res.capacity == 0.0
        return
    expected = sorted_waterfill_oracle(p_c, a)
    assert np.allclose(res.alloc.lambdas, expected, rtol=1e-12, atol=1e-14)
    assert res.kkt_residual <= 1e-8


@given(eigs=st.lists(st.sampled_from([0.0, 1e-3, 0.02, 0.05,
                                     float(np.nextafter(0.05, 1.0)), 0.5]),
                     min_size=1, max_size=8),
       mult=st.integers(1, 6),
       frac=st.one_of(st.just(0.0), st.floats(1e-9, 1.0)))
def test_reverse_matches_rate_oracle_with_ties(eigs, mult, frac):
    eigs = np.array(eigs)
    if not (eigs > 0).any():
        return
    xi_true = frac * eigs.max()
    rate = reverse_rate_oracle(eigs, mult, xi_true) if xi_true > 0 else 0.0
    res = reverse_waterfill(eigs, mult, rate)
    assert not res.saturated
    assert res.rate == pytest.approx(rate, rel=1e-12, abs=1e-12)
    if rate > 0:
        assert res.xi == pytest.approx(xi_true, rel=1e-12)
        assert reverse_rate_oracle(eigs, mult, res.xi) == pytest.approx(rate, rel=1e-9)
    assert res.d_c == mult * float(np.minimum(res.xi, eigs).sum())


def test_reverse_rate_below_float_resolution():
    eigs = np.array([0.05, 0.0, 0.05, 0.02])
    res = reverse_waterfill(eigs, 3, 1e-300)
    assert res.xi == pytest.approx(0.05, rel=1e-15)
    assert res.rate == pytest.approx(1e-300, rel=1e-12, abs=0.0)
    assert res.d_c == pytest.approx(3 * eigs.sum(), rel=1e-15)
    assert not res.saturated


# eigenvalues in (0, 1), often tied or one ulp apart
_UNIT_EIGS = st.one_of(
    st.sampled_from([1e-3, 0.05, float(np.nextafter(0.05, 1.0)), 0.5,
                     float(np.nextafter(1.0, 0.0))]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@given(eigs=st.lists(_UNIT_EIGS, min_size=1, max_size=8),
       mult=st.integers(1, 5),
       rate=st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
def test_reverse_mirrors_capacity_on_log_floors(eigs, mult, rate):
    # reverse water-filling is capacity water-filling on floors -log eig
    # with budget R/m, read back as xi = exp(-level); below the normal
    # range exp keeps only absolute precision
    eigs = np.array(eigs)
    res = reverse_waterfill(eigs, mult, rate)
    level = waterfill_capacity(rate / mult, 1.0 / -np.log(eigs)).level
    assert res.xi == pytest.approx(math.exp(-level), rel=1e-12,
                                   abs=np.finfo(float).tiny)


def test_waterfill_capacity_monotone_concave_in_budget():
    rng = np.random.default_rng(11)
    a = 10.0 ** rng.uniform(-1, 1.5, 5)
    budgets = np.linspace(0.0, 4.0, 25)
    caps = np.array([waterfill_capacity(p, a).capacity for p in budgets])
    assert np.all(np.diff(caps) >= -1e-12)
    assert np.all(np.diff(caps, 2) <= 1e-9)


def test_reverse_zero_rate_costs_full_variance():
    eigs = np.array([0.05, 0.03, 0.0])
    res = reverse_waterfill(eigs, 5, 0.0)
    assert res.xi == 0.05
    assert res.rate == 0.0
    assert res.d_c == pytest.approx(5 * eigs.sum(), rel=1e-12)
    assert np.allclose(res.per_component_d, eigs)


def test_reverse_single_component_analytic():
    # one component of variance 0.05 at rate ln 2 halves the distortion
    res = reverse_waterfill(np.array([0.05]), 1, math.log(2.0))
    assert res.xi == pytest.approx(0.025, rel=1e-9)
    assert res.d_c == pytest.approx(0.025, rel=1e-9)
    assert res.rate == pytest.approx(math.log(2.0), rel=1e-9)


def test_reverse_two_component_analytic_and_grid():
    eigs = np.array([0.08, 0.02])
    target = math.log(5.0)
    res = reverse_waterfill(eigs, 1, target)
    # both active: xi = sqrt(prod / 5)
    xi_exact = math.sqrt(0.08 * 0.02 / 5.0)
    assert xi_exact < 0.02
    assert res.xi == pytest.approx(xi_exact, rel=1e-9)
    assert res.d_c == pytest.approx(2 * xi_exact, rel=1e-9)
    # brute force over the first component's distortion on a fine grid
    d1 = np.arange(1e-4, 0.08 + 1e-12, 1e-4)
    spent = np.log(0.08 / d1)
    feasible = spent <= target
    d2 = 0.02 * np.exp(spent[feasible] - target)
    best = float((d1[feasible] + d2).min())
    assert res.d_c <= best + 5e-4
    assert best <= res.d_c + 5e-4


def test_reverse_round_trip_recovers_level():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = rng.integers(1, 9)
        eigs = 10.0 ** rng.uniform(-3, 0, n)
        mult = int(rng.integers(1, 6))
        xi_true = rng.uniform(0.0, 1.0) * eigs.max()
        if xi_true <= 0:
            continue
        rate = reverse_rate_oracle(eigs, mult, xi_true)
        res = reverse_waterfill(eigs, mult, rate)
        if rate == 0.0:
            assert res.xi == eigs.max()
        else:
            assert res.xi == pytest.approx(xi_true, rel=1e-8)
        assert res.rate == pytest.approx(rate, rel=1e-6, abs=1e-10)


def test_reverse_distortion_strictly_decreasing_in_rate():
    eigs = np.array([0.05, 0.04, 0.01])
    rates = np.linspace(0.0, 40.0, 50)
    d = np.array([reverse_waterfill(eigs, 5, r).d_c for r in rates])
    assert np.all(np.diff(d) < 0)


def test_reverse_multiplicity_scaling():
    eigs = np.array([0.06, 0.02, 0.01])
    rate = 2.0
    m = 5
    res_m = reverse_waterfill(eigs, m, rate)
    res_1 = reverse_waterfill(eigs, 1, rate / m)
    assert res_m.xi == pytest.approx(res_1.xi, rel=1e-9)
    assert res_m.d_c == pytest.approx(m * res_1.d_c, rel=1e-9)


def test_reverse_degenerate_and_saturated():
    res = reverse_waterfill(np.zeros(3), 5, 7.0)
    assert res.xi == 0.0 and not res.per_component_d.any()
    assert res.d_c == 0.0 and res.rate == 0.0
    sat = reverse_waterfill(np.array([0.05, 0.0, 0.02]), 1, 1e6)
    assert sat.saturated
    assert sat.xi == 0.0 and sat.d_c == 0.0
    assert sat.rate == pytest.approx(1e6, rel=1e-12)


def test_reverse_input_validation():
    with pytest.raises(ValueError):
        reverse_waterfill(np.array([0.05]), 0, 1.0)
    with pytest.raises(ValueError):
        reverse_waterfill(np.array([-0.05]), 1, 1.0)
    with pytest.raises(ValueError):
        reverse_waterfill(np.array([0.05]), 1, -1.0)
    with pytest.raises(ValueError):
        reverse_waterfill(np.array([0.05]), 1, np.inf)
