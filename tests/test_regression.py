from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError, _umath_linalg

from drivestyle import regression
from drivestyle.errors import (
    ConditioningError,
    InsufficientDataError,
    ValidationError,
)
from drivestyle.regression import (
    FixedAlpha,
    GridSearchAlpha,
    condition_diagnostics,
    derivative,
    fit,
    fit_designs,
    fit_samples,
    fit_solve,
    gram_condition,
    uncenter,
    vandermonde,
)
from drivestyle.pipeline import slice_times
from oracles import central_difference, lstsq_solve, one_grid_design


def test_exact_quadratic_recovery():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    z = 1.0 + 2.0 * t + 3.0 * t**2
    poly = fit_samples(t, z, FixedAlpha(0.0))
    assert np.linalg.norm(np.array(poly.coefficients) - [1.0, 2.0, 3.0]) <= 1e-9
    assert max(abs(poly.evaluate(t) - z)) <= 1e-9


def test_constant_series_fit():
    t = np.arange(6.0)
    poly = fit_samples(t, np.full(6, 5.0), FixedAlpha(0.0))
    assert np.allclose(poly.coefficients, [5.0, 0.0, 0.0], atol=1e-12)


def test_noise_error_scales_linearly():
    # Monte-Carlo oracle: median coefficient error over 100 draws grows
    # linearly in the noise scale (log-log slope 1 within 0.15)
    rng = np.random.default_rng(12)
    t = np.arange(20) / 10.0
    beta = np.array([0.3, 0.8, 0.05])
    z = beta[0] + beta[1] * t + beta[2] * t * t
    policy = GridSearchAlpha()
    medians = []
    eps_values = [1e-3, 1e-2, 1e-1]
    for eps in eps_values:
        errs = [
            np.linalg.norm(
                np.array(fit_samples(t, z + rng.normal(0, eps, t.size), policy).coefficients)
                - beta
            )
            for _ in range(100)
        ]
        medians.append(np.median(errs))
    slope = np.polyfit(np.log(eps_values), np.log(medians), 1)[0]
    assert abs(slope - 1.0) <= 0.15


def test_derivative_coefficients():
    poly = fit_samples(np.arange(4.0), 1 + 2 * np.arange(4.0) + 3 * np.arange(4.0) ** 2,
                       FixedAlpha(0.0))
    d1 = derivative(poly, 1)
    d2 = derivative(poly, 2)
    assert np.allclose(d1.coefficients, (2.0, 6.0, 0.0), atol=1e-9)
    assert np.allclose(d2.coefficients, (6.0, 0.0, 0.0), atol=1e-9)
    with pytest.raises(ValidationError):
        derivative(poly, 3)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 4.0, 12)
    z = 0.7 - 1.3 * t + 0.4 * t * t
    poly = fit_samples(t, z, FixedAlpha(0.0))
    d1 = derivative(poly, 1)
    d2 = derivative(poly, 2)
    for _ in range(10):
        x = rng.uniform(0.5, 3.5)
        fd1 = central_difference(poly.evaluate, x)
        fd2 = central_difference(d1.evaluate, x)
        assert abs(d1.evaluate(x) - fd1) <= 1e-6 * max(1.0, abs(fd1))
        assert abs(d2.evaluate(x) - fd2) <= 1e-6 * max(1.0, abs(fd2))


def test_second_derivative_composes():
    poly = fit_samples(np.arange(5.0), np.arange(5.0) ** 2, FixedAlpha(0.0))
    assert derivative(derivative(poly, 1), 1).coefficients == derivative(poly, 2).coefficients


def test_condition_diagnostics_against_char_poly_oracle():
    # M for t = {0,1,2}: Gram [[3,3,5],[3,5,9],[5,9,17]], characteristic
    # polynomial x^3 - 25 x^2 + 36 x - 4 (trace 25, minor sum 36, det 4)
    eig = np.roots([1.0, -25.0, 36.0, -4.0]).real
    oracle = eig.max() / eig.min()
    kappa_raw, _ = condition_diagnostics(3, 0.0)
    assert kappa_raw == pytest.approx(oracle, rel=1e-9)


def test_condition_number_limit_large_alpha():
    _, kappa_reg = condition_diagnostics(5, 1e9)
    assert kappa_reg == pytest.approx(1.0, abs=1e-6)


def test_condition_growth_and_regularized_bound():
    policy = GridSearchAlpha()
    previous = 0.0
    for t_count in range(3, 21):
        kappa_raw, _ = condition_diagnostics(t_count, 0.0)
        assert kappa_raw > previous
        previous = kappa_raw
        alpha = policy.select(np.arange(t_count, dtype=float))
        _, kappa_reg = condition_diagnostics(t_count, alpha)
        assert kappa_reg <= 1e6


def test_grid_policy_picks_positive_alpha_when_needed():
    # beyond T ~ 28 the uncentered system blows past the cap
    policy = GridSearchAlpha()
    alpha = policy.select(np.arange(30, dtype=float))
    assert alpha > 0.0
    m = vandermonde(np.arange(30, dtype=float))
    assert gram_condition(m, alpha) <= 1e6
    assert gram_condition(m, 0.0) > 1e6


def test_grid_policy_falls_back_to_largest_alpha():
    # far past the grid's reach the policy still damps the conditioning
    policy = GridSearchAlpha()
    t = np.arange(40, dtype=float)
    alpha = policy.select(t)
    assert alpha == 1.0  # largest grid value
    m = vandermonde(t)
    assert gram_condition(m, alpha) < gram_condition(m, 0.0)


def test_grid_policy_cache_and_zero_selection():
    policy = GridSearchAlpha()
    t = np.arange(10, dtype=float)
    assert policy.select(t) == 0.0
    assert policy.select(t) == 0.0


def test_rank_deficiency_errors_without_regularization():
    t = np.array([1.0, 1.0, 1.0, 1.0])
    z = np.array([2.0, 2.0, 2.0, 2.0])
    with pytest.raises(ConditioningError):
        fit_samples(t, z, FixedAlpha(0.0))
    poly = fit_samples(t, z, FixedAlpha(0.5))  # regularized solve goes through
    assert np.isfinite(poly.coefficients).all()


def test_insufficient_samples():
    with pytest.raises(InsufficientDataError):
        fit_samples(np.array([0.0, 1.0]), np.array([1.0, 2.0]), FixedAlpha(0.0))
    with pytest.raises(InsufficientDataError):
        condition_diagnostics(2, 0.0)


def test_regularized_converges_to_unregularized():
    t = np.linspace(0, 3, 8)
    z = 2.0 - t + 0.5 * t * t
    base = np.array(fit_samples(t, z, FixedAlpha(0.0)).coefficients)
    for alpha in (1e-8, 1e-6):
        reg = np.array(fit_samples(t, z, FixedAlpha(alpha)).coefficients)
        assert np.linalg.norm(reg - base) <= 1e-4


def test_fit_series_converts_frames_to_seconds():
    values = np.arange(10.0) ** 2  # zeta = t^2 at 1 Hz, frames 0..9
    poly = fit(0, values, FixedAlpha(0.0), frame_rate_hz=10.0)
    # at 10 Hz, zeta(t) = (10 t)^2 = 100 t^2
    assert np.allclose(poly.coefficients, (0.0, 0.0, 100.0), atol=1e-6)
    assert poly.domain == (0.0, 0.9)


def test_reported_condition_number_is_regularized():
    t = np.array([1.0, 1.0, 1.0])
    poly = fit_samples(t, np.ones(3), FixedAlpha(1.0))
    assert poly.condition_number == pytest.approx(
        gram_condition(vandermonde(t - t.mean()), 1.0)
    )
    assert poly.alpha == 1.0


# repeated values, signed zeros, magnitudes from 1e-12 to 1e9, and NaN;
# a row holding NaN gets what np.linalg.lstsq gives it (NaN coefficients
# where LAPACK's SVD of the design converges, LinAlgError where it fails)
SAMPLES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e-12, -1e-12, 1e9, -1e9, float("nan")]) | (
    st.floats(-1e9, 1e9, allow_nan=False)
)


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def solve(m, alpha, t_bars, rows):
    """``fit_solve`` then ``uncenter``: absolute-time coefficients per row."""
    return uncenter(fit_solve(np.asarray(m), np.asarray(alpha, dtype=float), rows),
                    np.asarray(t_bars, dtype=float))


def expected_solves(designs, t_bars, rows):
    """Each row's ``lstsq_solve`` bits, or LinAlgError if any row raises it."""
    try:
        return [bits(lstsq_solve(d, t_bar, row)) for d, t_bar, row in zip(designs, t_bars, rows)]
    except LinAlgError:
        return LinAlgError


def assert_solves_as_lstsq(designs, t_bars, rows):
    """One ``fit_solve`` of the rows on their (alpha, kappa, m) designs is per-row lstsq."""
    expected = expected_solves(designs, t_bars, rows)
    alpha, _, m = zip(*designs)
    if expected is LinAlgError:
        with pytest.raises(LinAlgError):
            solve(m, alpha, t_bars, rows)
    else:
        assert [bits(c) for c in solve(m, alpha, t_bars, rows)] == expected


@settings(max_examples=150, deadline=None)
@given(
    t_count=st.integers(3, 64),
    first=st.integers(0, 10**6),
    rate=st.sampled_from([1.0, 10.0]),
    alphas=st.lists(st.sampled_from([0.0, 1e-3, 0.5]), min_size=2, max_size=2),
    data=st.data(),
)
def test_stacked_rows_equal_per_row_lstsq_bit_for_bit(t_count, first, rate, alphas, data):
    # rows on the designs of two grids of one sample count, each grid at its
    # own alpha: one call may hold rows at alpha = 0 and alpha > 0
    grids = []
    for start, alpha in zip((first, first + data.draw(st.integers(1, 10**6))), alphas):
        t = np.arange(start, start + t_count) / rate
        grids.append((float(t.mean()), one_grid_design(t - t.mean(), FixedAlpha(alpha))))
    count = data.draw(st.integers(1, 5))
    which = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    rows = np.array(data.draw(st.lists(
        st.lists(SAMPLES, min_size=t_count, max_size=t_count), min_size=count, max_size=count
    )))
    t_bars = [data.draw(st.sampled_from([grids[g][0], 0.0]) | st.floats(-1e6, 1e6))
              for g in which]
    assert_solves_as_lstsq([grids[g][1] for g in which], t_bars, rows)


def design_bits(design):
    alpha, kappa, m = design
    return bits([alpha, kappa]), m.shape, m.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(3, 60),
    firsts=st.lists(st.integers(0, 2**40), min_size=1, max_size=8),
    rate=st.sampled_from([10.0, 25.0, 30000 / 1001]),
    policy=st.sampled_from([FixedAlpha(0.0), FixedAlpha(1e-3), FixedAlpha(0.5),
                            GridSearchAlpha(), GridSearchAlpha(50.0), GridSearchAlpha(1.5)]),
)
def test_stacked_designs_equal_per_grid_designs_bit_for_bit(count, firsts, rate, policy):
    # the centered grids of windows of one sample count, as analyze_table makes
    # them; each grid's alpha against the oracle's walk of the alpha grid
    _, tcs = slice_times(np.array(firsts, dtype=np.int64), count, rate)
    expected = [design_bits(one_grid_design(tc, policy)) for tc in tcs]
    assert [design_bits(d) for d in zip(*fit_designs(tcs, policy))] == expected


def test_stacked_designs_take_alpha_rows_and_refuse_rank_deficiency():
    # a small cap sends short grids to alpha > 0 and leaves long ones at
    # alpha = 0, in one stack of plain (G, T, 3) Vandermonde matrices
    policy = GridSearchAlpha(50.0)
    ridge = set()
    for count in range(3, 61):
        _, tcs = slice_times(np.array([0, 7, 2**40]), count, 25.0)
        alpha, kappa, m = fit_designs(tcs, policy)
        assert alpha.shape == kappa.shape == (3,) and m.shape == (3, count, 3)
        for tc, design in zip(tcs, zip(alpha, kappa, m)):
            assert design_bits(design) == design_bits(one_grid_design(tc, policy))
        ridge.update((alpha > 0).tolist())
    assert ridge == {False, True}
    # a grid of two distinct times has rank 2: the stack holding it raises
    # as the one-grid design does, at alpha = 0 only
    _, (good,) = slice_times(np.array([5]), 4, 10.0)
    flat = np.array([-1.0, -1.0, 1.0, 1.0])
    message = "design matrix is rank deficient with alpha = 0; select a regularized alpha policy"
    for form in (lambda: one_grid_design(flat, FixedAlpha(0.0)),
                 lambda: fit_designs(flat[None], FixedAlpha(0.0)),
                 lambda: fit_designs(np.stack([good, flat, good]), FixedAlpha(0.0))):
        with pytest.raises(ConditioningError) as exc:
            form()
        assert str(exc.value) == message
    assert len(fit_designs(np.stack([good, flat]), FixedAlpha(0.5))[2]) == 2


def test_nan_rows_and_unconverged_svd_behave_as_lstsq():
    t = np.arange(6.0)
    design = one_grid_design(t - t.mean(), FixedAlpha(0.0))
    rows = np.ones((2, 6))
    rows[1, 3] = np.nan
    assert_solves_as_lstsq([design, design], [2.5, 2.5], rows)
    # a design holding NaN: gelsd's SVD fails, and np.linalg.lstsq raises
    alpha, kappa, m = design
    m = m.copy()
    m[2, 1] = np.nan
    with pytest.raises(LinAlgError):
        lstsq_solve((alpha, kappa, m), 2.5, np.ones(6))
    with pytest.raises(LinAlgError, match="SVD did not converge"):
        solve([m], [alpha], [2.5], np.ones((1, 6)))


def logged_gufuncs(monkeypatch):
    """Patch the lstsq gufuncs ``fit_solve`` calls to log each call's (name, A shape)."""
    calls, gufunc = [], _umath_linalg
    names = [name for name in ("lstsq", "lstsq_m", "lstsq_n") if hasattr(gufunc, name)]

    def logged(name):
        def call(a, b, *args, **kwargs):
            calls.append((name, a.shape))
            return getattr(gufunc, name)(a, b, *args, **kwargs)
        return call

    monkeypatch.setattr(regression, "_umath_linalg",
                        SimpleNamespace(**{name: logged(name) for name in names}))
    return calls


def test_one_solve_mixing_alpha_0_and_alpha_above_0_rows_equals_lstsq(monkeypatch):
    # rows at alpha = 0 and alpha > 0 interleaved in one fit_solve call: one
    # gufunc call per system shape (T x 3 and (T + 3) x 3), every row bit-equal
    # to np.linalg.lstsq on its own system, a NaN row on either side included
    t = np.arange(5.0)
    designs = [one_grid_design(t - t.mean() + shift, FixedAlpha(alpha))
               for shift, alpha in ((0.0, 0.0), (0.0, 0.5), (0.25, 1e-3), (0.25, 0.0),
                                    (0.0, 0.5), (0.0, 0.0))]
    rows = np.array([t * t, t * t, -t, np.ones(5), np.full(5, np.nan), [1, 0, np.nan, 0, 1]])
    t_bars = [2.0, 2.0, 2.25, 2.25, 0.0, 1e6]
    calls = logged_gufuncs(monkeypatch)
    assert_solves_as_lstsq(designs, t_bars, rows)
    assert sorted(shape for _, shape in calls) == [(3, 5, 3), (3, 8, 3)]
    # a design holding NaN among them: the SVD fails and the call raises
    alpha, _, m = zip(*designs)
    m = np.array(m)
    m[1, 2, 1] = np.nan
    with pytest.raises(LinAlgError, match="SVD did not converge"):
        fit_solve(m, np.array(alpha), rows)


def test_numpy_1_gufunc_is_picked_by_shape(monkeypatch):
    # numpy 1.x has no ``lstsq`` gufunc but one per shape: lstsq_m for an
    # m x n system with m <= n, lstsq_n otherwise
    picked = []

    def named(name):
        def gufunc(*args, **kwargs):
            picked.append(name)
            return _umath_linalg.lstsq(*args, **kwargs)
        return gufunc

    if not hasattr(_umath_linalg, "lstsq"):
        pytest.skip("numpy 1.x: the per-shape gufuncs are the real ones")
    cases = [(np.arange(float(t_count)), alpha)
             for t_count, alpha in ((3, 0.0), (4, 0.0), (3, 1e-3))]
    expected = [fit_samples(t, t * t, FixedAlpha(alpha)) for t, alpha in cases]
    # stacks of the designs of three grids of one shape
    stacks = [fit_designs(np.stack([t - t.mean() + d for d in (0.0, 0.25, 0.5)]),
                          FixedAlpha(alpha)) for t, alpha in cases]
    rows = [np.arange(3 * len(t), dtype=float).reshape(3, -1) for t, _ in cases]
    stacked = [fit_solve(m, a, r) for (a, _, m), r in zip(stacks, rows)]
    monkeypatch.setattr(regression, "_umath_linalg",
                        SimpleNamespace(lstsq_m=named("m"), lstsq_n=named("n")))
    assert [fit_samples(t, t * t, FixedAlpha(alpha)) for t, alpha in cases] == expected
    assert picked == ["m", "n", "n"]
    # a stack is one call, whose rows each solve as they do alone
    picked.clear()
    for (a, _, m), r, before in zip(stacks, rows, stacked):
        assert bits(fit_solve(m, a, r)) == bits(before)
        assert [bits(fit_solve(m[k:k + 1], a[k:k + 1], r[k:k + 1])[0])
                for k in range(3)] == bits(before)
    assert picked == ["m"] * 4 + ["n"] * 8


NOT_FINITE = "^values, times and squared centered times must be finite$"


@pytest.mark.parametrize("times", [[0.0, 1.0, np.nan], [0.0, 1.0, np.inf],
                                   [0.0, 1.0, 1e308, -1e308]])
def test_times_not_finite_or_overflowing_the_design_are_refused(times):
    # the last grid's times are finite, but their squares overflow
    with pytest.raises(ValidationError, match=NOT_FINITE):
        fit_samples(times, np.ones(len(times)))


def test_values_not_finite_are_refused():
    for values in ([1.0, 2.0, np.nan], [1.0, np.inf, 2.0]):
        with pytest.raises(ValidationError, match=NOT_FINITE):
            fit(0, values, frame_rate_hz=10.0)
        with pytest.raises(ValidationError, match=NOT_FINITE):
            fit_samples([0.0, 1.0, 2.0], values, FixedAlpha(0.5))


@pytest.mark.parametrize("times", [[0.0, 1.0, np.nan], [0.0, 1.0, np.inf],
                                   [0.0, 1.0, 1e308, -1e308], [0.0, 1.0, 1e100, -1e100]])
def test_grid_search_refuses_the_times_fit_samples_refuses(times):
    # select raised LinAlgError (Eigenvalues did not converge) or overflow
    # warnings; the last grid's squares are finite, but the Gram matrix's
    # sum of t**4 overflows, which fit_samples also let through
    with pytest.raises(ValidationError, match=NOT_FINITE):
        GridSearchAlpha().select(np.array(times))
    with pytest.raises(ValidationError, match=NOT_FINITE):
        fit_samples(times, np.ones(len(times)))


def test_times_and_values_of_different_shapes_are_refused():
    for times, values in (([0.0, 1.0, 2.0], [1.0, 2.0]), ([[0.0, 1.0, 2.0]], [[1.0, 2.0, 3.0]])):
        with pytest.raises(ValidationError, match="^times and values must be 1-D arrays of equal"):
            fit_samples(times, values)
