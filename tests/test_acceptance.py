"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_frame
from drivestyle.calibrate import calibrate_thresholds
from drivestyle.centrality import compute_series
from drivestyle.evaluation import (
    annotations_from_labels,
    evaluate_run,
    expected_frame,
    tde,
)
from drivestyle.pipeline import analyze_table
from drivestyle.regression import (
    FixedAlpha,
    GridSearchAlpha,
    condition_diagnostics,
    derivative,
    fit_samples,
)
from drivestyle.scenarios import (
    all_conservative_scenario,
    calibration_scenarios,
    mixed_behavior_scenario,
    suite_analysis_params,
    tde_suite,
)
from drivestyle.sim import (
    AGGRESSIVE_PARAMS,
    CONSERVATIVE_PARAMS,
    VEHICLE_LENGTH_M,
    DriverParams,
    ScenarioConfig,
    SpawnSpec,
    build_world,
    idm_acceleration,
    idm_law,
    mobil_decision,
    run_scenario,
    step,
)
from drivestyle.styles import DEFAULT_THRESHOLDS, STYLE_OVERSPEEDING
from oracles import (
    all_pairs_edges,
    by_agent,
    central_difference,
    dijkstra_closeness,
    records_table,
    relaxation_closeness,
)


def _ok(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="session")
def calibrated_params():
    return suite_analysis_params(
        calibrate_thresholds(calibration_scenarios(), suite_analysis_params())
    )


def test_packaged_defaults_are_the_calibrated_thresholds(calibrated_params):
    # README: DEFAULT_THRESHOLDS were produced by calibrating at the suite
    # settings, rounded to 3 significant figures
    th = calibrated_params.thresholds
    assert [float(f"{v:.3g}") for v in vars(th).values()] == list(
        vars(DEFAULT_THRESHOLDS).values()) == [5.21, 0.122, 0.122]


def test_criterion_1_tde_arithmetic_anchor():
    value = tde(7.0, 5.0, 30.0)
    assert abs(value - 2.0 / 30.0) <= 1e-9
    assert f"{value:.4f}" == "0.0667"
    _ok(1, f"TDE(frames 5, 7 @ 30 Hz) = {value:.10f} s (displays as 0.0667)")


def test_criterion_2_sub_second_tde_suite(calibrated_params):
    start = time.time()
    per_style: dict[str, list[float]] = {}
    for scenario in tde_suite():
        result = run_scenario(scenario.config)
        report = analyze_table(result.table, calibrated_params)
        annotations = annotations_from_labels(
            result.labels, result.table.frame_rate_hz
        )
        for row in evaluate_run(report.agents, annotations).rows:
            assert row.mean_tde_s is not None, (scenario.name, row.style)
            per_style.setdefault(row.style, []).append(row.mean_tde_s)
    elapsed = time.time() - start
    assert set(per_style) == {"OS", "OT", "SLC", "W"}
    means = {style: float(np.mean(vals)) for style, vals in per_style.items()}
    for style, mean in means.items():
        assert len(per_style[style]) == 5
        assert mean < 1.0, (style, mean)
    assert elapsed < 120.0
    pretty = ", ".join(f"{s}={m:.3f}s" for s, m in sorted(means.items()))
    _ok(2, f"mean per-style TDE over 20 scenarios: {pretty} ({elapsed:.1f}s)")


def test_criterion_3_noise_robustness_scaling():
    rng = np.random.default_rng(12)
    t = np.arange(20) / 10.0
    beta = np.array([0.3, 0.8, 0.05])
    clean = beta[0] + beta[1] * t + beta[2] * t * t
    eps_values = [1e-3, 1e-2, 1e-1]
    slopes = []
    for policy in (GridSearchAlpha(), FixedAlpha(0.1)):
        # the noiseless estimator under the same policy is the reference
        # (regularization bias is common to both and cancels)
        reference = np.array(fit_samples(t, clean, policy).coefficients)
        medians = []
        for eps in eps_values:
            errors = [
                np.linalg.norm(
                    np.array(
                        fit_samples(
                            t, clean + rng.normal(0.0, eps, t.size), policy
                        ).coefficients
                    )
                    - reference
                )
                for _ in range(100)
            ]
            medians.append(np.median(errors))
        slopes.append(float(np.polyfit(np.log(eps_values), np.log(medians), 1)[0]))
    for slope in slopes:
        assert abs(slope - 1.0) <= 0.15
    _ok(3, f"log-log error slopes (grid policy, fixed alpha): "
           f"{slopes[0]:.3f}, {slopes[1]:.3f}")


def test_criterion_4_conditioning_shape():
    policy = GridSearchAlpha()
    previous = 0.0
    worst_reg = 0.0
    for t_count in range(3, 21):
        kappa_raw, _ = condition_diagnostics(t_count, 0.0)
        assert kappa_raw > previous, t_count
        previous = kappa_raw
        alpha = policy.select(np.arange(t_count, dtype=float))
        _, kappa_reg = condition_diagnostics(t_count, alpha)
        assert kappa_reg <= 1e6, (t_count, kappa_reg)
        worst_reg = max(worst_reg, kappa_reg)
    _ok(4, f"kappa_raw strictly increasing over T=3..20 "
           f"(up to {previous:.3e}); regularized max {worst_reg:.3e} <= 1e6")


def test_criterion_5_closeness_oracle_equivalence():
    rng = np.random.default_rng(2024)
    graphs = vertices = 0
    while graphs < 500:
        n = int(rng.integers(2, 11))
        frame = [
            make_frame(f"v{i}", rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
            for i in range(n)
        ]
        mu = float(rng.uniform(2.0, 20.0))
        series = by_agent(compute_series(records_table({0: frame}), mu))
        graph = SimpleNamespace(
            positions={fr.agent_id: fr.position for fr in frame},
            edges=all_pairs_edges(frame, mu),
        )
        for v in graph.positions:
            (got,) = series[v].closeness
            assert got == relaxation_closeness(graph, v)
            assert got == dijkstra_closeness(graph, v)
            vertices += 1
        graphs += 1
    _ok(5, f"compute_series closeness exactly matches the relaxation and "
           f"Dijkstra oracles on {graphs} one-frame tables / {vertices} vertices")


def test_criterion_6_exact_recovery_and_derivatives():
    t = np.linspace(0.0, 3.0, 12)
    beta = np.array([1.0, 2.0, 3.0])
    poly = fit_samples(t, beta[0] + beta[1] * t + beta[2] * t * t, FixedAlpha(0.0))
    err = np.linalg.norm(np.array(poly.coefficients) - beta)
    assert err <= 1e-9
    d1, d2 = derivative(poly, 1), derivative(poly, 2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = float(rng.uniform(0.2, 2.8))
        fd1 = central_difference(poly.evaluate, x)
        fd2 = central_difference(d1.evaluate, x)
        assert abs(d1.evaluate(x) - fd1) <= 1e-6 * max(1.0, abs(fd1))
        assert abs(d2.evaluate(x) - fd2) <= 1e-6 * max(1.0, abs(fd2))
    _ok(6, f"quadratic recovered to {err:.2e}; derivatives match finite "
           f"differences at 10 random points")


def test_criterion_7_idm_anchors():
    assert CONSERVATIVE_PARAMS == DriverParams(
        v0=25.0, T_gap=1.5, s0=5.0, a_max=3.0, b_comf=6.0,
        politeness=0.5, delta_a_th=0.2, b_safe=3.0,
    )
    assert AGGRESSIVE_PARAMS == DriverParams(
        v0=40.0, T_gap=1.2, s0=2.5, a_max=6.0, b_comf=9.0,
        politeness=0.0, delta_a_th=0.0, b_safe=9.0,
    )
    law = idm_law(CONSERVATIVE_PARAMS)
    assert idm_acceleration(law, 0.0) == CONSERVATIVE_PARAMS.a_max
    assert idm_acceleration(law, 25.0) == pytest.approx(0.0, abs=1e-12)

    spawns = [SpawnSpec("lead", "conservative", 0, 500.0, 10.0, longitudinal="cruise")]
    spawns += [
        SpawnSpec(f"f{i}", "conservative", 0, 470.0 - 30.0 * i, 10.0,
                  mobil_enabled=False)
        for i in range(3)
    ]
    config = ScenarioConfig(
        lane_count=1, road_length_m=50000.0, timestep_s=0.1, duration_s=300.0,
        spawns=spawns, randomize_conservative_v0=False,
    )
    world = build_world(config)
    for _ in range(config.frame_count()):
        step(world)
    s_star = CONSERVATIVE_PARAMS.s0 + 10.0 * CONSERVATIVE_PARAMS.T_gap
    ordered = sorted(world.x, reverse=True)
    gaps = [front - back - VEHICLE_LENGTH_M for front, back in zip(ordered, ordered[1:])]
    for gap in gaps:
        assert abs(gap - s_star) / s_star <= 0.02
    _ok(7, f"a(0)=a_max, a(v0)=0; platoon gaps {[f'{g:.2f}' for g in gaps]} m "
           f"within 2% of s*={s_star:.1f} m after 300 s")


def test_criterion_8_mobil_soundness_1000_scenes():
    rng = np.random.default_rng(99)

    # a car is (x, speed, idm_law), as the lane-change rule takes it
    def maybe(lo, hi):
        if rng.random() < 0.75:
            return (float(rng.uniform(lo, hi)), float(rng.uniform(0.0, 40.0)),
                    idm_law(CONSERVATIVE_PARAMS))
        return None

    def follow(back, front):
        if front is None:
            return idm_acceleration(back[2], back[1])
        return idm_acceleration(back[2], back[1], front[0] - back[0] - VEHICLE_LENGTH_M,
                                front[1])

    approved = 0
    for _ in range(1000):
        params = AGGRESSIVE_PARAMS if rng.random() < 0.5 else CONSERVATIVE_PARAMS
        ego = (0.0, float(rng.uniform(0.0, 40.0)), idm_law(params))
        cl = maybe(6.0, 150.0)
        cf = maybe(-150.0, -6.0)
        tl = maybe(-20.0, 150.0)
        tf = maybe(-150.0, 20.0)
        decision = mobil_decision(params, ego, cl, cf, tl, tf)
        if not decision.approved:
            continue
        approved += 1
        if tf is not None:
            assert follow(tf, ego) >= -params.b_safe
        gain_ego = follow(ego, tl) - follow(ego, cl)
        gain_n = 0.0 if tf is None else follow(tf, ego) - follow(tf, tl)
        gain_o = 0.0 if cf is None else follow(cf, cl) - follow(cf, ego)
        assert gain_ego + params.politeness * (gain_n + gain_o) > params.delta_a_th
    assert approved >= 50
    _ok(8, f"{approved} approved changes out of 1000 random scenes; all "
           f"satisfy safety and incentive on replay")


def test_criterion_9_behavior_separation(calibrated_params):
    start = time.time()
    result = run_scenario(mixed_behavior_scenario(2))
    report = analyze_table(result.table, calibrated_params)
    overspeed = {
        a.agent_id: a.styles[STYLE_OVERSPEEDING].sle_max for a in report.agents
    }
    agg_value = overspeed.pop("agg")
    strongest_conservative = max(overspeed.values())
    assert agg_value > strongest_conservative
    assert report.agent("agg").global_label == "aggressive"

    false_alarms = 0
    for seed in (0, 1):
        calm = run_scenario(all_conservative_scenario(seed))
        calm_report = analyze_table(calm.table, calibrated_params)
        false_alarms += sum(
            1 for a in calm_report.agents if a.global_label == "aggressive"
        )
    assert false_alarms == 0
    elapsed = time.time() - start
    assert elapsed < 30.0
    _ok(9, f"aggressive degree SLE {agg_value:.3f} > strongest conservative "
           f"{strongest_conservative:.3f}; 0 false alarms in all-conservative "
           f"runs ({elapsed:.1f}s)")


def test_criterion_10_expected_frame_fixtures():
    point = expected_frame([(7, 7)]).expectation
    assert abs(point - 7.0) <= 1e-12
    single = expected_frame([(10, 12)]).expectation
    assert abs(single - 11.0) <= 1e-12
    overlapping = expected_frame([(10, 12), (12, 14)]).expectation
    assert abs(overlapping - 12.0) <= 1e-12
    rng = np.random.default_rng(5)
    intervals = [(10, 12), (12, 14), (3, 20), (14, 14)]
    for _ in range(10):
        shuffled = list(intervals)
        rng.shuffle(shuffled)
        assert expected_frame(shuffled).expectation == expected_frame(intervals).expectation
    _ok(10, "E[T] fixtures match to 1e-12; annotator permutations are invariant")
