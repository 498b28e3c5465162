"""End-to-end acceptance checks.

Each test prints one ``[acceptance]`` line so a full run gives a compact
scoreboard.  Thresholds and runtime budgets are fixed; seeds are pinned so
every run evaluates the same datasets.
"""

import itertools
import math
import time

import numpy as np

from oracles import amoc_scenario, best_partition, kept_taus
from subsetcp import (
    BaselineConfig,
    ChangeSpec,
    DetectorConfig,
    GAUSSIAN,
    KIND_DENSE,
    KIND_SPARSE,
    NEGBIN,
    NullModel,
    RandomSource,
    ScenarioSpec,
    TimeSeriesMatrix,
    calibrate_baseline_threshold,
    calibrate_beta,
    draw_intervals,
    gaussian_model,
    generate,
    negbin_model,
    optimal_partition,
    postprocess,
    run_experiment,
    scan_interval,
    scan_interval_baseline,
    scenario,
    subset_wbs,
    theoretical_penalties,
)
from subsetcp.single_change import branch_sums


def _announce(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def test_gaussian_gain_equals_squared_cusum():
    start = time.perf_counter()
    g = RandomSource(101).generator()
    worst = 0.0
    for _ in range(1000):
        n = int(g.integers(6, 60))
        sigma = float(g.uniform(0.5, 2.0))
        y = g.standard_normal(n) * sigma + g.uniform(-3, 3)
        model = gaussian_model(TimeSeriesMatrix(y[None, :], ("x1",)), sigma=sigma)
        l = int(g.integers(1, n - 2))
        u = int(g.integers(l + 2, n + 1))
        t = int(g.integers(l, u))
        d_val = model.gain_matrix(l, u)[0, t - l]
        left, right, total = t - l + 1, u - t, u - l + 1
        mean_l = y[l - 1 : t].mean()
        mean_r = y[t:u].mean()
        w = math.sqrt(left * right / total) * abs(mean_r - mean_l) / sigma
        worst = max(worst, abs(d_val - w * w))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _announce(1, "gaussian cusum identity", ok)
    assert worst < 1e-9, f"worst |D - W^2| = {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_scan_matches_exhaustive_subset_maximization():
    start = time.perf_counter()
    g = RandomSource(102).generator()
    worst = 0.0
    argmax_mismatches = 0
    for _ in range(200):
        d = int(g.integers(1, 11))
        n = int(g.integers(6, 31))
        y = g.standard_normal((d, n)) + g.standard_normal((d, 1)) * g.integers(
            0, 3, size=(d, 1)
        )
        matrix = TimeSeriesMatrix(y, tuple(f"x{i}" for i in range(1, d + 1)))
        model = gaussian_model(matrix, sigma=1.0)
        alpha = float(g.uniform(0.5, 4.0))
        beta = float(g.uniform(0.5, 6.0))
        K = beta + d + math.sqrt(2 * beta * d)
        gains = model.gain_matrix(1, n)
        sparse, dense = branch_sums(gains.copy(), alpha)
        s = np.maximum(sparse - beta, dense - K)

        masks = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
        sums = masks @ gains
        pens = np.minimum(beta + alpha * masks.sum(axis=1), K)
        per_t = (sums - pens[:, None]).max(axis=0)
        worst = max(worst, float(np.max(np.abs(per_t - s))))
        argmax_mismatches += int(np.argmax(per_t)) != int(np.argmax(s))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and argmax_mismatches == 0 and elapsed < 30.0
    _announce(2, "scan equals subset enumeration", ok)
    assert worst < 1e-9, f"worst value gap = {worst:.3e}"
    assert argmax_mismatches == 0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_candidate_partition_matches_exhaustive_search():
    start = time.perf_counter()
    g = RandomSource(103).generator()
    selection_mismatches = 0
    for _ in range(200):
        n = int(g.integers(10, 41))
        q = int(g.integers(1, 9))
        y = g.standard_normal(n) + np.repeat(
            g.standard_normal(4) * 2, [n // 4] * 3 + [n - 3 * (n // 4)]
        )
        model = gaussian_model(TimeSeriesMatrix(y[None, :], ("x1",)), sigma=1.0)
        taus = tuple(sorted(g.choice(np.arange(1, n), size=q, replace=False).tolist()))
        alpha = float(g.uniform(0.1, 8.0))
        (selected,) = kept_taus(optimal_partition(model, taus, alpha), taus)
        selection_mismatches += best_partition(y, taus, alpha, sigma=1.0) != selected
    elapsed = time.perf_counter() - start
    ok = selection_mismatches == 0 and elapsed < 30.0
    _announce(3, "partition equals exhaustive search", ok)
    assert selection_mismatches == 0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_calibrated_penalties_hit_the_target_rate_on_fresh_nulls():
    start = time.perf_counter()
    n, d = 200, 20
    null = NullModel(kind=GAUSSIAN)
    src = RandomSource(seed=7)
    pen = calibrate_beta(n, d, null, src.child(0), target_fp=0.05, reps=500, intervals=0)
    hits = 0
    for rep in range(500):
        model = null.sample_model(n, d, src.child(1, rep))
        hits += scan_interval(model, pen, 1, n) is not None
    rate = hits / 500
    elapsed = time.perf_counter() - start
    ok = 0.02 <= rate <= 0.08 and elapsed < 300.0
    _announce(4, "calibration closes the loop", ok)
    assert 0.02 <= rate <= 0.08, f"fresh-null rate {rate:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_theoretical_penalties_are_conservative_on_null_scans():
    start = time.perf_counter()
    n, d = 200, 20
    pen = theoretical_penalties(n, d, J=2.0)
    null = NullModel(kind=GAUSSIAN)
    src = RandomSource(seed=2)
    hits = 0
    for rep in range(500):
        model = null.sample_model(n, d, src.child(rep))
        hits += scan_interval(model, pen, 1, n) is not None
    rate = hits / 500
    elapsed = time.perf_counter() - start
    ok = rate <= 0.05 and elapsed < 300.0
    _announce(5, "default penalties control false alarms", ok)
    assert rate <= 0.05, f"null scan rate {rate:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_dense_gaussian_scenario_accuracy():
    start = time.perf_counter()
    spec = scenario("Aprime", "gaussian", n=1000, d=12, delta=1.0)
    det = DetectorConfig(method="subset", intervals=200, target_fp=0.05, calib_reps=200)
    report = run_experiment(spec, det, reps=100, rng=RandomSource(6))
    elapsed = time.perf_counter() - start
    ok = report.avg_missed <= 0.10 and report.avg_false_alarms <= 0.15 and elapsed < 900.0
    _announce(6, "dense gaussian benchmark", ok)
    assert report.avg_missed <= 0.10, f"avg missed {report.avg_missed:.3f}"
    assert report.avg_false_alarms <= 0.15, f"avg false alarms {report.avg_false_alarms:.3f}"
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_count_scenarios_show_power_and_the_low_dispersion_limit():
    start = time.perf_counter()
    det = DetectorConfig(method="subset", intervals=200, target_fp=0.05, calib_reps=200)

    easy = scenario("Aprime", "negbin", n=1000, d=12, dp=0.1, r=100.0)
    easy_report = run_experiment(easy, det, reps=50, rng=RandomSource(7))

    hard = scenario("Dprime", "negbin", n=1000, d=12, dp=0.1, r=3.0, surge=True)
    hard_report = run_experiment(hard, det, reps=50, rng=RandomSource(8))

    elapsed = time.perf_counter() - start
    ok = (
        easy_report.avg_missed == 0.0
        and easy_report.avg_false_alarms <= 0.02
        and hard_report.avg_missed >= 1.0
        and elapsed < 900.0
    )
    _announce(7, "count benchmarks incl. low-dispersion limit", ok)
    assert easy_report.avg_missed == 0.0, f"easy missed {easy_report.avg_missed:.3f}"
    assert easy_report.avg_false_alarms <= 0.02, (
        f"easy false alarms {easy_report.avg_false_alarms:.3f}"
    )
    assert hard_report.avg_missed >= 1.0, f"hard missed {hard_report.avg_missed:.3f}"
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_power_ordering_across_signal_density():
    start = time.perf_counter()
    n = d = 200
    null = NullModel(kind=GAUSSIAN)
    src = RandomSource(seed=8)
    pen = calibrate_beta(n, d, null, src.child(0), target_fp=0.05, reps=500, intervals=0)
    thresholds = {
        m: calibrate_baseline_threshold(
            n, d, m, null, src.child(0), target_fp=0.05, reps=500, intervals=0
        )
        for m in ("mean", "max")
    }
    configs = {m: BaselineConfig(method=m, threshold=thresholds[m]) for m in ("mean", "max")}

    grid = [round(0.1 * k, 1) for k in range(1, 11)]
    stars = {}
    for density in (0.5, 0.005):
        power = {m: [] for m in ("subset", "mean", "max")}
        for delta in grid:
            spec = amoc_scenario(n, d, delta, density=density)
            hits = dict.fromkeys(power, 0)
            for rep in range(100):
                matrix, _ = generate(
                    spec, src.child(2, int(density * 1000), int(delta * 10), rep)
                )
                model = gaussian_model(matrix, sigma=1.0)
                if scan_interval(model, pen, 1, n) is not None:
                    hits["subset"] += 1
                for m in ("mean", "max"):
                    if scan_interval_baseline(model, configs[m], 1, n) is not None:
                        hits[m] += 1
            for m in power:
                power[m].append(hits[m] / 100)
        stars[density] = {
            m: next((grid[j] for j, p in enumerate(curve) if p >= 0.95), math.inf)
            for m, curve in power.items()
        }

    dense, sparse = stars[0.5], stars[0.005]
    elapsed = time.perf_counter() - start
    ok = (
        math.isfinite(dense["mean"])
        and math.isfinite(dense["subset"])
        and dense["mean"] <= dense["max"]
        and dense["subset"] <= dense["max"]
        and math.isfinite(sparse["max"])
        and math.isfinite(sparse["subset"])
        and sparse["max"] <= sparse["mean"]
        and sparse["subset"] <= sparse["mean"]
        and elapsed < 1800.0
    )
    _announce(8, "power ordering by density", ok)
    assert math.isfinite(dense["mean"]) and math.isfinite(dense["subset"]), f"{dense}"
    assert dense["mean"] <= dense["max"], f"dense case: {dense}"
    assert dense["subset"] <= dense["max"], f"dense case: {dense}"
    assert math.isfinite(sparse["max"]) and math.isfinite(sparse["subset"]), f"{sparse}"
    assert sparse["max"] <= sparse["mean"], f"sparse case: {sparse}"
    assert sparse["subset"] <= sparse["mean"], f"sparse case: {sparse}"
    assert elapsed < 1800.0, f"took {elapsed:.1f}s"


def test_affected_set_recovery_for_a_lone_variate():
    start = time.perf_counter()
    spec = amoc_scenario(400, 200, 3.0, density=0.005)
    det = DetectorConfig(method="subset", intervals=100, target_fp=0.05, calib_reps=200)
    report = run_experiment(spec, det, reps=100, rng=RandomSource(9))
    elapsed = time.perf_counter() - start
    ok = report.affected_tpr >= 0.9 and report.affected_fpr <= 0.01 and elapsed < 600.0
    _announce(9, "affected-set recovery", ok)
    assert report.affected_tpr >= 0.9, f"tpr {report.affected_tpr:.4f}"
    assert report.affected_fpr <= 0.01, f"fpr {report.affected_fpr:.5f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_dense_and_sparse_labels_on_a_count_panel():
    start = time.perf_counter()
    n, d = 564, 12
    spec = ScenarioSpec(
        model=NEGBIN,
        n=n,
        d=d,
        changes=(
            ChangeSpec(tau=150, affected=(2,), delta=-0.2),
            ChangeSpec(tau=340, affected=tuple(range(1, 13)), delta=-0.2),
            ChangeSpec(tau=450, affected=(7,), delta=-0.2),
        ),
        negbin_r=20.0,
        negbin_p=0.5,
    )
    null = NullModel(kind=NEGBIN, r=20.0, p=0.5)
    src = RandomSource(seed=10)
    pen = calibrate_beta(n, d, null, src.child(0), target_fp=0.05, reps=200, intervals=200)

    tol = math.ceil(math.log(n))
    wins = 0
    for seed in range(50):
        matrix, truth = generate(spec, src.child(1, seed, 0))
        model = negbin_model(matrix)
        intervals = draw_intervals(n, 200, src.child(1, seed, 1))
        result = postprocess(model, subset_wbs(model, pen, intervals))
        nearest = {}
        for ch in truth:
            close = [det for det in result.detections if abs(det.tau - ch.tau) <= tol]
            nearest[ch.tau] = (
                min(close, key=lambda det: abs(det.tau - ch.tau)) if close else None
            )
        wins += (
            nearest[340] is not None
            and nearest[340].kind == KIND_DENSE
            and nearest[150] is not None
            and nearest[150].kind == KIND_SPARSE
            and set(nearest[150].affected) == {2}
            and nearest[450] is not None
            and nearest[450].kind == KIND_SPARSE
            and set(nearest[450].affected) == {7}
        )
    elapsed = time.perf_counter() - start
    ok = wins >= 45 and elapsed < 600.0
    _announce(10, "dense and sparse labels end to end", ok)
    assert wins >= 45, f"correct labelings {wins}/50"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
