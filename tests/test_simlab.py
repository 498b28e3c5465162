"""Scenario construction, data generation, metrics, and experiment loops."""

import numpy as np
import pytest

from oracles import amoc_scenario
from subsetcp import (
    GAUSSIAN,
    NEGBIN,
    Detection,
    InputDataError,
    PenaltyConfig,
    RandomSource,
    SegmentationResult,
)
from subsetcp.simlab import (
    ChangeSpec,
    DetectorConfig,
    MetricsReport,
    ReplicateRow,
    ScenarioSpec,
    evaluate,
    fit_model,
    generate,
    matching_window,
    null_model,
    replicate_table,
    run_experiment,
    scenario,
    signal_matrix,
)


def _pen() -> PenaltyConfig:
    return PenaltyConfig(alpha=1.0, beta=1.0, K=2.0, source="manual")


def _result(n, dets) -> SegmentationResult:
    return SegmentationResult(detections=tuple(dets), penalties=_pen(), n=n)


def _det(tau, kind="dense", affected=frozenset({1}), n=1000):
    return Detection(
        tau=tau, kind=kind, affected=frozenset(affected), statistic=1.0, interval=(1, n)
    )


def test_dense_scenario_layout():
    spec = scenario("A")
    assert spec.model == GAUSSIAN
    assert spec.n == 1000 and spec.d == 1000
    assert [ch.tau for ch in spec.changes] == [600, 783, 926]
    for ch in spec.changes:
        assert ch.affected == tuple(range(1, 1001))
        assert ch.delta == 1.0


def test_density_scenarios_pick_leading_variates():
    sizes = lambda name: [len(ch.affected) for ch in scenario(name).changes]
    assert sizes("B") == [1000, 5, 1000]
    assert sizes("C") == [5, 1000, 5]
    assert sizes("D") == [10, 10, 10]
    assert sizes("E") == [5, 10, 50]


def test_small_layouts_use_explicit_sets():
    spec = scenario("Bprime")
    assert spec.model == GAUSSIAN
    assert spec.d == 12
    assert spec.changes[0].affected == tuple(range(1, 13))
    assert spec.changes[1].affected == (1, 7)
    assert spec.changes[2].affected == tuple(range(1, 13))


def test_count_scenarios_shift_probability_down():
    spec = scenario("Aprime", model="negbin", dp=0.1, r=100.0, base_p=0.4)
    assert spec.model == NEGBIN
    assert all(ch.delta == -0.1 for ch in spec.changes)
    assert spec.negbin_r == 100.0 and spec.negbin_p == 0.4


def test_change_times_scale_with_series_length():
    spec = scenario("Aprime", n=500)
    assert [ch.tau for ch in spec.changes] == [300, 392, 463]


def test_zero_shift_gives_empty_truth():
    assert scenario("A", delta=0.0).changes == ()
    # A count surge shifts by dp too, so dp = 0 drops it as well.
    assert scenario("Aprime", model="negbin", dp=0.0, surge=True).changes == ()


def test_surge_prepends_two_cancelling_changes():
    spec = scenario("Aprime", surge=True)
    first, second = spec.changes[0], spec.changes[1]
    assert (first.tau, first.affected, first.delta) == (280, (3,), 5.0)
    assert (second.tau, second.affected, second.delta) == (320, (3,), -5.0)
    assert len(spec.changes) == 5
    sig = signal_matrix(spec)
    assert sig[2, 279] == 0.0
    assert sig[2, 280] == 5.0
    assert sig[2, 319] == 5.0
    assert sig[2, 320] == 0.0


def test_count_surge_dips_and_recovers():
    spec = scenario("Aprime", model="negbin", surge=True, dp=0.1)
    sig = signal_matrix(spec)
    assert sig[2, 279] == pytest.approx(0.5)
    assert sig[2, 280] == pytest.approx(0.4)
    assert sig[2, 320] == pytest.approx(0.5)


def test_signal_matrix_accumulates_shifts():
    spec = ScenarioSpec(
        model=GAUSSIAN,
        n=6,
        d=1,
        changes=(ChangeSpec(2, (1,), 1.0), ChangeSpec(4, (1,), 1.0)),
    )
    assert signal_matrix(spec).tolist() == [[0.0, 0.0, 1.0, 1.0, 2.0, 2.0]]


def test_scenario_name_and_model_validation():
    with pytest.raises(InputDataError, match="unknown scenario"):
        scenario("Z")
    with pytest.raises(InputDataError, match="Gaussian layouts"):
        scenario("A", model="negbin")
    with pytest.raises(InputDataError, match="model must be"):
        scenario("Aprime", model="poisson")
    with pytest.raises(InputDataError, match="too small"):
        scenario("A", n=2)


def test_spec_validation():
    ch = ChangeSpec(5, (1,), 1.0)
    with pytest.raises(InputDataError, match="unknown scenario model"):
        ScenarioSpec(model="weird", n=10, d=2, changes=(ch,))
    with pytest.raises(InputDataError, match="increasing"):
        ScenarioSpec(
            model=GAUSSIAN,
            n=10,
            d=2,
            changes=(ChangeSpec(5, (1,), 1.0), ChangeSpec(5, (2,), 1.0)),
        )
    with pytest.raises(InputDataError, match="outside"):
        ScenarioSpec(model=GAUSSIAN, n=4, d=2, changes=(ch,))
    with pytest.raises(InputDataError, match="names variate"):
        ScenarioSpec(model=GAUSSIAN, n=10, d=2, changes=(ChangeSpec(5, (3,), 1.0),))
    with pytest.raises(InputDataError, match="p in"):
        ScenarioSpec(model=NEGBIN, n=10, d=2, changes=(), negbin_p=1.5)
    with pytest.raises(InputDataError, match="at least one variate"):
        ChangeSpec(5, (), 1.0)
    with pytest.raises(InputDataError, match="non-zero"):
        ChangeSpec(5, (1,), 0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputDataError, match="finite non-zero"):
            ChangeSpec(5, (1,), bad)
        with pytest.raises(InputDataError, match="finite r"):
            ScenarioSpec(model=NEGBIN, n=10, d=2, changes=(), negbin_r=abs(bad))
    huge = (ChangeSpec(3, (1,), 1e308), ChangeSpec(6, (1,), 1e308))
    with pytest.raises(InputDataError, match="overflow"):
        ScenarioSpec(model=GAUSSIAN, n=10, d=2, changes=huge)
    assert ChangeSpec(5, (7, 1, 7), 1.0).affected == (1, 7)


def test_single_change_scenario_defaults():
    spec = amoc_scenario(400, 5, 1.0, density=0.4)
    assert spec.model == GAUSSIAN
    assert spec.changes[0].tau == 200
    assert spec.changes[0].affected == (1, 2)
    explicit = amoc_scenario(400, 5, 1.0, affected=(2, 4), tau=111)
    assert explicit.changes[0].tau == 111
    assert explicit.changes[0].affected == (2, 4)
    assert amoc_scenario(400, 5, 0.0, density=0.4).changes == ()
    with pytest.raises(InputDataError, match="exactly one"):
        amoc_scenario(400, 5, 1.0)
    with pytest.raises(InputDataError, match="exactly one"):
        amoc_scenario(400, 5, 1.0, density=0.5, affected=(1,))
    with pytest.raises(InputDataError, match="density"):
        amoc_scenario(400, 5, 1.0, density=2.0)


def test_generation_is_reproducible_and_truth_matches_spec():
    spec = scenario("Dprime", n=200, d=12, delta=1.5)
    a, truth_a = generate(spec, RandomSource(604).child(0))
    b, truth_b = generate(spec, RandomSource(604).child(0))
    c, _ = generate(spec, RandomSource(604).child(1))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert truth_a == spec.changes == truth_b


def test_count_generation_yields_integers_and_checks_probability():
    spec = scenario("Aprime", model="negbin", n=100, d=12, dp=0.1)
    matrix, _ = generate(spec, RandomSource(605))
    assert np.all(matrix.values >= 0)
    assert np.all(matrix.values == np.round(matrix.values))
    with pytest.raises(InputDataError, match="outside"):
        ScenarioSpec(model=NEGBIN, n=10, d=2, changes=(ChangeSpec(5, (1,), -0.6),))


def test_fit_and_null_models_follow_the_scenario_kind():
    gauss = scenario("Aprime", n=100, d=12)
    matrix, _ = generate(gauss, RandomSource(606))
    model = fit_model(matrix, gauss)
    assert model.kind == GAUSSIAN
    assert np.all(model.scale == 1.0)
    assert null_model(gauss).kind == GAUSSIAN

    counts = scenario("Aprime", model="negbin", n=100, d=12, r=30.0, base_p=0.6)
    cmatrix, _ = generate(counts, RandomSource(607))
    cmodel = fit_model(cmatrix, counts)
    assert cmodel.kind == NEGBIN
    null = null_model(counts)
    assert null.kind == NEGBIN
    assert null.r == 30.0 and null.p == 0.6


def test_matching_window_grows_logarithmically():
    assert matching_window(1000) == 7
    assert matching_window(100) == 5
    assert matching_window(3) == 2


def test_evaluate_counts_misses_and_false_alarms():
    truth = (ChangeSpec(600, (1,), 1.0),)
    hit = evaluate([(_result(1000, [_det(605)]), truth)], 1000, 3)
    assert hit.avg_missed == 0.0
    assert hit.avg_false_alarms == 0.0

    extra = evaluate([(_result(1000, [_det(400), _det(605)]), truth)], 1000, 3)
    assert extra.avg_missed == 0.0
    assert extra.avg_false_alarms == 1.0

    blank = evaluate([(_result(1000, []), truth)], 1000, 3)
    assert blank.avg_missed == 1.0


def test_evaluate_rejects_an_empty_run_list():
    with pytest.raises(InputDataError, match="need at least one run"):
        evaluate([], 1000, 3)


def test_evaluate_scores_sparse_affected_sets():
    truth = (ChangeSpec(100, (1, 2), 1.0),)
    sparse = _det(103, kind="sparse", affected={1, 3}, n=200)
    report = evaluate([(_result(200, [sparse]), truth)], 200, 5)
    assert report.affected_tpr == pytest.approx(0.5)
    assert report.affected_fpr == pytest.approx(1 / 3)

    dense = _det(103, kind="dense", affected={1, 2, 3, 4, 5}, n=200)
    report_d = evaluate([(_result(200, [dense]), truth)], 200, 5)
    assert report_d.affected_tpr == 0.0
    assert report_d.affected_fpr == 0.0


def test_evaluate_pools_affected_rates_over_contributing_changes():
    # Run 0 recovers two sparse changes (TPR 1 and 1/2), run 1 one (TPR 0):
    # pooled TPR is 1/2, while the rows' mean would be 3/8.
    truth = (ChangeSpec(50, (1, 2), 1.0), ChangeSpec(120, (1, 2), 1.0))
    def sparse(tau, affected):
        return _det(tau, kind="sparse", affected=affected, n=200)

    run0 = _result(200, [sparse(50, {1, 2}), sparse(120, {1, 3})])
    run1 = _result(200, [sparse(50, {3, 4})])
    report = evaluate([(run0, truth), (run1, truth)], 200, 5)
    assert [(row.seed, row.missed, row.false_alarms) for row in report.replicates] == [
        (0, 0, 0),
        (1, 1, 0),
    ]
    assert [row.tpr for row in report.replicates] == [0.75, 0.0]
    assert [row.fpr for row in report.replicates] == pytest.approx([1 / 6, 2 / 3])
    assert report.avg_missed == 0.5
    assert report.affected_tpr == pytest.approx(0.5)
    assert report.affected_fpr == pytest.approx(1 / 3)


def test_experiment_recovers_strong_small_scenario():
    spec = scenario("Aprime", model="gaussian", n=120, d=12, delta=2.0)
    assert [ch.tau for ch in spec.changes] == [72, 94, 111]
    det = DetectorConfig(method="subset", intervals=40, calib_reps=20, target_fp=0.05)
    report = run_experiment(spec, det, reps=5, rng=RandomSource(601))
    assert len(report.replicates) == 5
    assert report.avg_missed == 0.0
    assert report.avg_false_alarms == 0.0


def test_experiment_calibrates_baseline_thresholds():
    spec = scenario("Aprime", model="gaussian", n=120, d=12, delta=2.0)
    det = DetectorConfig(method="mean", intervals=40, calib_reps=20)
    report = run_experiment(spec, det, reps=3, rng=RandomSource(602))
    assert report.avg_missed == 0.0
    assert report.avg_false_alarms == 0.0
    assert all(isinstance(row.missed, int) for row in report.replicates)


def test_experiment_rejects_zero_replicates():
    spec = scenario("Aprime", n=120, d=12)
    with pytest.raises(InputDataError, match="replicate"):
        run_experiment(spec, DetectorConfig(), reps=0, rng=RandomSource(0))


def test_stronger_shifts_are_missed_less_often():
    cfg = DetectorConfig(method="subset", intervals=60, calib_reps=30, target_fp=0.05)
    weak = amoc_scenario(200, 5, 0.4, affected=(1, 2, 3, 4, 5))
    strong = amoc_scenario(200, 5, 3.0, affected=(1, 2, 3, 4, 5))
    m_weak = run_experiment(weak, cfg, reps=10, rng=RandomSource(603))
    m_strong = run_experiment(strong, cfg, reps=10, rng=RandomSource(603))
    assert m_strong.avg_missed == 0.0
    assert m_strong.avg_false_alarms == 0.0
    assert m_weak.avg_missed >= m_strong.avg_missed


def test_replicate_table_layout():
    spec = scenario("Aprime", n=120, d=12, delta=2.0)
    det = DetectorConfig(method="subset", intervals=40, calib_reps=20)
    report = run_experiment(spec, det, reps=5, rng=RandomSource(601))
    lines = replicate_table(report).splitlines()
    assert lines[0] == "seed\tmissed\tfalse_alarms\ttpr\tfpr"
    assert len(lines) == 7
    assert lines[-1].startswith("summary\t")
    assert all(len(line.split("\t")) == 5 for line in lines[:-1])


def _rows(*rows):
    return tuple(ReplicateRow(seed, *rest) for seed, rest in enumerate(rows))


# Every field of seeded n = 300 experiments: subset with and without
# post-processing, a negbin scenario with a surge, and the binweight baseline.
PINNED = (
    (
        scenario("Dprime", n=300, delta=1.5),
        DetectorConfig(intervals=50, calib_reps=20),
        3,
        701,
        MetricsReport(
            avg_missed=0.0,
            avg_false_alarms=0.0,
            affected_tpr=1.0,
            affected_fpr=0.022222222222222223,
            replicates=_rows(
                (0, 0, 1.0, 0.03333333333333333), (0, 0, 1.0, 0.0), (0, 0, 1.0, 0.03333333333333333)
            ),
        ),
    ),
    (
        scenario("Dprime", n=300, delta=1.5),
        DetectorConfig(intervals=50, calib_reps=20, run_postprocess=False),
        3,
        701,
        MetricsReport(
            avg_missed=0.0,
            avg_false_alarms=0.0,
            affected_tpr=1.0,
            affected_fpr=0.03333333333333334,
            replicates=_rows((0, 0, 1.0, 0.0), (0, 0, 1.0, 0.0), (0, 0, 1.0, 0.10000000000000002)),
        ),
    ),
    (
        scenario("Dprime", model="negbin", n=300, dp=0.2, base_p=0.8, surge=True),
        DetectorConfig(intervals=50, calib_reps=20),
        4,
        702,
        MetricsReport(
            avg_missed=1.5,
            avg_false_alarms=0.0,
            affected_tpr=1.0,
            affected_fpr=0.013636363636363637,
            replicates=_rows(
                (1, 0, 1.0, 0.025), (1, 0, 1.0, 0.022727272727272728), (1, 0, 1.0, 0.0), (3, 0, 1.0, 0.0)
            ),
        ),
    ),
    (
        scenario("Cprime", n=300, delta=1.0),
        DetectorConfig(method="binweight", intervals=50, calib_reps=20),
        4,
        703,
        MetricsReport(
            avg_missed=0.75,
            avg_false_alarms=0.0,
            affected_tpr=0.0,
            affected_fpr=0.0,
            replicates=_rows((1, 0, 0.0, 0.0), (1, 0, 0.0, 0.0), (0, 0, 0.0, 0.0), (1, 0, 0.0, 0.0)),
        ),
    ),
)


@pytest.mark.parametrize(
    "spec, detector, reps, seed, want", PINNED, ids=("subset", "subset-raw", "negbin-surge", "binweight")
)
def test_seeded_experiments_reproduce_pinned_reports(spec, detector, reps, seed, want):
    assert run_experiment(spec, detector, reps, RandomSource(seed)) == want
