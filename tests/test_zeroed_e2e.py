"""End-to-end ZeroED tests on a tiny hospital instance (session-cached)."""
import dataclasses

import pytest

import repro.core.zeroed as zeroed
from repro.core.zeroed import STAGES, ZeroEDConfig, ZeroEDRunner, ablation_configs
from repro.datasets.registry import load_dataset
from repro.exp.tables import SHUFFLE_PARTITIONS
from repro.training.classifier import STEPS


def test_mask_shape(hospital_result, hospital_tiny):
    assert hospital_result.mask.shape == hospital_tiny.dirty.shape
    assert set(hospital_result.mask.columns) == set(hospital_tiny.attrs)


def test_detection_quality(hospital_result):
    m = hospital_result.metrics
    assert m["f1"] > 0.5, f"tiny-hospital F1 too low: {m}"
    assert m["prec"] > 0.5


def test_token_usage_accounted(hospital_result):
    u = hospital_result.usage
    assert u.total_tokens > 0
    for purpose in ("criteria", "guideline", "labeling", "contrastive", "augmentation"):
        assert purpose in u.by_purpose, f"missing LLM purpose {purpose}"


def test_diagnostics_populated(hospital_result, hospital_tiny):
    d = hospital_result.diagnostics
    assert set(d["n_criteria"]) == set(hospital_tiny.attrs)
    assert all(v >= 1 for v in d["n_criteria"].values())
    assert sum(d["n_labeled"].values()) > 0


def test_rerun_uses_stage_cache_and_is_stable(hospital_runner, hospital_result, monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(zeroed, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    for name in ("construct_training_data", "train_predict_all"):
        monkeypatch.setattr(zeroed, name, counted(name))
    res2 = hospital_runner.run(ZeroEDConfig(label_rate=0.1))
    assert calls == []
    assert res2.mask.equals(hospital_result.mask)
    assert res2.metrics == hospital_result.metrics
    # cached stages re-charge the same usage for a faithful cost report
    assert res2.usage.total_tokens == hospital_result.usage.total_tokens
    assert res2.usage.by_purpose == hospital_result.usage.by_purpose


def test_ablation_configs_flags():
    cfgs = ablation_configs(ZeroEDConfig())
    assert not cfgs["w/o. Guid."].use_guidelines
    assert not cfgs["w/o. Crit."].use_criteria
    assert not cfgs["w/o. Corr."].use_correlated
    assert not cfgs["w/o. Veri."].use_verification
    assert cfgs["ZeroED"] == ZeroEDConfig()


@pytest.mark.parametrize("flag", ["use_guidelines", "use_criteria", "use_correlated", "use_verification"])
def test_ablations_run(hospital_runner, flag):
    cfg = ZeroEDConfig(label_rate=0.1, **{flag: False})
    res = hospital_runner.run(cfg)
    assert 0.0 <= res.metrics["f1"] <= 1.0


def test_without_criteria_feature_dim_shrinks(hospital_runner):
    feats_with = hospital_runner._stage("features", ZeroEDConfig(label_rate=0.1))
    feats_without = hospital_runner._stage(
        "features", ZeroEDConfig(label_rate=0.1, use_criteria=False)
    )
    a = hospital_runner.ds.attrs[0]
    assert feats_without["ctx"].full_dim(a) < feats_with["ctx"].full_dim(a)


def test_without_correlated_no_related(hospital_runner):
    feats = hospital_runner._stage(
        "features", ZeroEDConfig(label_rate=0.1, use_correlated=False)
    )
    assert all(v == [] for v in feats["ctx"].related.values())


def test_sampling_methods_run(hospital_runner):
    for method in ("agc", "random"):
        res = hospital_runner.run(ZeroEDConfig(label_rate=0.1, sampling=method))
        assert 0.0 <= res.metrics["f1"] <= 1.0


def test_weak_model_underperforms(hospital_runner, hospital_result):
    weak = hospital_runner.run(ZeroEDConfig(label_rate=0.1, model="gpt-4o-mini"))
    assert weak.metrics["f1"] < hospital_result.metrics["f1"]


def _assert_same_result(warm, cold):
    assert warm.mask.equals(cold.mask)
    assert warm.metrics == cold.metrics
    wu, cu = warm.usage, cold.usage
    assert (wu.prompt_tokens, wu.completion_tokens, wu.calls, wu.by_purpose) == (
        cu.prompt_tokens, cu.completion_tokens, cu.calls, cu.by_purpose
    )


# One changed value per ZeroEDConfig field, away from the session config.
WARM_CASES = [
    ("model", "gpt-4o-mini"),
    ("label_rate", 0.2),
    ("sampling", "agc"),
    ("use_guidelines", False),
    ("use_criteria", False),
    ("use_correlated", False),
    ("use_verification", False),
    ("seed", 1),
]


def test_warm_cases_cover_every_config_field():
    assert sorted(f for f, _ in WARM_CASES) == sorted(f.name for f in dataclasses.fields(ZeroEDConfig))


def test_every_config_field_is_declared_by_a_stage():
    declared = {f for fields, _upstream in STAGES.values() for f in fields}
    assert {f.name for f in dataclasses.fields(ZeroEDConfig)} <= declared


@pytest.mark.parametrize("field, value", WARM_CASES)
def test_warm_runner_matches_cold_when_field_changes(
    spark, hospital_tiny, hospital_runner, hospital_result, field, value
):
    cfg = dataclasses.replace(ZeroEDConfig(label_rate=0.1), **{field: value})
    _assert_same_result(hospital_runner.run(cfg), ZeroEDRunner(spark, hospital_tiny).run(cfg))


def test_stage_sees_only_what_it_declares(spark, hospital_tiny, monkeypatch):
    runner = ZeroEDRunner(spark, hospital_tiny)
    monkeypatch.setitem(STAGES, "samples", ((), ()))
    with pytest.raises(AttributeError):
        runner._stage("samples", ZeroEDConfig())
    monkeypatch.setitem(STAGES, "related", (("use_correlated",), ()))
    with pytest.raises(KeyError, match="undeclared stage 'stats'"):
        runner._stage("related", ZeroEDConfig())


def test_detector_convergence_recorded(hospital_result, hospital_tiny):
    det = hospital_result.diagnostics["detector"]
    assert set(det) == set(hospital_tiny.attrs)
    for fit in det.values():
        if fit["steps"]:
            assert fit["steps"] == STEPS
            assert 0.0 <= fit["loss"] < float("inf")
        else:
            assert fit["loss"] is None


def test_stats_order_and_usage_independent_of_partitioning(spark, flights_tiny):
    """Prompts render the stats dictionaries in order, so the order (and with
    it the token count) must not depend on the input's partitioning or the
    shuffle's."""
    previous = spark.conf.get("spark.sql.shuffle.partitions")
    seen = []
    try:
        for parts, shuffle in ((1, 1), (4, 8)):
            spark.conf.set("spark.sql.shuffle.partitions", str(shuffle))
            runner = ZeroEDRunner(spark, flights_tiny)
            runner.sdf = runner.sdf.repartition(parts)
            stats = runner.stats
            order = (
                [(a, list(vc.items())) for a, vc in stats.value_counts.items()],
                [(k, list(j.items())) for k, j in stats.joint.items()],
            )
            u = runner.run(ZeroEDConfig()).usage
            seen.append((order, (u.prompt_tokens, u.completion_tokens, u.calls, u.by_purpose)))
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", previous)
    assert seen[0] == seen[1]


def test_no_spark_job_after_stats(spark, flights_tiny):
    """Past the statistics pass, a run is driver work: featurization reads the
    driver-held table, so no stage may start a Spark job (or a Python worker)."""
    runner = ZeroEDRunner(spark, flights_tiny)
    runner.stats
    sc = spark.sparkContext
    group = "zeroed-after-stats"
    sc.setJobGroup(group, "a ZeroED run past its stats stage", False)
    try:
        runner.run(ZeroEDConfig())
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []


def _degenerate_hospital(n: int):
    """Hospital plus an all-missing, a constant and a near-unique attribute."""
    ds = load_dataset("hospital", n=n, seed=0)
    extra = {
        "all_missing": [""] * n,
        "constant": ["x"] * n,
        "near_unique": [f"u{i}" for i in range(n - 1)] + ["u0"],
    }
    return dataclasses.replace(
        ds, dirty=ds.dirty.assign(**extra), clean=ds.clean.assign(**extra), error_types=None
    )


def test_degenerate_attributes_run_every_config(spark):
    """Every Table IV config and AGC sampling complete on one runner. The
    degenerate attributes' flags are not asserted: the detector can flag a
    constant attribute's cells through its related blocks."""
    spark.conf.set("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
    ds = _degenerate_hospital(80)
    runner = ZeroEDRunner(spark, ds)
    base = ZeroEDConfig(label_rate=0.1)
    configs = {**ablation_configs(base), "AGC": dataclasses.replace(base, sampling="agc")}
    for name, cfg in configs.items():
        res = runner.run(cfg)
        assert res.mask.shape == ds.dirty.shape, name
        assert list(res.mask.columns) == ds.attrs, name
        assert set(res.diagnostics["n_labeled"]) == set(ds.attrs), name


def test_three_row_table_runs(spark):
    spark.conf.set("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
    ds = _degenerate_hospital(80)
    ds = dataclasses.replace(ds, dirty=ds.dirty.head(3), clean=ds.clean.head(3))
    res = ZeroEDRunner(spark, ds).run(ZeroEDConfig(label_rate=0.1))
    assert res.mask.shape == (3, len(ds.attrs))
    assert set(res.diagnostics["n_labeled"]) == set(ds.attrs)
