"""Tests for Algorithm 1 (training-data construction)."""
import numpy as np
import pytest

from repro.llm.model import SimulatedLLM
from repro.llm.reasoning import refine_criteria
from repro.sampling.cluster import AttrClustering
from repro.training.construct import construct_training_data, propagate_labels


def _clustering(assign, reps):
    return AttrClustering(np.array(assign), reps)


def test_propagate_labels_basic():
    cl = _clustering([0, 0, 1, 1, 2], {0: 0, 1: 2, 2: 4})
    out = propagate_labels(cl, {0: 1, 2: 0, 4: 0})
    assert out == {0: 1, 1: 1, 2: 0, 3: 0, 4: 0}


def test_propagate_skips_unlabeled_clusters():
    cl = _clustering([0, 0, 1], {0: 0, 1: 2})
    out = propagate_labels(cl, {0: 1})
    assert out == {0: 1, 1: 1}


@pytest.fixture(scope="module")
def constructed(hospital_tiny):
    llm = SimulatedLLM(seed=0)
    n = len(hospital_tiny.dirty)
    # simple 10-cluster partition with ground-truth labels on reps (module
    # tests isolate Algorithm 1 from upstream labeling quality)
    assign = np.arange(n) % 10
    reps = {c: int(np.flatnonzero(assign == c)[0]) for c in range(10)}
    rep_labels = {
        p: int(hospital_tiny.error_mask["state"].iloc[p]) for p in reps.values()
    }
    td = construct_training_data(
        llm, hospital_tiny.dirty, "state", _clustering(assign, reps), rep_labels,
        ["city", "county"],
    )
    return td, llm


def test_construct_outputs(constructed, hospital_tiny):
    td, _ = constructed
    n = len(hospital_tiny.dirty)
    assert len(td.real_positions) + td.n_evicted <= n
    assert len(td.real_positions) == len(td.real_labels)
    assert all(0 <= p < n for p in td.real_positions)


def test_construct_balances_classes(constructed):
    td, _ = constructed
    if td.n_clean > 0:
        # synthetic errors close (or cap) the class gap
        assert td.n_errors >= min(td.n_clean, sum(td.real_labels) + 1) or td.synth_rows


def test_synth_rows_have_full_context(constructed, hospital_tiny):
    td, _ = constructed
    for r in td.synth_rows[:10]:
        assert set(r) == set(hospital_tiny.dirty.columns)


def test_refined_criteria_present(constructed):
    td, _ = constructed
    kinds = {c.kind for c in td.refined_criteria}
    assert "not_missing" in kinds


def test_without_verification_skips_refinement(hospital_tiny):
    llm = SimulatedLLM(seed=0)
    n = len(hospital_tiny.dirty)
    assign = np.arange(n) % 5
    reps = {c: int(np.flatnonzero(assign == c)[0]) for c in range(5)}
    rep_labels = {p: 0 for p in reps.values()}
    td = construct_training_data(
        llm, hospital_tiny.dirty, "state", _clustering(assign, reps), rep_labels,
        ["city"], use_verification=False,
    )
    assert td.refined_criteria == []
    assert td.synth_rows == []
    assert td.n_evicted == 0


def test_construct_token_usage(constructed):
    _, llm = constructed
    assert llm.usage.by_purpose.get("contrastive", {}).get("prompt", 0) > 0
    assert "augmentation" in llm.usage.by_purpose


def test_max_synth_cap(hospital_tiny):
    llm = SimulatedLLM(seed=0)
    n = len(hospital_tiny.dirty)
    assign = np.zeros(n, dtype=int)
    td = construct_training_data(
        llm, hospital_tiny.dirty, "city", _clustering(assign, {0: 0}), {0: 0},
        [], max_synth=7,
    )
    assert len(td.synth_rows) <= 7


def verify_reference(llm, dirty, attr, clustering, rep_labels, related, verify_sample):
    """Algorithm 1's mutual verification as per-row loops over row dicts:
    (criteria before verification, kept criteria, #evicted, real positions)."""
    records = dirty.to_dict("records")
    propagated = propagate_labels(clustering, rep_labels)
    err_vals = [records[p][attr] for p, l in rep_labels.items() if l == 1]
    cln_vals = [records[p][attr] for p, l in rep_labels.items() if l == 0]
    clean_positions = [p for p, l in propagated.items() if l == 0]
    step = max(1, len(clean_positions) // verify_sample)
    clean_rows = [records[p] for p in clean_positions[::step]]
    derived = refine_criteria(llm, attr, err_vals, cln_vals, clean_rows, related)
    refined = []
    for c in derived:
        applicable = [r for r in clean_rows if c.applicable(r[attr], r)]
        if not applicable:
            continue
        acc = sum(c.evaluate(r[attr], r) for r in applicable) / len(applicable)
        if acc >= 0.5:
            refined.append(c)
    evicted = set()
    if refined:
        for p in clean_positions:
            r = records[p]
            decisive = [c for c in refined if c.applicable(r[attr], r)]
            if not decisive:
                continue
            rate = sum(c.evaluate(r[attr], r) for c in decisive) / len(decisive)
            if rate <= 0.5:
                evicted.add(p)
    return derived, refined, len(evicted), sorted(p for p in propagated if p not in evicted)


def test_verification_matches_per_row_reference(hospital_tiny):
    dirty = hospital_tiny.dirty
    n = len(dirty)
    assign = np.arange(n) % 10
    reps = {c: int(np.flatnonzero(assign == c)[0]) for c in range(10)}
    n_evicted = n_dropped = n_dependency = 0
    for attr in dirty.columns:
        rep_labels = {p: int(hospital_tiny.error_mask[attr].iloc[p]) for p in reps.values()}
        related = [b for b in dirty.columns if b != attr][:2]
        for verify_sample in (20, 400):
            args = (dirty, attr, _clustering(assign, reps), rep_labels, related)
            td = construct_training_data(SimulatedLLM(seed=0), *args, verify_sample=verify_sample)
            derived, refined, evicted, positions = verify_reference(
                SimulatedLLM(seed=0), *args, verify_sample
            )
            assert td.refined_criteria == refined, (attr, verify_sample)
            assert td.n_evicted == evicted, (attr, verify_sample)
            assert td.real_positions == positions, (attr, verify_sample)
            n_evicted += evicted
            n_dropped += len(derived) - len(refined)
            n_dependency += sum(c.kind == "dependency" for c in refined)
    assert n_evicted > 0 and n_dropped > 0 and n_dependency > 0
