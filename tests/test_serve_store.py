"""The artifact store and the size-capped LRU result cache.

Byte-identity of ``results.json``/``manifest.json`` is the dedupe
contract the serve API advertises; the traversal and manifest guards
are the tenant-isolation contract.
"""

import json
import os
import time

import pytest

from repro.measure.experiment import register_experiment, unregister_experiment
from repro.runner import CampaignPlan, ResultCache, TaskSpec, run_campaign
from repro.serve.store import ArtifactStore


def store_stub(seed=0, scale=1.0):
    return {"seed": seed, "value": scale * (seed + 1.0)}


@pytest.fixture(autouse=True)
def _register_stub():
    register_experiment("store-stub", store_stub, artifact="test", replace=True)
    yield
    unregister_experiment("store-stub")


def _task(seed, payload_hint=""):
    return TaskSpec(experiment="store-stub", kwargs=(("tag", payload_hint),), seed=seed)


def _backdate(cache, task, age_s):
    """Push an entry's mtime into the past so LRU order is testable
    without sleeping."""
    when = time.time() - age_s
    os.utime(cache.path_for(task), (when, when))


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------
def test_uncapped_cache_never_evicts(tmp_path):
    cache = ResultCache(tmp_path / "cas")
    for seed in range(10):
        cache.put(_task(seed), {"seed": seed})
    assert cache.evict() == 0
    assert len(cache) == 10
    assert cache.stats.evictions == 0


def test_invalid_cap_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(tmp_path / "cas", max_bytes=0)
    with pytest.raises(ValueError):
        ResultCache(tmp_path / "cas", max_bytes=-1)


def test_capped_cache_evicts_oldest_first(tmp_path):
    cache = ResultCache(tmp_path / "cas")
    tasks = [_task(seed) for seed in range(4)]
    for index, task in enumerate(tasks):
        cache.put(task, {"seed": task.seed})
        _backdate(cache, task, age_s=100 - index)  # task 0 is oldest
    per_entry = cache.total_bytes() // 4
    cache.max_bytes = per_entry * 2 + per_entry // 2  # room for two
    evicted = cache.evict()
    assert evicted == 2
    assert cache.stats.evictions == 2
    assert not cache.contains(tasks[0])
    assert not cache.contains(tasks[1])
    assert cache.contains(tasks[2])
    assert cache.contains(tasks[3])
    assert cache.total_bytes() <= cache.max_bytes


def test_hit_refreshes_recency(tmp_path):
    cache = ResultCache(tmp_path / "cas")
    old, newer = _task(0), _task(1)
    cache.put(old, {"seed": 0})
    cache.put(newer, {"seed": 1})
    _backdate(cache, old, age_s=100)
    _backdate(cache, newer, age_s=50)
    # Reading `old` makes it the most recently used entry...
    assert cache.get(old) == {"seed": 0}
    per_entry = cache.total_bytes() // 2
    # ...so with room for one entry, `newer` is now the LRU victim.
    assert cache.evict(max_bytes=per_entry + per_entry // 2) == 1
    assert cache.contains(old)
    assert not cache.contains(newer)


def test_put_enforces_cap_automatically(tmp_path):
    cache = ResultCache(tmp_path / "cas")
    probe = _task(0)
    cache.put(probe, {"seed": 0})
    per_entry = cache.total_bytes()
    cache.invalidate(probe)
    cache.max_bytes = 3 * per_entry + per_entry // 2
    for seed in range(8):
        cache.put(_task(seed), {"seed": seed})
        time.sleep(0.01)  # distinct mtimes
    assert len(cache) <= 3
    assert cache.total_bytes() <= cache.max_bytes
    # The survivors are the most recent stores.
    assert cache.contains(_task(7))


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
def _run_job(store, job_id, tenant="acme", seeds=(0, 1)):
    plan = CampaignPlan.from_matrix(["store-stub"], seeds=list(seeds))
    campaign = run_campaign(plan, parallel=False, cache_dir=store.cas_dir)
    store.write_spec(tenant, job_id, {"experiments": ["store-stub"]})
    artifacts = store.write_results(tenant, job_id, plan, campaign)
    return plan, campaign, artifacts


def test_write_results_artifact_set(tmp_path):
    store = ArtifactStore(tmp_path / "spool")
    _, campaign, artifacts = _run_job(store, "job-a")
    assert artifacts == ["manifest.json", "results.json", "spec.json", "summary.json"]
    results = json.loads(store.read_artifact("acme", "job-a", "results.json"))
    assert results["schema"] == 1
    assert [task["seed"] for task in results["tasks"]] == [0, 1]
    assert all(task["status"] == "ok" for task in results["tasks"])
    summary = json.loads(store.read_artifact("acme", "job-a", "summary.json"))
    assert summary["job_id"] == "job-a"
    assert summary["n_tasks"] == 2


def test_identical_specs_are_byte_identical_and_deduped(tmp_path):
    store = ArtifactStore(tmp_path / "spool")
    _, first, _ = _run_job(store, "job-a", tenant="acme")
    # A *different tenant* resubmits the identical campaign.
    _, second, _ = _run_job(store, "job-b", tenant="rival")
    assert second.summary.cache_hits == 2
    assert second.summary.executed == 0
    for name in ("results.json", "manifest.json"):
        assert store.read_artifact("acme", "job-a", name) == store.read_artifact(
            "rival", "job-b", name
        )


def test_job_dir_rejects_unsafe_components(tmp_path):
    store = ArtifactStore(tmp_path / "spool")
    for tenant, job in (("..", "job"), ("a/b", "job"), ("acme", ""), ("acme", "../x")):
        with pytest.raises(ValueError):
            store.job_dir(tenant, job)


def test_read_artifact_blocks_traversal(tmp_path):
    store = ArtifactStore(tmp_path / "spool")
    _run_job(store, "job-a")
    secret = tmp_path / "spool" / "tenants" / "rival" / "jobs" / "job-z"
    secret.mkdir(parents=True)
    (secret / "private.txt").write_text("hands off")
    assert store.read_artifact("acme", "job-a", "../../../rival/jobs/job-z/private.txt") is None
    assert store.read_artifact("acme", "job-a", "no-such-file") is None
    assert store.read_artifact("acme", "job-a", "results.json") is not None


def test_cas_fetch_requires_manifest_membership(tmp_path):
    store = ArtifactStore(tmp_path / "spool")
    plan, _, _ = _run_job(store, "job-a", tenant="acme")
    digest = plan.tasks[0].cache_key()
    assert store.read_cas_payload("acme", "job-a", digest) is not None
    # The same digest through a job that does not reference it: denied.
    store.write_spec("rival", "job-z", {})
    assert store.read_cas_payload("rival", "job-z", digest) is None


def test_cas_fetch_of_evicted_entry_is_none_not_error(tmp_path):
    store = ArtifactStore(tmp_path / "spool")
    plan, _, _ = _run_job(store, "job-a")
    digest = plan.tasks[0].cache_key()
    store.cache.invalidate(plan.tasks[0])  # stand-in for LRU eviction
    assert digest in store.manifest("acme", "job-a").values()
    assert store.read_cas_payload("acme", "job-a", digest) is None


def test_metrics_artifacts_are_listed_recursively(tmp_path):
    store = ArtifactStore(tmp_path / "spool")
    _run_job(store, "job-a")
    metrics = store.metrics_dir("acme", "job-a")
    os.makedirs(metrics, exist_ok=True)
    with open(os.path.join(metrics, "task-0.json"), "w") as handle:
        handle.write("{}")
    names = store.list_artifacts("acme", "job-a")
    assert os.path.join("metrics", "task-0.json") in names
