"""Tests for the chaos harness and the durable-state layer.

Covers the fault-plan semantics (deterministic budgets, task/write
targeting, the environment hook), the sealed-envelope invariants
(atomic writes, checksum verification, quarantine), and the
checkpoint store (resume, corruption containment, exact clearing).
"""

import json

import pytest

from repro import checkpoint as checkpoint_mod
from repro import durable, faults
from repro.faults import ENV_VAR, FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def disarm_faults():
    """No test leaks a process-wide fault plan into its neighbours."""
    yield
    faults.clear()


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike")

    def test_write_kind_needs_pattern(self):
        with pytest.raises(ValueError, match="path_pattern"):
            FaultSpec(kind="torn_write")

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind="worker_crash", times=0)


class TestFaultPlan:
    def test_budget_consumed_exactly(self):
        plan = FaultPlan([FaultSpec(kind="worker_crash", times=2)])
        assert plan.task_action(0)["kind"] == "worker_crash"
        assert plan.task_action(1)["kind"] == "worker_crash"
        assert plan.task_action(2) is None
        assert plan.exhausted

    def test_task_index_targeting(self):
        plan = FaultPlan([FaultSpec(kind="task_slow", task_index=3)])
        assert plan.task_action(0) is None
        assert plan.task_action(3)["kind"] == "task_slow"
        assert plan.task_action(3) is None  # budget spent

    def test_write_action_matches_name_and_path(self, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec(kind="torn_write", path_pattern="criteria-*.json"),
                FaultSpec(kind="corrupt_write", path_pattern="*/deep/*"),
            ]
        )
        assert plan.write_action(tmp_path / "criteria-abc.json") == "torn_write"
        assert plan.write_action(tmp_path / "criteria-abc.json") is None
        assert (
            plan.write_action(tmp_path / "deep" / "x.json") == "corrupt_write"
        )
        assert plan.write_action(tmp_path / "unrelated.json") is None

    def test_json_roundtrip(self):
        plan = FaultPlan(
            [
                FaultSpec(kind="worker_crash", task_index=1, times=2),
                FaultSpec(kind="torn_write", path_pattern="*.json"),
                FaultSpec(kind="service_crash", site="ledger.started"),
            ]
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.specs == plan.specs

    def test_service_action_matches_site_and_consumes_budget(self):
        plan = FaultPlan(
            [
                FaultSpec(kind="service_crash", site="ledger.*", times=2),
                FaultSpec(kind="reject_burst", site="admission"),
            ]
        )
        # Site patterns are fnmatch globs over the lifecycle site name.
        assert plan.service_action("service_crash", "admission") is None
        hit = plan.service_action("service_crash", "ledger.accepted")
        assert hit is not None and hit.kind == "service_crash"
        assert plan.service_action("service_crash", "ledger.started") is not None
        assert plan.service_action("service_crash", "ledger.started") is None
        assert plan.service_action("reject_burst", "admission") is not None
        assert plan.service_action("reject_burst", "admission") is None
        assert plan.exhausted

    def test_service_action_site_none_matches_everywhere(self):
        plan = FaultPlan([FaultSpec(kind="job_deadline", seconds=0.5)])
        hit = plan.service_action("job_deadline", "job.start")
        assert hit is not None and hit.seconds == 0.5

    def test_service_action_rejects_non_service_kinds(self):
        plan = FaultPlan([FaultSpec(kind="worker_crash")])
        with pytest.raises(ValueError, match="not a service fault kind"):
            plan.service_action("worker_crash", "admission")

    def test_dict_specs_accepted(self):
        plan = FaultPlan([{"kind": "task_slow", "seconds": 0.01}])
        assert plan.specs[0] == FaultSpec(kind="task_slow", seconds=0.01)


class TestPlanFromEnv:
    def test_unset_means_no_plan(self):
        assert faults.plan_from_env({}) is None

    def test_inline_json(self):
        env = {ENV_VAR: '{"specs": [{"kind": "worker_crash"}]}'}
        plan = faults.plan_from_env(env)
        assert plan.specs == [FaultSpec(kind="worker_crash")]

    def test_file_reference(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text('{"specs": [{"kind": "task_slow"}]}')
        plan = faults.plan_from_env({ENV_VAR: f"@{plan_file}"})
        assert plan.specs[0].kind == "task_slow"

    def test_malformed_plan_fails_loudly(self):
        with pytest.raises(ValueError, match=ENV_VAR):
            faults.plan_from_env({ENV_VAR: "{not json"})
        with pytest.raises(ValueError):
            faults.plan_from_env(
                {ENV_VAR: '{"specs": [{"kind": "meteor_strike"}]}'}
            )

    def test_inline_crash_raises_not_exits(self):
        with pytest.raises(faults.FaultInjected):
            faults.apply_task_action(
                {"kind": "worker_crash", "exit_code": 13}, in_worker=False
            )


class TestDurable:
    def test_seal_verify_roundtrip(self):
        sealed = durable.seal({"a": 1, "b": [1.5, 2.5]})
        durable.verify(sealed)  # does not raise
        durable.verify(json.loads(json.dumps(sealed)))  # survives JSON

    def test_verify_detects_tamper(self):
        sealed = durable.seal({"a": 1})
        sealed["a"] = 2
        with pytest.raises(durable.CorruptStateError, match="mismatch"):
            durable.verify(sealed)
        with pytest.raises(durable.CorruptStateError, match="checksum"):
            durable.verify({"a": 1})

    def test_write_read_sealed_roundtrip(self, tmp_path):
        path = tmp_path / "artifact.json"
        durable.write_sealed(path, {"format": 1, "value": 42})
        payload = durable.read_sealed(path)
        assert payload["value"] == 42
        assert not list(tmp_path.glob("*.tmp.*"))  # rename cleaned up

    def test_read_sealed_rejects_truncation(self, tmp_path):
        path = tmp_path / "artifact.json"
        durable.write_sealed(path, {"value": list(range(50))})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(durable.CorruptStateError):
            durable.read_sealed(path)

    def test_read_sealed_rejects_edited_and_unsealed_files(self, tmp_path):
        path = tmp_path / "artifact.json"
        durable.write_sealed(path, {"format": 2, "value": 0.05})
        path.write_text(path.read_text().replace("0.05", "0.5"))
        with pytest.raises(durable.CorruptStateError, match="mismatch"):
            durable.read_sealed(path)
        # A file written before the seal existed has no digest to verify.
        path.write_text('{"format": 1, "value": 0.05}')
        with pytest.raises(durable.CorruptStateError, match="checksum"):
            durable.read_sealed(path, formats=(1, 2))

    def test_quarantine_numbering(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("junk")
        assert durable.quarantine(path).name == "bad.json.corrupt-1"
        path.write_text("more junk")
        assert durable.quarantine(path).name == "bad.json.corrupt-2"
        assert durable.quarantine(path) is None  # already gone

    def test_torn_write_injection(self, tmp_path):
        faults.install(
            FaultPlan([FaultSpec(kind="torn_write", path_pattern="*.json")])
        )
        path = tmp_path / "artifact.json"
        durable.write_sealed(path, {"value": list(range(100))})
        with pytest.raises(durable.CorruptStateError):
            durable.read_sealed(path)
        # Budget spent: the rewrite lands intact.
        durable.write_sealed(path, {"value": list(range(100))})
        assert durable.read_sealed(path)["value"] == list(range(100))

    def test_corrupt_write_injection(self, tmp_path):
        faults.install(
            FaultPlan(
                [FaultSpec(kind="corrupt_write", path_pattern="*.json")]
            )
        )
        path = tmp_path / "artifact.json"
        durable.write_sealed(path, {"value": 7})
        with pytest.raises(durable.CorruptStateError):
            durable.read_sealed(path)


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = checkpoint_mod.CheckpointStore(tmp_path)
        store.save("lot", "abc123", {0: {"x": 1.5}, 3: {"x": -2.0}})
        assert store.load("lot", "abc123") == {0: {"x": 1.5}, 3: {"x": -2.0}}

    def test_absent_is_empty(self, tmp_path):
        store = checkpoint_mod.CheckpointStore(tmp_path)
        assert store.load("lot", "nothing") == {}

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        store = checkpoint_mod.CheckpointStore(tmp_path)
        path = store.save("lot", "abc123", {0: 1})
        path.write_text("{torn")
        assert store.load("lot", "abc123") == {}
        assert list(tmp_path.glob("*.corrupt-1"))

    def test_fingerprint_mismatch_ignored(self, tmp_path):
        store = checkpoint_mod.CheckpointStore(tmp_path)
        path = store.save("lot", "abc123", {0: 1})
        # Same file served under a different fingerprint: refused.
        path.rename(store.path("lot", "zzz999"))
        assert store.load("lot", "zzz999") == {}

    def test_clear_is_idempotent(self, tmp_path):
        store = checkpoint_mod.CheckpointStore(tmp_path)
        store.save("lot", "abc123", {0: 1})
        store.clear("lot", "abc123")
        store.clear("lot", "abc123")
        assert store.load("lot", "abc123") == {}

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            checkpoint_mod.CheckpointStore(tmp_path, every=0)
        occupied = tmp_path / "file"
        occupied.write_text("x")
        with pytest.raises(NotADirectoryError):
            checkpoint_mod.CheckpointStore(occupied)

    def test_resumable_map_computes_and_clears(self, tmp_path):
        store = checkpoint_mod.CheckpointStore(tmp_path, every=2)
        seen = []

        def compute(indices):
            seen.append(list(indices))
            return [i * i for i in indices]

        results = store.resumable_map(
            "squares", "fp1", 5, compute, lambda v: v, lambda v: v
        )
        assert results == [0, 1, 4, 9, 16]
        assert seen == [[0, 1], [2, 3], [4]]  # flush-sized slices
        assert not store.path("squares", "fp1").exists()  # cleared

    def test_resumable_map_resumes_without_recompute(self, tmp_path):
        store = checkpoint_mod.CheckpointStore(tmp_path, every=2)
        store.save("squares", "fp1", {0: 0, 1: 1, 3: 9})
        computed = []

        def compute(indices):
            computed.extend(indices)
            return [i * i for i in indices]

        results = store.resumable_map(
            "squares", "fp1", 5, compute, lambda v: v, lambda v: v
        )
        assert results == [0, 1, 4, 9, 16]
        assert computed == [2, 4]  # only the missing cells ran

    def test_resumable_map_stops_at_slice_boundary_when_cancelled(
        self, tmp_path
    ):
        from repro import cancellation

        store = checkpoint_mod.CheckpointStore(tmp_path, every=2)
        token = cancellation.CancelToken()
        computed = []

        def compute(indices):
            computed.extend(indices)
            token.cancel()  # operator cancels mid-build
            return [i * i for i in indices]

        with cancellation.active(token):
            with pytest.raises(cancellation.JobCancelled):
                store.resumable_map(
                    "squares", "fp9", 6, compute, lambda v: v, lambda v: v
                )
        # Exactly one slice ran, and its flush is durable: a retry
        # resumes from the checkpoint instead of restarting.
        assert computed == [0, 1]
        assert store.load("squares", "fp9") == {0: 0, 1: 1}

        fresh_token = cancellation.CancelToken()
        with cancellation.active(fresh_token):
            results = store.resumable_map(
                "squares", "fp9", 6,
                lambda idx: [i * i for i in idx],
                lambda v: v, lambda v: v,
            )
        assert results == [0, 1, 4, 9, 16, 25]
