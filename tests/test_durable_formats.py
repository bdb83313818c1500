"""The on-disk formats are pinned.

Two halves: the exact bytes each durable writer produces for a fixed
payload (SHA-256 of the file, so any change to field order, indent,
format number or seal shows up), and literal files in every format the
readers still accept, which must keep loading.
"""

from __future__ import annotations

import hashlib
import types

from repro.checkpoint import CheckpointStore
from repro.parallel.cache import ResultCache
from repro.service import ledger as ledger_module
from repro.service.ledger import JobLedger

CACHE_KEY = {"grid": [-0.1, 0.0, 0.1], "seed": 7, "tech": "70nm"}
CACHE_VALUE = {"log10_probability": {"any": [-6.5, -4.25, -2.0]}, "n": 3}
CACHE_NAME = "failure-table-cb7750fbc479163043eb12d7.json"
CKPT_FINGERPRINT = "0123456789abcdef01234567"
CKPT_COMPLETED = {0: {"x": 1.5}, 3: {"x": -2.0}}
LEDGER_TS = 1_700_000_000.0

CACHE_TEXT = (
    '{\n  "format": 2,\n  "kind": "failure-table",\n  "key": {\n'
    '    "grid": [\n      -0.1,\n      0.0,\n      0.1\n    ],\n'
    '    "seed": 7,\n    "tech": "70nm"\n  },\n  "value": {\n'
    '    "log10_probability": {\n      "any": [\n        -6.5,\n'
    '        -4.25,\n        -2.0\n      ]\n    },\n    "n": 3\n  },\n'
    '  "sha256": "38dae37c9406b1dfe5c449883ef687c6'
    'a0da3fe33ffc3ac549a5e442a083ba25"\n}'
)
CKPT_TEXT = (
    '{\n  "format": 1,\n  "kind": "lot",\n'
    '  "fingerprint": "0123456789abcdef01234567",\n  "completed": {\n'
    '    "0": {\n      "x": 1.5\n    },\n    "3": {\n      "x": -2.0\n'
    '    }\n  },\n'
    '  "sha256": "a7bfd9b5efba141eff9d5d2ec7b02fe1'
    'c73abcf846773a0cc43bc26da656ab4f"\n}'
)
LEDGER_LINES = [
    '{"created_at": 1699999999.5, "format": 1, "job_id": "job-a", '
    '"sha256": "6394a7a19abdc7c4604b117c96817a8d'
    '724d6617c6c8850610f0b515d02fa927", '
    '"spec": {"kind": "table", "seed": 1}, "submissions": 1, '
    '"ts": 1700000000.0, "type": "accepted"}',
    '{"format": 1, "job_id": "job-a", '
    '"sha256": "593abe87a23a6066a5207ba9c4f78446'
    'a2392e462dd42ec6328541a176307e05", '
    '"ts": 1700000000.0, "type": "started"}',
    '{"error": "DeadlineExceeded: budget", '
    '"error_code": "deadline-exceeded", "format": 1, "job_id": "job-a", '
    '"sha256": "13080f1667c6a4ff3a8a0518a87fb2b3'
    'f339518484cac29329be2e4df19a8838", '
    '"ts": 1700000000.0, "type": "failed"}',
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_ledger(tmp_path, monkeypatch) -> JobLedger:
    monkeypatch.setattr(
        ledger_module, "time", types.SimpleNamespace(time=lambda: LEDGER_TS)
    )
    ledger = JobLedger(tmp_path)
    ledger.record(
        "accepted", "job-a", spec={"kind": "table", "seed": 1},
        submissions=1, created_at=1_699_999_999.5,
    )
    ledger.record("started", "job-a")
    ledger.record(
        "failed", "job-a", error="DeadlineExceeded: budget",
        error_code="deadline-exceeded",
    )
    return ledger


class TestWrittenBytes:
    def test_cache_entry(self, tmp_path):
        path = ResultCache(tmp_path).put("failure-table", CACHE_KEY, CACHE_VALUE)
        assert path.name == CACHE_NAME
        assert path.read_text() == CACHE_TEXT
        assert sha256(path) == (
            "eec962b9fa8cc2edcfaf8235c9651eac0a808b380cba64158887e9ae4294e265"
        )

    def test_checkpoint(self, tmp_path):
        path = CheckpointStore(tmp_path).save(
            "lot", CKPT_FINGERPRINT, CKPT_COMPLETED
        )
        assert path.name == f"lot-{CKPT_FINGERPRINT}.ckpt.json"
        assert sha256(path) == (
            "58af1ca5567c5f84528508481d568987b6151d47b0141bf3ca315e9d0678ae2e"
        )

    def test_ledger(self, tmp_path, monkeypatch):
        ledger = write_ledger(tmp_path, monkeypatch)
        assert ledger.path.name == "jobs-ledger.jsonl"
        assert ledger.path.read_text() == "".join(
            line + "\n" for line in LEDGER_LINES
        )
        assert sha256(ledger.path) == (
            "8a368053893042843e615ebf220bbdd85fa6b7c50cacce3d4cf1862b4bc483cc"
        )


class TestOlderFilesLoad:
    def test_cache_entry(self, tmp_path):
        (tmp_path / CACHE_NAME).write_text(CACHE_TEXT)
        cache = ResultCache(tmp_path)
        assert cache.get("failure-table", CACHE_KEY) == CACHE_VALUE
        assert (cache.hits, cache.quarantined) == (1, 0)

    def test_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path("lot", CKPT_FINGERPRINT).write_text(CKPT_TEXT)
        assert store.load("lot", CKPT_FINGERPRINT) == CKPT_COMPLETED

    def test_ledger(self, tmp_path):
        ledger = JobLedger(tmp_path)
        ledger.path.write_text("\n".join(LEDGER_LINES[:2]) + "\n")
        states, skipped = ledger.replay()
        assert skipped == 0
        assert states["job-a"] == {
            "status": "started",
            "spec": {"kind": "table", "seed": 1},
            "submissions": 1,
            "created_at": 1_699_999_999.5,
        }
        ledger.path.write_text("".join(line + "\n" for line in LEDGER_LINES))
        states, skipped = ledger.replay()
        assert skipped == 0
        assert states["job-a"]["status"] == "failed"
