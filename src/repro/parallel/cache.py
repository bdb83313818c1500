"""Disk-backed, fingerprint-keyed, corruption-proof result cache.

Every expensive artifact in the statistics stack (calibrated criteria,
interpolated probability tables) is a deterministic function of a small
set of inputs: the technology card, the failure criteria, the sampling
parameters, the evaluation grid.  The cache therefore keys each stored
result by a SHA-256 fingerprint of the *complete* input payload —
change any field anywhere (a Pelgrom coefficient, a sample count, a
grid node) and the key changes, so stale results can never be served.

Files are plain JSON, human-inspectable and safe to commit.  Each one
is a sealed entry of a :class:`repro.durable.SealedDir` (atomic write,
embedded checksum, format number) that re-embeds the key payload it
was computed from; reads follow that class's policy, so a damaged
entry is quarantined (counter ``cache.quarantined``) and degrades to
a miss, never to an exception or a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro import durable
from repro.observability.log import get_logger
from repro.observability.metrics import incr

_log = get_logger("parallel.cache")

#: Format version written into every cache file.  Version 2 added the
#: embedded checksum; version-1 files (pre-checksum) are treated as
#: unverifiable and quarantined on read.
_FORMAT = 2


def fingerprint(payload: dict) -> str:
    """A stable hex digest of a JSON-serialisable key payload.

    The payload is canonicalised (:func:`repro.durable.canonical_json`)
    so logically equal payloads always hash identically across
    processes and platforms.
    """
    return hashlib.sha256(
        durable.canonical_json(payload).encode()
    ).hexdigest()[:24]


class ResultCache(durable.SealedDir):
    """JSON result store under one directory, keyed by fingerprints.

    Args:
        cache_dir: directory to store cache files in (created if
            missing).  Safe to share between runs and processes —
            writes are atomic (write-to-temp then rename) and reads
            verify checksums before trusting anything.

    Attributes:
        hits / misses: lookup counters for this instance (diagnostic;
            the warm/cold cache tests assert on them).
        quarantined: corrupt entries moved aside by this instance.
    """

    scope = "cache"
    formats = (_FORMAT,)
    fields = ("value",)

    def __init__(self, cache_dir: str | pathlib.Path) -> None:
        super().__init__(cache_dir)
        self.hits = 0
        self.misses = 0

    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.directory / f"{kind}-{key}.json"

    def get(self, kind: str, key_payload: dict) -> dict | None:
        """The stored value for ``key_payload``, or None on a miss.

        An absent entry, a damaged one (quarantined), and a valid
        entry for another payload (a truncated-hash collision, left in
        place) are all counted misses, never exceptions.
        """
        key = fingerprint(key_payload)
        stored = self.read_entry(
            self._path(kind, key),
            lambda entry: entry.get("kind") == kind
            and entry.get("key") == _roundtrip(key_payload),
        )
        if stored is None:
            self.misses += 1
            incr("cache.misses")
            _log.debug("cache.miss", kind=kind, key=key)
            return None
        self.hits += 1
        incr("cache.hits")
        _log.info("cache.hit", kind=kind, key=key)
        return stored["value"]

    def put(self, kind: str, key_payload: dict, value: dict) -> pathlib.Path:
        """Store ``value`` under ``key_payload``; returns the file path.

        The write is atomic and the envelope sealed (see module doc);
        a torn or corrupted write therefore surfaces on the *next read*
        as a quarantine + miss, never as a wrong result.
        """
        key = fingerprint(key_payload)
        incr("cache.puts")
        _log.info("cache.put", kind=kind, key=key)
        payload = {
            "format": _FORMAT,
            "kind": kind,
            "key": _roundtrip(key_payload),
            "value": value,
        }
        return durable.write_sealed(self._path(kind, key), payload)


def _roundtrip(payload: dict) -> dict:
    """``payload`` as it looks after a JSON round-trip.

    Stored keys are compared against freshly built ones, which may
    contain numpy scalars or tuples; normalising both sides through
    JSON makes the equality check type-exact.
    """
    return json.loads(json.dumps(payload, default=float))
