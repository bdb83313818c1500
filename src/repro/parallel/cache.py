"""Disk-backed, fingerprint-keyed, corruption-proof result cache.

Every expensive artifact in the statistics stack (calibrated criteria,
interpolated probability tables) is a deterministic function of a small
set of inputs: the technology card, the failure criteria, the sampling
parameters, the evaluation grid.  The cache therefore keys each stored
result by a SHA-256 fingerprint of the *complete* input payload —
change any field anywhere (a Pelgrom coefficient, a sample count, a
grid node) and the key changes, so stale results can never be served.

Files are plain JSON, human-inspectable and safe to commit.  Each file
is a sealed :mod:`repro.durable` envelope: written atomically
(temp-file + rename), carrying an embedded SHA-256 checksum of its own
body and a format-version field, and re-embedding the key payload it
was computed from.  :meth:`ResultCache.get` verifies all three before
returning — a truncated file, a torn write, a hand-edit, or a
format-version mismatch is *quarantined* to a ``<name>.corrupt-N``
sibling (counter ``cache.quarantined``) and degrades to a miss, never
to an exception or silent corruption.
"""

from __future__ import annotations

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

    The payload is canonicalised (sorted keys, no whitespace, floats
    via ``default=float`` for numpy scalars) so logically equal payloads
    always hash identically across processes and platforms.
    """
    import hashlib

    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=float
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


class ResultCache:
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

    def __init__(self, cache_dir: str | pathlib.Path) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise NotADirectoryError(
                f"cache_dir {self.cache_dir} exists and is not a directory"
            ) from None
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.cache_dir / f"{kind}-{key}.json"

    def _miss(self, kind: str, key: str, reason: str) -> None:
        self.misses += 1
        incr("cache.misses")
        _log.debug("cache.miss", kind=kind, key=key, reason=reason)

    def _quarantine(
        self, path: pathlib.Path, kind: str, key: str, reason: str
    ) -> None:
        """Move a bad entry aside and count it; reads see a miss."""
        self.quarantined += 1
        incr("cache.quarantined")
        moved = durable.quarantine(path)
        _log.warning(
            "cache.quarantined",
            kind=kind,
            key=key,
            reason=reason,
            moved_to=str(moved) if moved else None,
        )
        self._miss(kind, key, f"quarantined: {reason}")

    def get(self, kind: str, key_payload: dict) -> dict | None:
        """The stored value for ``key_payload``, or None on a miss.

        *Every* read failure — unreadable bytes, malformed JSON, a
        missing or mismatched checksum, a format-version mismatch, a
        missing value field — is a counted miss (with the bad file
        quarantined), never an exception.
        """
        key = fingerprint(key_payload)
        path = self._path(kind, key)
        if not path.exists():
            self._miss(kind, key, "absent")
            return None
        try:
            stored = durable.read_sealed(path)
        except durable.CorruptStateError as exc:
            self._quarantine(path, kind, key, str(exc))
            return None
        if stored.get("format") != _FORMAT:
            self._quarantine(
                path, kind, key,
                f"format {stored.get('format')!r} != {_FORMAT}",
            )
            return None
        if "value" not in stored:
            self._quarantine(path, kind, key, "no value field")
            return None
        if (
            stored.get("kind") != kind
            or stored.get("key") != _roundtrip(key_payload)
        ):
            # A *valid* entry for some other payload (truncated-hash
            # collision): leave it alone, it is not corrupt.
            self._miss(kind, key, "key-mismatch")
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
        path = self._path(kind, key)
        incr("cache.puts")
        _log.info("cache.put", kind=kind, key=key)
        payload = {
            "format": _FORMAT,
            "kind": kind,
            "key": _roundtrip(key_payload),
            "value": value,
        }
        return durable.write_sealed(path, payload)


def _roundtrip(payload: dict) -> dict:
    """``payload`` as it looks after a JSON round-trip.

    Stored keys are compared against freshly built ones, which may
    contain numpy scalars or tuples; normalising both sides through
    JSON makes the equality check type-exact.
    """
    return json.loads(json.dumps(payload, default=float))
