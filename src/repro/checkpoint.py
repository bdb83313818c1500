"""Checkpoint/resume for long grid builds and lot simulations.

A :class:`CheckpointStore` persists *partially completed* index->result
maps, keyed by the same kind of content fingerprint the result cache
uses — so a killed fig10 sweep or lot-scale Monte-Carlo campaign
re-run with the same parameters resumes from the last flush instead of
starting over, and a re-run with *different* parameters can never pick
up stale cells (the fingerprint differs, the checkpoint is ignored).

Checkpoint files are sealed entries of a
:class:`repro.durable.SealedDir` and read with its policy: a corrupt
or truncated checkpoint is quarantined and treated as absent, never
raised.

Because every task in this stack derives its randomness from its own
key (die seed, (corner, bias) seed), computing only the missing indices
yields bit-identical results to a fresh full run — resume is exact,
not approximate.  :func:`resumable_map` is the one call every build
makes: a single batch without a store, load / compute missing in
flush-sized slices / clear with one.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Sequence

from repro import cancellation, durable
from repro.observability.log import get_logger
from repro.observability.metrics import incr

_log = get_logger("checkpoint")

#: Schema tag written into every checkpoint envelope.
_FORMAT = 1

#: Default flush cadence: completed results per checkpoint flush.
FLUSH_EVERY = 8


class CheckpointStore(durable.SealedDir):
    """Fingerprint-keyed partial-result files under one directory.

    Args:
        directory: where checkpoint files live (created if missing).
        every: flush cadence — completed results are persisted after
            every ``every`` new completions (and once at the end of
            each :meth:`resumable_map` slice).
    """

    scope = "checkpoint"
    formats = (_FORMAT,)
    fields = ("completed",)

    def __init__(
        self, directory: str | pathlib.Path, every: int = FLUSH_EVERY
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        super().__init__(directory)
        self.every = int(every)

    def path(self, kind: str, fingerprint: str) -> pathlib.Path:
        """The checkpoint file for one (kind, fingerprint) build."""
        return self.directory / f"{kind}-{fingerprint}.ckpt.json"

    def load(self, kind: str, fingerprint: str) -> dict[int, object]:
        """Completed ``index -> encoded-result`` entries, or ``{}``.

        A corrupt or truncated file is quarantined
        (``<name>.corrupt-N``); it and a valid file for another
        (kind, fingerprint) read as empty — a bad checkpoint costs a
        recompute, never an exception or a wrong result.
        """
        path = self.path(kind, fingerprint)
        payload = self.read_entry(
            path,
            lambda entry: entry.get("kind") == kind
            and entry.get("fingerprint") == fingerprint,
        )
        if payload is None:
            return {}
        completed = {int(i): v for i, v in payload["completed"].items()}
        incr("checkpoint.resumed_cells", len(completed))
        _log.info(
            "checkpoint.resumed", kind=kind, path=str(path),
            completed=len(completed),
        )
        return completed

    def save(
        self, kind: str, fingerprint: str, completed: dict[int, object]
    ) -> pathlib.Path:
        """Atomically persist the completed map (full rewrite)."""
        incr("checkpoint.flushes")
        return durable.write_sealed(
            self.path(kind, fingerprint),
            {
                "format": _FORMAT,
                "kind": kind,
                "fingerprint": fingerprint,
                "completed": {str(i): v for i, v in completed.items()},
            },
        )

    def clear(self, kind: str, fingerprint: str) -> None:
        """Remove the checkpoint (the build it served is complete)."""
        try:
            self.path(kind, fingerprint).unlink()
        except FileNotFoundError:
            pass

    def resumable_map(
        self,
        kind: str,
        fingerprint: str,
        n: int,
        compute: Callable[[Sequence[int]], Sequence[object]],
        encode: Callable[[object], object],
        decode: Callable[[object], object],
    ) -> list:
        """Compute ``n`` indexed results with periodic flushes.

        ``compute`` maps a list of missing indices to their results and
        must be a pure function of them for resume to be exact;
        ``encode`` / ``decode`` round-trip one result through JSON.
        Completed entries of the (``kind``, ``fingerprint``) build are
        decoded instead of recomputed; the rest are computed in slices
        of :attr:`every` with a flush after each; the checkpoint is
        cleared once every index is present.

        Slice boundaries are the build's cancellation safe points: the
        ambient :mod:`repro.cancellation` token (if any) is polled
        before each slice, so a cancelled or deadline-expired job stops
        with its last completed slice already flushed — resuming the
        same fingerprint later recomputes nothing that was persisted.
        """
        completed = self.load(kind, fingerprint)
        results: list = [None] * n
        for index, raw in completed.items():
            if 0 <= index < n:
                results[index] = decode(raw)
        missing = [i for i in range(n) if results[i] is None]
        for start in range(0, len(missing), self.every):
            cancellation.check_active()
            chunk = missing[start : start + self.every]
            for index, value in zip(chunk, compute(chunk)):
                results[index] = value
                completed[index] = encode(value)
            incr("checkpoint.completed_cells", len(chunk))
            self.save(kind, fingerprint, completed)
        self.clear(kind, fingerprint)
        return results


def resumable_map(
    store: CheckpointStore | None,
    kind: str,
    fingerprint: str,
    n: int,
    compute: Callable[[Sequence[int]], Sequence[object]],
    encode: Callable[[object], object],
    decode: Callable[[object], object],
) -> list:
    """``compute`` over ``range(n)``: one call without a ``store``, else
    :meth:`CheckpointStore.resumable_map` (same results either way)."""
    if store is None:
        return list(compute(range(n)))
    return store.resumable_map(kind, fingerprint, n, compute, encode, decode)
