"""Corruption-proof persistence: atomic, checksummed JSON envelopes.

Every durable artifact in the stack (result-cache entries, which hold
the criteria and tables; checkpoints; the service's job ledger) goes
through this module, which supplies the three guarantees a killed
process or a torn disk write must not violate:

* **atomicity** — :func:`atomic_write_text` writes to a unique
  temporary sibling and renames it into place, so a reader never sees
  a half-written file under the final name;
* **integrity** — :func:`seal` embeds a SHA-256 digest of the
  payload's canonical JSON form; :func:`verify` (and
  :func:`read_sealed`) recompute it, so truncation, bit rot, or a
  hand-edit is *detected*, not silently interpolated into an analysis;
* **containment** — :func:`quarantine` moves a bad file to a
  ``<name>.corrupt-N`` sibling so it stops matching reads but stays on
  disk for a post-mortem.

Two primitives build on these: :class:`SealedDir`, the sealed entry
files of the result cache and the checkpoint store, read one way; and
the job ledger's sealed, fsync'd log (:mod:`repro.service.ledger`).

The chaos harness hooks in here: when a
:class:`~repro.faults.FaultPlan` is armed, :func:`atomic_write_text`
asks it whether this write should be torn (truncated mid-payload) or
corrupted (payload mangled), which is how the quarantine path is
exercised deterministically in CI.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Callable

from repro import faults
from repro.observability.log import get_logger
from repro.observability.metrics import incr

_log = get_logger("durable")

#: The embedded-digest field name inside a sealed payload.
SHA_FIELD = "sha256"


class CorruptStateError(ValueError):
    """A durable file failed parsing, shape, or checksum verification."""


def canonical_json(payload: dict) -> str:
    """The canonical (sorted, compact) JSON text a digest is taken over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=float
    )


def digest(payload: dict) -> str:
    """SHA-256 hex digest of ``payload`` (ignoring any embedded digest)."""
    body = {k: v for k, v in payload.items() if k != SHA_FIELD}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def seal(payload: dict) -> dict:
    """``payload`` with its digest embedded under :data:`SHA_FIELD`."""
    return {**payload, SHA_FIELD: digest(payload)}


def verify(payload: dict) -> None:
    """Raise :class:`CorruptStateError` unless the embedded digest holds."""
    if not isinstance(payload, dict):
        raise CorruptStateError(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    stored = payload.get(SHA_FIELD)
    if stored is None:
        raise CorruptStateError("no embedded checksum")
    actual = digest(payload)
    if stored != actual:
        raise CorruptStateError(
            f"checksum mismatch (stored {stored[:12]}..., "
            f"actual {actual[:12]}...)"
        )


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` via a unique temp file and rename.

    The temporary sibling carries the writing PID, so two processes
    sharing a cache directory never clobber each other's in-flight
    writes.  An armed fault plan may deterministically tear (truncate)
    or corrupt (mangle) the payload before the rename — the rename
    itself always happens, because the failure mode under test is a
    *bad* file appearing under the final name, not a missing one.
    """
    path = pathlib.Path(path)
    plan = faults.active_plan()
    if plan is not None:
        action = plan.write_action(path)
        if action == "torn_write":
            text = text[: max(1, len(text) // 2)]
            incr("faults.torn_writes")
        elif action == "corrupt_write":
            cut = max(1, len(text) // 2)
            text = text[:cut] + "\x00CORRUPT\x00" + text[cut:]
            incr("faults.corrupt_writes")
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text)
    tmp.replace(path)
    return path


def write_sealed(path: str | pathlib.Path, payload: dict) -> pathlib.Path:
    """Seal ``payload`` and write it atomically as indented JSON."""
    return atomic_write_text(
        path, json.dumps(seal(payload), indent=2, default=float)
    )


def read_sealed(
    path: str | pathlib.Path,
    formats: tuple | None = None,
    fields: tuple = (),
) -> dict:
    """Read and verify one sealed entry file; raise on any fault.

    ``formats`` lists the accepted ``format`` values (None: any).  Every
    name in ``fields`` must be present.  A missing file raises
    :class:`FileNotFoundError`; anything else wrong raises
    :class:`CorruptStateError`.
    """
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise CorruptStateError(f"unreadable or malformed: {exc}") from exc
    version = payload.get("format") if isinstance(payload, dict) else None
    if formats is not None and version not in formats:
        raise CorruptStateError(f"format {version!r} is not one of {formats}")
    verify(payload)
    missing = [name for name in fields if name not in payload]
    if missing:
        raise CorruptStateError(f"missing field(s) {missing}")
    return payload


def ensure_dir(path: str | pathlib.Path) -> pathlib.Path:
    """Create directory ``path`` if missing; raise if it is a file."""
    path = pathlib.Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise NotADirectoryError(f"{path} is not a directory") from None
    return path


class SealedDir:
    """A directory of sealed entry files, all read one way.

    Subclasses set the class attributes and read through
    :meth:`read_entry`; :attr:`quarantined` counts the entries this
    instance moved aside.
    """

    #: Prefix of the ``<scope>.quarantined`` counter and log event.
    scope = "durable"
    #: The ``format`` values and the fields a valid entry carries.
    formats: tuple = ()
    fields: tuple = ()

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = ensure_dir(directory)
        self.quarantined = 0

    def read_entry(
        self, path: pathlib.Path, matches: Callable[[dict], bool]
    ) -> dict | None:
        """The valid entry at ``path`` if ``matches`` accepts it.

        A missing file is ``None``.  An unreadable, corrupt or
        wrong-format one is quarantined, counted and logged, and is
        ``None``.  A valid entry that ``matches`` rejects belongs to
        another key: ``None``, and the file stays where it is.
        """
        try:
            entry = read_sealed(path, self.formats, fields=self.fields)
        except FileNotFoundError:
            return None
        except CorruptStateError as exc:
            self.quarantined += 1
            incr(f"{self.scope}.quarantined")
            _log.warning(
                f"{self.scope}.quarantined", path=str(path),
                reason=str(exc), moved_to=str(quarantine(path)),
            )
            return None
        return entry if matches(entry) else None


def quarantine(path: str | pathlib.Path) -> pathlib.Path | None:
    """Move a bad file to the first free ``<name>.corrupt-N`` sibling.

    Returns the quarantine path, or ``None`` when the file vanished
    (another process already dealt with it — not an error).
    """
    path = pathlib.Path(path)
    counter = 1
    while True:
        target = path.with_name(f"{path.name}.corrupt-{counter}")
        if not target.exists():
            break
        counter += 1
    try:
        path.replace(target)
    except OSError:
        return None
    return target
