"""Persistent store for async restructure jobs.

One directory holds everything a shard -- or, after a SIGKILL, its
ring successor -- needs to know about a job:

``<root>/<job_id>.json``
    the job record: status, the original request payload, progress
    fields, owner identity + heartbeat, and the final result or error.
    Written atomically (tmp + ``os.replace``), so a reader never sees
    a torn record.
``<root>/<job_id>.events.jsonl``
    append-only event log, one JSON line per beam round (plus one
    ``final`` line at termination).  SSE replay -- including the
    ``?from_round=K`` resume path -- reads this file.
``<root>/<job_id>.ckpt.json``
    the latest versioned checkpoint: JSON metadata (format version,
    program digest, machine fingerprint, search-parameter key, rounds)
    wrapping a base64 pickle of
    :class:`~repro.transform.search.SearchCheckpoint`.  Pickle is the
    right codec here: the state crosses process pools already, and the
    JSON envelope carries everything needed to *reject* a checkpoint
    (format drift, recalibrated machine, changed search parameters)
    before unpickling a stale one.

Point several shards at one shared directory and a killed shard's job
is resumable by whoever the router asks next; the store itself has no
coordination beyond atomic replaces -- ownership fencing lives in
:mod:`repro.service.jobs`.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import re
import threading
from typing import Any

__all__ = ["CHECKPOINT_VERSION", "JOBS_PREFIX", "JobStore", "job_affinity_key",
           "parse_job_path", "valid_job_id"]

#: Bump when the checkpoint payload's shape changes; a loader that sees
#: another version ignores the checkpoint (the job restarts from round
#: zero) instead of unpickling state it cannot trust.
CHECKPOINT_VERSION = 1

_JOB_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


#: URL prefix shared by the server's job routes and the router's
#: affinity forwarding.
JOBS_PREFIX = "/restructure/jobs"


def valid_job_id(job_id: str) -> bool:
    """Ids are path components; reject anything that could traverse."""
    return bool(isinstance(job_id, str) and _JOB_ID.match(job_id))


def job_affinity_key(job_id: str) -> str:
    """The ring key embedded in a job id (its program-digest prefix)."""
    return job_id.partition(".")[0]


def parse_job_path(path: str) -> tuple[str, bool] | None:
    """``/restructure/jobs/<id>[/events]`` -> ``(id, is_events)``."""
    if not path.startswith(JOBS_PREFIX + "/"):
        return None
    rest = path[len(JOBS_PREFIX) + 1:]
    if rest.endswith("/events"):
        return rest[: -len("/events")], True
    return rest, False


class JobStore:
    """Directory-backed job records, event logs, and checkpoints.

    Thread-safe within a process (one lock serializes writers); safe
    across processes for the operations the job subsystem performs:
    record writes are atomic replaces, event appends are single
    ``write`` calls of one line, and duplicate rounds from a briefly
    double-owned job are deduplicated at read time.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    # -- paths ----------------------------------------------------------
    def _path(self, job_id: str, suffix: str) -> str:
        if not valid_job_id(job_id):
            raise ValueError(f"invalid job id {job_id!r}")
        return os.path.join(self.root, f"{job_id}{suffix}")

    def record_path(self, job_id: str) -> str:
        return self._path(job_id, ".json")

    def events_path(self, job_id: str) -> str:
        return self._path(job_id, ".events.jsonl")

    def checkpoint_path(self, job_id: str) -> str:
        return self._path(job_id, ".ckpt.json")

    # -- records --------------------------------------------------------
    def _write_record(self, job_id: str, record: dict[str, Any]) -> None:
        path = self.record_path(job_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True))
        os.replace(tmp, path)

    def create(self, job_id: str, record: dict[str, Any]) -> dict[str, Any]:
        record = dict(record, job_id=job_id)
        with self._lock:
            self._write_record(job_id, record)
        return record

    def get(self, job_id: str) -> dict[str, Any] | None:
        try:
            with open(self.record_path(job_id), encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError, ValueError):
            return None

    def update(self, job_id: str, **fields: Any) -> dict[str, Any] | None:
        """Read-modify-write the record atomically (within this process)."""
        with self._lock:
            record = self.get(job_id)
            if record is None:
                return None
            record.update(fields)
            self._write_record(job_id, record)
            return record

    def list_ids(self) -> list[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")] for name in names
            if name.endswith(".json") and not name.endswith(".ckpt.json")
            and not name.endswith(".events.jsonl")
        )

    def delete(self, job_id: str) -> None:
        for path in (self.record_path(job_id), self.events_path(job_id),
                     self.checkpoint_path(job_id)):
            try:
                os.remove(path)
            except OSError:
                pass

    # -- events ---------------------------------------------------------
    def append_event(self, job_id: str, event: dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True) + "\n"
        with self._lock:
            with open(self.events_path(job_id), "a",
                      encoding="utf-8") as handle:
                handle.write(line)

    def events(self, job_id: str, from_round: int = 0) -> list[dict[str, Any]]:
        """Round events with ``round > from_round``, then any final event.

        Rounds are deduplicated (first write wins) and returned in
        ascending order even if two runners briefly interleaved appends
        during an ownership handoff -- a resumed ``?from_round=K``
        replay therefore never repeats a round.
        """
        try:
            with open(self.events_path(job_id), encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return []
        rounds: dict[int, dict[str, Any]] = {}
        final: dict[str, Any] | None = None
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail after a crash; never fatal
            if event.get("final"):
                final = final or event
            else:
                rounds.setdefault(int(event.get("round", 0)), event)
        out = [rounds[r] for r in sorted(rounds) if r > from_round]
        if final is not None:
            out.append(final)
        return out

    # -- checkpoints ----------------------------------------------------
    def save_checkpoint(self, job_id: str, *, digest: str, fingerprint: str,
                        params_key: str, rounds: int, state: Any) -> None:
        """Persist the round-``rounds`` search state (atomic replace)."""
        blob = base64.b64encode(
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        envelope = {
            "version": CHECKPOINT_VERSION,
            "job_id": job_id,
            "digest": digest,
            "fingerprint": fingerprint,
            "params_key": params_key,
            "rounds": rounds,
            "state": blob,
        }
        path = self.checkpoint_path(job_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(envelope, sort_keys=True))
        os.replace(tmp, path)

    def load_checkpoint(self, job_id: str, *, digest: str, fingerprint: str,
                        params_key: str) -> tuple[int, Any] | None:
        """``(rounds, state)`` if a *compatible* checkpoint exists.

        Compatibility is strict: format version, program digest,
        machine cost-table fingerprint, and the search-parameter key
        must all match, or the checkpoint is ignored and the job
        restarts from scratch (correct, just slower).
        """
        try:
            with open(self.checkpoint_path(job_id),
                      encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, json.JSONDecodeError, ValueError):
            return None
        if (envelope.get("version") != CHECKPOINT_VERSION
                or envelope.get("digest") != digest
                or envelope.get("fingerprint") != fingerprint
                or envelope.get("params_key") != params_key):
            return None
        try:
            state = pickle.loads(base64.b64decode(envelope["state"]))
        except Exception:  # noqa: BLE001 -- corrupt blob == no checkpoint
            return None
        return int(envelope.get("rounds", 0)), state

    def drop_checkpoint(self, job_id: str) -> None:
        try:
            os.remove(self.checkpoint_path(job_id))
        except OSError:
            pass
