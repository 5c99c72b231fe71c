"""Persistent run registry: the control plane's source of truth.

One study submission becomes one *run* with a lifecycle modelled on
operational measurement platforms (RIPE Atlas measurements, Iris):

.. code-block:: text

    created -> queued -> running -> done
                  ^          |----> failed    --(resume)--> queued
                  |          '----> cancelled --(resume)--> queued
                  '--(adopted on restart)-- running/queued

Each run owns a directory under ``<state_dir>/runs/<run_id>/`` holding

* ``run.json`` — this registry's record, written atomically
  (:mod:`repro.core.fsio`) on every transition, so a killed server never
  leaves a torn record;
* ``checkpoints/`` — the existing shard-granular
  :class:`~repro.dataflow.datalake.CheckpointStore` tier (plus its
  ``manifest.json``), which is what makes adopted and resumed runs cheap:
  the scheduler always executes with ``resume=True``;
* ``results.json`` and ``figures/*.txt`` — written once the run reaches
  ``done``.

The run id *is* the :func:`~repro.core.config.config_hash` of the
submitted study config: resubmitting an identical config is idempotent
(you get the same run back), and two different configs can never collide
into one checkpoint namespace.

Registry methods are not thread-safe by design: the service mutates it
only from the event-loop thread (worker threads hand results back via
the loop), and the CLI/tests use it single-threaded.  Timestamps come
from an injectable ``now`` callable — wall time in production, a counter
in tests — so registry behaviour never *depends* on the clock.
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import fsio
from repro.service.errors import (
    RunRecordError,
    StateTransitionError,
    UnknownRunError,
)

RECORD_VERSION = 1

# -- lifecycle states ---------------------------------------------------

CREATED = "created"
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (CREATED, QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: Allowed transitions; everything else raises StateTransitionError.
#: ``running -> queued`` is restart adoption: a server that died mid-run
#: re-queues the run and the checkpoint tier supplies the finished part.
TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    CREATED: (QUEUED,),
    QUEUED: (RUNNING, CANCELLED),
    RUNNING: (DONE, FAILED, CANCELLED, QUEUED),
    DONE: (),
    FAILED: (QUEUED,),
    CANCELLED: (QUEUED,),
}

#: States a run can be resumed from (via ``POST .../resume``).
RESUMABLE = (FAILED, CANCELLED)

#: States that mean "the run needs a scheduler" after a restart.
#: ``created`` appears only in state dirs written by older registry
#: versions (submission now persists straight into ``queued``); it is
#: promoted on adoption so such runs cannot wedge.
INCOMPLETE = (CREATED, QUEUED, RUNNING)

#: Terminal states (no scheduler interest unless resumed).
TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass
class RunRecord:
    """One run's control-plane state (the ``run.json`` schema)."""

    run_id: str
    seq: int
    config: dict
    config_hash: str
    state: str = CREATED
    cancel_requested: bool = False
    error: str = ""
    #: Times the scheduler started executing this run (resumes included).
    attempts: int = 0
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["version"] = RECORD_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        try:
            data = dict(payload)
            data.pop("version", None)
            record = cls(**data)
        except TypeError as exc:
            raise RunRecordError(f"malformed run record: {exc}") from exc
        if record.state not in STATES:
            raise RunRecordError(
                f"run {record.run_id}: unknown state {record.state!r}"
            )
        return record


def load_run_record(path: Path) -> RunRecord:
    """Parse one persisted ``run.json``; every corruption mode — missing
    file, non-UTF-8 bytes, truncated/invalid JSON, a non-object payload,
    unknown fields, bad state — raises :class:`RunRecordError` and
    nothing else."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise RunRecordError(
            f"unreadable run record {path}: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise RunRecordError(
            f"malformed run record {path}: expected a JSON object, "
            f"got {type(payload).__name__}"
        )
    return RunRecord.from_dict(payload)


class RunRegistry:
    """Atomic-JSON run records under ``<state_dir>/runs/``."""

    def __init__(
        self,
        state_dir: Path,
        # Referenced, never called at import: operational metadata only
        # (ordering uses ``seq``); tests inject a deterministic counter.
        now: Callable[[], float] = time.time,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.runs_dir = self.state_dir / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self._now = now
        self._records: Dict[str, RunRecord] = {}
        #: Run directories whose record could not be parsed at startup,
        #: mapped to the reason (surfaced by ops tooling and chaos).
        self.skipped: Dict[str, str] = {}
        self._load_existing()

    # -- paths ---------------------------------------------------------

    def run_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id

    def record_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "run.json"

    def checkpoint_root(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "checkpoints"

    def results_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "results.json"

    def figures_dir(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "figures"

    def manifest_path(self, run_id: str) -> Path:
        """The execution manifest the checkpoint tier maintains."""
        record = self.get(run_id)
        return (
            self.checkpoint_root(run_id)
            / f"config={record.config_hash}"
            / "manifest.json"
        )

    # -- persistence ---------------------------------------------------

    def _load_existing(self) -> None:
        """Rehydrate every persisted record (server restart).

        A corrupt ``run.json`` — torn write, truncation, bit rot, or a
        schema the record parser rejects — must not take the whole
        control plane down with it: the record is skipped with a warning
        and remembered in :attr:`skipped`, so ``repro serve`` starts and
        every *healthy* run is served.  The damaged run's directory is
        left untouched for the operator (its checkpoints are still
        valid; resubmitting the same config rewrites the record and
        recovers the run).
        """
        for record_file in sorted(self.runs_dir.glob("*/run.json")):
            try:
                record = load_run_record(record_file)
            except RunRecordError as exc:
                self.skipped[record_file.parent.name] = str(exc)
                warnings.warn(
                    f"skipping unreadable run record: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            self._records[record.run_id] = record
        for directory in (self.runs_dir, *sorted(self.runs_dir.glob("*"))):
            fsio.sweep_staging_files(directory)

    def _persist(self, record: RunRecord) -> None:
        directory = self.run_dir(record.run_id)
        directory.mkdir(parents=True, exist_ok=True)
        path = self.record_path(record.run_id)
        fsio.write_and_replace(
            path,
            json.dumps(
                record.to_dict(), indent=2, sort_keys=True
            ).encode("utf-8"),
            surface=fsio.SURFACE_REGISTRY,
            tmp=path.with_suffix(".json.tmp"),
        )

    # -- API -----------------------------------------------------------

    def __contains__(self, run_id: str) -> bool:
        return run_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, run_id: str) -> RunRecord:
        record = self._records.get(run_id)
        if record is None:
            raise UnknownRunError(run_id)
        return record

    def create(
        self, run_id: str, config: dict, *, state: str = CREATED
    ) -> RunRecord:
        """Register a new run (id = config hash) with a single persist.

        ``state`` may be ``created`` or ``queued``; the service submits
        directly into ``queued`` so there is no crash window between
        "record exists" and "scheduler will ever pick it up".
        """
        if state not in (CREATED, QUEUED):
            raise StateTransitionError(run_id, "(new)", state)
        if run_id in self._records:
            raise StateTransitionError(
                run_id, self._records[run_id].state, state
            )
        record = RunRecord(
            run_id=run_id,
            seq=1 + max(
                (existing.seq for existing in self._records.values()),
                default=0,
            ),
            config=dict(config),
            config_hash=run_id,
            state=state,
            created_at=self._now(),
        )
        self._records[run_id] = record
        self._persist(record)
        return record

    def transition(self, run_id: str, target: str, **updates: object) -> RunRecord:
        """Move a run to ``target`` (validated) and persist atomically.

        ``updates`` may set ``error`` and ``cancel_requested``; the
        timestamps and attempt counter move with the state: entering
        ``running`` stamps ``started_at`` and bumps ``attempts``,
        entering a terminal state stamps ``finished_at``, re-entering
        ``queued`` clears the finish/error fields.
        """
        record = self.get(run_id)
        if target not in TRANSITIONS.get(record.state, ()):
            raise StateTransitionError(run_id, record.state, target)
        record.state = target
        if "error" in updates:
            record.error = str(updates["error"])
        if "cancel_requested" in updates:
            record.cancel_requested = bool(updates["cancel_requested"])
        if target == RUNNING:
            record.started_at = self._now()
            record.attempts += 1
        elif target in TERMINAL:
            record.finished_at = self._now()
            # A terminal record must not advertise a stale cancel flag:
            # a cancel that raced a natural finish otherwise leaves a
            # ``done`` run reporting cancel_requested=true forever.
            record.cancel_requested = False
        elif target == QUEUED:
            record.finished_at = None
            record.error = ""
            record.cancel_requested = False
        self._persist(record)
        return record

    def request_cancel(self, run_id: str) -> RunRecord:
        """Flag a running run for cancellation (state moves when it drains)."""
        record = self.get(run_id)
        record.cancel_requested = True
        self._persist(record)
        return record

    def list(self) -> List[RunRecord]:
        """All runs in submission order (stable pagination key)."""
        return sorted(self._records.values(), key=lambda r: r.seq)

    def adopt_incomplete(self) -> List[RunRecord]:
        """Re-queue runs a dead server left in flight (restart adoption).

        Runs found ``running`` were interrupted mid-execution: their
        checkpoints are intact (the store writes atomically), so they
        re-enter ``queued`` and the next execution resumes from the
        completed prefix.  Runs found ``queued`` simply re-enter the
        scheduler, and runs stranded in ``created`` by an older registry
        version are promoted to ``queued`` so they cannot wedge.
        Returns the adopted records in submission order.
        """
        adopted: List[RunRecord] = []
        for record in self.list():
            if record.state in (CREATED, RUNNING):
                adopted.append(self.transition(record.run_id, QUEUED))
            elif record.state == QUEUED:
                adopted.append(record)
        return adopted


@dataclass(frozen=True)
class RunPage:
    """One page of runs plus the cursor bookkeeping the API returns."""

    runs: List[RunRecord]
    total: int
    offset: int
    limit: int

    @property
    def next_offset(self) -> Optional[int]:
        after = self.offset + len(self.runs)
        return after if after < self.total else None


def paginate(records: List[RunRecord], offset: int, limit: int) -> RunPage:
    """Slice submission-ordered records into a stable page."""
    if offset < 0 or limit < 1:
        raise ValueError("offset must be >= 0 and limit >= 1")
    return RunPage(
        runs=records[offset:offset + limit],
        total=len(records),
        offset=offset,
        limit=limit,
    )
