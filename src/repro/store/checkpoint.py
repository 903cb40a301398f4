"""Checkpointing and WAL compaction.

A write-ahead log grows without bound; the checkpoint engine bounds it.
:meth:`Checkpointer.checkpoint` writes a consistent LMS snapshot
(:func:`repro.lms.persistence.snapshot_text`, which includes in-flight
sittings — a checkpoint must never truncate a learner mid-exam) stamped
with the highest LSN it covers, seals the active segment, and then
**retires** every sealed segment whose records are all ``<=`` that LSN.
Recovery from the newest snapshot plus the surviving suffix reproduces
the exact live state (:func:`repro.store.recovery.recover`), so deleting
covered history is safe by construction — the compaction property tests
replay from every checkpoint a run produced and assert convergence.

The LSN is read and the snapshot collected in one critical section on
:attr:`Lms.lock` — the same lock every mutator appends under — so a
snapshot covers *exactly* the records up to its stamp, never a torn
prefix of a mutation.  The file is written after the lock is released,
durably (:func:`repro.store.snapshots.write_atomic`), and only then are
segments retired: a crash mid-write leaves the old checkpoint and every
segment it needs.

Snapshots are ``checkpoint-<lsn>.json`` files next to the WAL segments
(:class:`repro.store.snapshots.SnapshotFiles`); the newest ``keep``
(default 2) are retained, and recovery falls back to the older one when
the newest does not read back.

Compaction is wire-format agnostic: segments are retired by the LSN in
their *name*, so after a mid-stream upgrade (JSONL v1 tail sealed,
binary v2 segments growing) the first checkpoint that covers the old
v1 files retires them exactly as it would same-format ones — the
natural path for aging a v1 directory out entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.core.errors import StoreError
from repro.store.snapshots import LMS_PREFIX, SnapshotFiles

__all__ = [
    "Checkpointer",
    "CheckpointResult",
    "checkpoint_files",
    "latest_checkpoint",
]


def checkpoint_files(directory: "str | Path") -> List[Path]:
    """Every checkpoint snapshot in the directory, oldest first."""
    return SnapshotFiles(directory, LMS_PREFIX).list()


def latest_checkpoint(directory: "str | Path") -> Optional[Path]:
    """The newest checkpoint snapshot, or None when none exists."""
    return SnapshotFiles(directory, LMS_PREFIX).newest()


@dataclass
class CheckpointResult:
    """One checkpoint pass: what was written and what it freed."""

    #: the snapshot file written
    path: Path
    #: highest journal LSN the snapshot covers
    covered_lsn: int
    #: WAL segments deleted because the snapshot covers them fully
    retired_segments: List[Path] = field(default_factory=list)
    #: older snapshot files pruned by the retention bound
    pruned_checkpoints: List[Path] = field(default_factory=list)


class Checkpointer:
    """Periodic/on-demand snapshot-and-compact for one LMS + journal."""

    def __init__(
        self,
        lms,
        journal,
        directory: "str | Path | None" = None,
        *,
        keep: int = 2,
    ) -> None:
        if keep < 1:
            raise StoreError(f"must keep at least 1 checkpoint, got {keep}")
        self.lms = lms
        self.journal = journal
        self.files = SnapshotFiles(
            directory if directory is not None else journal.directory,
            LMS_PREFIX,
        )
        self.keep = int(keep)
        self.checkpoints_taken = 0
        #: highest LSN any checkpoint this instance wrote has covered
        self.last_covered_lsn = 0

    def checkpoint(self) -> CheckpointResult:
        """Snapshot now, then retire covered segments and old snapshots."""
        from repro.lms.persistence import snapshot_text

        with obs.span("store.checkpoint"):
            # one critical section: the LSN stamp and the state snapshot
            # see the same instant, so the snapshot covers exactly the
            # records up to `covered`
            with self.lms.lock:
                covered = self.journal.last_lsn
                text = snapshot_text(self.lms, wal_lsn=covered)
            # the disk write runs outside the lock; nothing below may
            # delete history until it has returned durable
            path = self.files.write(covered, text)
            # seal the active segment so the *next* checkpoint can
            # retire everything written up to this one
            self.journal.rotate()
            retired = self.journal.retire_covered(covered)
            pruned = self.files.prune(self.keep)
            if pruned:
                obs.count("store.checkpoints.pruned", len(pruned))
            self.checkpoints_taken += 1
            self.last_covered_lsn = max(self.last_covered_lsn, covered)
        obs.count("store.checkpoints")
        return CheckpointResult(
            path=path,
            covered_lsn=covered,
            retired_segments=retired,
            pruned_checkpoints=pruned,
        )

    def maybe_checkpoint(
        self, min_new_records: int = 1
    ) -> Optional[CheckpointResult]:
        """Checkpoint only if the WAL grew enough since the last one.

        Embedders (the exam server's checkpoint timer) call this on a
        cadence; a quiet LMS then never churns identical snapshots.
        """
        if self.journal.last_lsn - self.last_covered_lsn < min_new_records:
            return None
        return self.checkpoint()
