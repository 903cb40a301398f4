"""Read-model checkpoints, full rebuilds, and time-travel queries.

A read-model checkpoint is the fold state of :class:`~repro.readmodel.
model.ReadModel` at one LSN, written as ``readmodel-<lsn>.json`` next
to the WAL segments (prefix-distinct from both ``wal-*`` segments and
the LMS's ``checkpoint-*`` snapshots, so neither reader picks up the
other's files).  Restoring one and replaying the journal suffix above
its stamp reproduces the live fold exactly — which powers the two query
modes this module adds on top of the streaming service:

* :func:`rebuild` — fold the **entire** journal from LSN 0, ignoring
  checkpoints.  This is the differential oracle: its analysis must be
  bit-identical to the serving tier's live engine over the same
  history.
* :func:`as_of` — "the cohort as of LSN/time T": restore the nearest
  checkpoint at or below the target, then replay the bounded suffix up
  to it.  Cost is O(checkpoint + suffix), never O(full history).

Time targets rely on the journal's per-directory timestamp monotonicity
(one LMS clock per shard): replay stops at the first *timed* event past
the target; untimed catalog events (offer/register) carry no clock and
apply whenever encountered below the LSN bound.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple

from repro import obs
from repro.core.errors import StoreError
from repro.readmodel.model import ReadModel
from repro.store.events import event_timestamp
from repro.store.journal import read_records
from repro.store.snapshots import READMODEL_PREFIX, SnapshotFiles, check_covered

__all__ = [
    "readmodel_files",
    "latest_readmodel_checkpoint",
    "save_readmodel",
    "load_readmodel",
    "resume_readmodel",
    "rebuild",
    "as_of",
]


def _files(directory: "str | Path") -> SnapshotFiles:
    return SnapshotFiles(directory, READMODEL_PREFIX)


def readmodel_files(directory: "str | Path") -> List[Path]:
    """Every read-model checkpoint in the directory, oldest first."""
    return _files(directory).list()


def latest_readmodel_checkpoint(
    directory: "str | Path", at_or_below: Optional[int] = None
) -> Optional[Path]:
    """The newest checkpoint (optionally at or below an LSN), or None."""
    return _files(directory).newest(at_or_below)


def save_readmodel(
    model: ReadModel, directory: "str | Path", *, keep: int = 2
) -> Path:
    """Write the model's snapshot durably; prune old checkpoints.

    ``keep`` newest files are retained (mirroring the LMS checkpointer's
    retention) so one corrupt file never strands the follower.
    """
    files = _files(directory)
    path = files.write(
        model.applied_lsn,
        json.dumps(model.snapshot(), separators=(",", ":")),
    )
    files.prune(keep)
    obs.count("readmodel.checkpoints")
    return path


def load_readmodel(path: "str | Path") -> ReadModel:
    """Restore a read model from one checkpoint file."""
    with Path(path).open("r", encoding="utf-8") as stream:
        document = json.load(stream)
    model = ReadModel.from_snapshot(document)
    named = _files(Path(path).parent).lsn(path)
    if model.applied_lsn != named:
        raise StoreError(
            f"checkpoint {Path(path).name} claims lsn {named} but holds "
            f"{model.applied_lsn}"
        )
    return model


def resume_readmodel(
    directory: "str | Path",
    lsn: Optional[int] = None,
    ts: Optional[float] = None,
) -> ReadModel:
    """The newest intact checkpoint the surviving WAL continues, or an
    empty model when the WAL starts at LSN 1; :class:`StoreError` names
    the records nothing covers.

    ``lsn`` bounds the checkpoint's LSN; ``ts`` picks by the stamp
    *inside* the snapshot — its last timed event must be at or below T.
    """

    def load(path: Path) -> Optional[ReadModel]:
        model = load_readmodel(path)
        return model if ts is None or model.last_event_ts <= ts else None

    _, model = _files(directory).load(load, at_or_below=lsn)
    return model if model is not None else ReadModel()


def rebuild(directory: "str | Path") -> ReadModel:
    """Fold the full journal from LSN 0, ignoring every checkpoint.

    The differential-oracle path: over an unretired journal this
    reproduces exactly the state the streaming fold reached.  Raises
    :class:`StoreError` when compaction already retired the journal's
    head — a rebuild from 0 would silently miss history, so it refuses.
    """
    check_covered(
        directory, 0,
        "a rebuild from lsn 0 cannot see them; use a read-model "
        "checkpoint (as_of) instead",
    )
    model = ReadModel()
    with obs.span("readmodel.rebuild"):
        model.apply_all(read_records(directory))
    return model


def as_of(
    directory: "str | Path",
    lsn: Optional[int] = None,
    ts: Optional[float] = None,
) -> Tuple[ReadModel, int]:
    """The read model as of an LSN or timestamp: nearest checkpoint
    plus a bounded suffix replay.

    Exactly one of ``lsn``/``ts`` must be given.  Returns the model and
    the number of suffix records replayed on top of the checkpoint (the
    measure of how bounded the query was).  LSN targets are per-shard
    coordinates; timestamp targets are meaningful across shards (one
    wall clock) and are how the cluster surface time-travels.
    """
    if (lsn is None) == (ts is None):
        raise StoreError("as_of needs exactly one of lsn= or ts=")
    model = resume_readmodel(directory, lsn=lsn, ts=ts)
    replayed = 0
    with obs.span("readmodel.as_of"):
        for record in read_records(directory, start_lsn=model.applied_lsn):
            if lsn is not None and record.lsn > lsn:
                break
            if ts is not None:
                stamp = event_timestamp(record.type, record.data)
                if stamp > ts:
                    break
            if model.apply(record):
                replayed += 1
    return model, replayed
