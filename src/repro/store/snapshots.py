"""LSN-named snapshot files: the one checkpoint primitive.

LMS checkpoints (``checkpoint-<lsn>.json``) and read-model checkpoints
(``readmodel-<lsn>.json``) live next to the WAL segments; the name
carries the highest LSN the file covers.  :class:`SnapshotFiles` owns
their naming, listing, keep-N pruning, the durable write
(:func:`write_atomic`: temp file, fsync, :func:`os.replace`, directory
fsync — the file is on disk before a caller deletes the segments it
covers) and the load rule: the newest file that reads back *and*
leaves no gap before the oldest surviving segment, else a
:class:`~repro.core.errors.StoreError` naming the missing LSN range.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.core.errors import AssessmentError, StoreError
from repro.store.journal import segment_files, segment_first_lsn

__all__ = [
    "LMS_PREFIX",
    "READMODEL_PREFIX",
    "SnapshotFiles",
    "check_covered",
    "write_atomic",
]

#: LMS checkpoints (:class:`~repro.store.checkpoint.Checkpointer`)
LMS_PREFIX = "checkpoint-"
#: read-model checkpoints (:func:`~repro.readmodel.checkpoint.save_readmodel`)
READMODEL_PREFIX = "readmodel-"

_SUFFIX = ".json"

#: what a loader raises on a torn, truncated or foreign file
_UNREADABLE = (AssessmentError, LookupError, TypeError, ValueError, OSError)


def write_atomic(path: "str | Path", text: str) -> Path:
    """Write ``text`` to ``path`` durably: temp + fsync + replace +
    directory fsync.  On failure the temp file is removed and any
    previous ``path`` is untouched."""
    path = Path(path)
    directory = path.parent
    handle, tmp_name = tempfile.mkstemp(
        dir=str(directory), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # the rename itself is durable only once the directory entry is
    directory_fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return path


def check_covered(wal_dir: "str | Path", covered_lsn: int, why: str) -> None:
    """Raise :class:`StoreError` unless the surviving WAL segments
    continue right after ``covered_lsn``; ``why`` ends the message."""
    segments = segment_files(wal_dir)
    if not segments:
        return
    first = segment_first_lsn(segments[0])
    if first > covered_lsn + 1:
        raise StoreError(
            f"records {covered_lsn + 1}..{first - 1} were retired from "
            f"the WAL (oldest surviving segment is {segments[0].name}) "
            f"and {why}"
        )


class SnapshotFiles:
    """The ``<prefix><lsn:020d>.json`` files of one directory."""

    def __init__(self, directory: "str | Path", prefix: str) -> None:
        self.directory = Path(directory)
        self.prefix = prefix

    def path(self, lsn: int) -> Path:
        """Where the snapshot covering ``lsn`` lives."""
        return self.directory / f"{self.prefix}{int(lsn):020d}{_SUFFIX}"

    def lsn(self, path: "str | Path") -> int:
        """The LSN a snapshot file's name carries."""
        name = Path(path).name
        try:
            return int(name[len(self.prefix):-len(_SUFFIX)])
        except ValueError:
            raise StoreError(
                f"not a {self.prefix}*{_SUFFIX} name: {name}"
            ) from None

    def list(self) -> List[Path]:
        """Every snapshot file, oldest (lowest LSN) first."""
        if not self.directory.is_dir():
            return []
        found = [
            path
            for path in self.directory.iterdir()
            if path.name.startswith(self.prefix)
            and path.name.endswith(_SUFFIX)
        ]
        return sorted(found, key=self.lsn)

    def newest(self, at_or_below: Optional[int] = None) -> Optional[Path]:
        """The newest file (optionally at or below an LSN), or None."""
        for path in reversed(self.list()):
            if at_or_below is None or self.lsn(path) <= at_or_below:
                return path
        return None

    def write(self, lsn: int, text: str) -> Path:
        """Durably write the snapshot covering ``lsn``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        return write_atomic(self.path(lsn), text)

    def prune(self, keep: int) -> List[Path]:
        """Delete all but the newest ``keep`` files; returns the deleted."""
        if keep < 1:
            raise StoreError(f"must keep at least 1 checkpoint, got {keep}")
        pruned = self.list()[:-keep]
        for path in pruned:
            path.unlink()
        return pruned

    def load(
        self,
        loader: Callable[[Path], object],
        *,
        wal_dir: "str | Path | None" = None,
        at_or_below: Optional[int] = None,
    ) -> Tuple[Optional[Path], object]:
        """``(path, loader(path))`` for the newest file that loads and
        leaves no gap before the oldest segment in ``wal_dir`` (default:
        this directory); ``(None, None)`` when the WAL alone is complete.

        Files the loader cannot read are passed over for older ones; a
        loader may also return None to pass over a file it declines.
        Raises :class:`StoreError` naming the missing LSN range when
        neither any file nor an empty start reaches the oldest segment.
        """
        found: Tuple[Optional[Path], object] = (None, None)
        for path in reversed(self.list()):
            if at_or_below is not None and self.lsn(path) > at_or_below:
                continue
            try:
                loaded = loader(path)
            except _UNREADABLE:
                obs.count("store.snapshots.unreadable")
                continue
            if loaded is not None:
                found = (path, loaded)
                break
        check_covered(
            self.directory if wal_dir is None else wal_dir,
            self.lsn(found[0]) if found[0] is not None else 0,
            f"no intact {self.prefix}*{_SUFFIX} file covers them",
        )
        return found
