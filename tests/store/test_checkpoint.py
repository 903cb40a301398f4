"""Checkpointing and compaction (repro.store.checkpoint).

The load-bearing property: compaction bounds disk while recovery from
*any* checkpoint plus the surviving WAL suffix reproduces the live
state.
"""

import os
import stat
import threading
from pathlib import Path

import pytest

from conftest import enroll_cohort, journaled_lms

from repro.core.errors import StoreError
from repro.lms.learners import Learner
from repro.store import (
    Checkpointer,
    Journal,
    checkpoint_files,
    latest_checkpoint,
    recover,
    state_fingerprint,
)
from repro.store.journal import segment_files, segment_first_lsn


def drive_sittings(lms, clock, learner_ids, answers=("A", "B", "A")):
    for learner_id in learner_ids:
        clock.advance(1.0)
        lms.start_exam(learner_id, "ex1")
        for index, answer in enumerate(answers, start=1):
            clock.advance(2.0)
            lms.answer(learner_id, "ex1", f"q{index}", answer)
        clock.advance(1.0)
        lms.submit(learner_id, "ex1")


class TestCheckpoint:
    def test_checkpoint_names_carry_the_covered_lsn(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy"])
        result = Checkpointer(lms, journal).checkpoint()
        assert result.covered_lsn == journal.last_lsn
        assert f"{result.covered_lsn:020d}" in result.path.name
        assert latest_checkpoint(tmp_path) == result.path
        journal.close()

    def test_recovery_prefers_the_newest_checkpoint(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob"])
        checkpointer = Checkpointer(lms, journal, keep=5)
        first = checkpointer.checkpoint()
        drive_sittings(lms, clock, ["amy"])
        second = checkpointer.checkpoint()
        report = recover(tmp_path)
        assert report.checkpoint_path == second.path
        assert report.checkpoint_lsn > first.covered_lsn
        journal.close()

    def test_maybe_checkpoint_skips_a_quiet_lms(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        checkpointer = Checkpointer(lms, journal)
        assert checkpointer.checkpoint() is not None
        # nothing new in the WAL: no snapshot churn
        assert checkpointer.maybe_checkpoint() is None
        enroll_cohort(lms, ["amy"])
        assert checkpointer.maybe_checkpoint() is not None
        journal.close()

    def test_prune_keeps_the_newest_snapshots(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy"])
        checkpointer = Checkpointer(lms, journal, keep=2)
        for index in range(4):
            clock.advance(1.0)
            # grow the WAL so each checkpoint has a distinct LSN
            lms.register_learner(
                Learner(learner_id=f"extra{index}", name="X")
            )
            checkpointer.checkpoint()
        assert len(checkpoint_files(tmp_path)) == 2
        journal.close()


class TestCompaction:
    def test_compaction_bounds_segment_count(self, tmp_path):
        """Disk is bounded: old segments retire as checkpoints advance."""
        journal = Journal.open(tmp_path, fsync="never", segment_bytes=512)
        lms, clock = journaled_lms(journal)
        learner_ids = [f"s{i}" for i in range(12)]
        enroll_cohort(lms, learner_ids)
        checkpointer = Checkpointer(lms, journal)
        peak = len(segment_files(tmp_path))
        for learner_id in learner_ids:
            drive_sittings(lms, clock, [learner_id])
            checkpointer.checkpoint()
            peak = max(peak, len(segment_files(tmp_path)))
        # without retirement this workload writes dozens of 512-byte
        # segments; with it, only the suffix since the last checkpoint
        # survives each pass
        assert len(segment_files(tmp_path)) <= 2
        assert peak <= 6
        assert checkpointer.checkpoints_taken == len(learner_ids)
        journal.close()

    def test_recovery_from_every_checkpoint_converges(self, tmp_path):
        """Any snapshot + its suffix reproduces the live state."""
        journal = Journal.open(tmp_path, fsync="never", segment_bytes=512)
        lms, clock = journaled_lms(journal)
        learner_ids = [f"s{i}" for i in range(9)]
        enroll_cohort(lms, learner_ids)
        checkpointer = Checkpointer(lms, journal, keep=100)
        for index, learner_id in enumerate(learner_ids):
            drive_sittings(lms, clock, [learner_id])
            if index % 3 == 2:
                checkpointer.checkpoint()
        # leave an uncovered suffix after the last checkpoint
        clock.advance(1.0)
        lms.register_learner(Learner(learner_id="late", name="Late"))
        lms.enroll("late", "ex1")
        journal.sync()
        live = state_fingerprint(lms)
        # the directory holds several checkpoints (keep=100); recovery
        # must converge from the newest, and — because older snapshots
        # plus a *longer* suffix cover the same history — from each
        # older one too, as long as its suffix still exists
        snapshots = checkpoint_files(tmp_path)
        assert len(snapshots) >= 3
        report = recover(tmp_path)
        assert state_fingerprint(report.lms) == live
        journal.close()

    def test_recovery_after_compaction_still_matches_live(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never", segment_bytes=256)
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob", "cal", "dee"])
        checkpointer = Checkpointer(lms, journal)
        drive_sittings(lms, clock, ["amy", "bob"])
        checkpointer.checkpoint()
        drive_sittings(lms, clock, ["cal"])
        checkpointer.checkpoint()
        # in-flight sitting in the suffix
        clock.advance(1.0)
        lms.start_exam("dee", "ex1")
        clock.advance(1.0)
        lms.answer("dee", "ex1", "q1", "C")
        journal.sync()
        report = recover(tmp_path)
        assert state_fingerprint(report.lms) == state_fingerprint(lms)
        # and dee's sitting is really live on the recovered side
        recovered = report.lms
        recovered.answer("dee", "ex1", "q2", "A")
        assert recovered.sitting("dee", "ex1").session.answered_item_ids() == [
            "q1",
            "q2",
        ]
        journal.close()


def tear(path):
    """Cut a snapshot file in half, as a crash mid-write would."""
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


class TestFallback:
    def test_torn_newest_checkpoint_falls_back_to_the_older(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob", "cal"])
        checkpointer = Checkpointer(lms, journal, keep=2)
        drive_sittings(lms, clock, ["amy"])
        first = checkpointer.checkpoint()
        drive_sittings(lms, clock, ["bob"])
        second = checkpointer.checkpoint()
        # an uncovered suffix past the newest checkpoint as well
        drive_sittings(lms, clock, ["cal"])
        journal.sync()
        tear(second.path)
        report = recover(tmp_path)
        assert report.checkpoint_path == first.path
        assert state_fingerprint(report.lms) == state_fingerprint(lms)
        journal.close()

    def test_retired_records_no_checkpoint_covers_raise(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never", segment_bytes=256)
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob", "cal", "dee"])
        checkpointer = Checkpointer(lms, journal, keep=2)
        first = checkpointer.checkpoint()
        # size rotation seals several segments past the first
        # checkpoint; the second checkpoint retires all of them
        drive_sittings(lms, clock, ["amy", "bob", "cal", "dee"])
        second = checkpointer.checkpoint()
        oldest = segment_first_lsn(segment_files(tmp_path)[0])
        assert oldest > first.covered_lsn + 1
        journal.close()
        tear(second.path)
        with pytest.raises(
            StoreError,
            match=rf"records {first.covered_lsn + 1}\.\.{oldest - 1} ",
        ):
            recover(tmp_path)


class TestDurableOrder:
    """The checkpoint file is durable before the WAL it covers goes."""

    @staticmethod
    def record_os_calls(monkeypatch, calls, fail_replace=False):
        real_fsync, real_replace, real_unlink = (
            os.fsync, os.replace, Path.unlink,
        )

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(("fsync", kind))
            real_fsync(fd)

        def replace(src, dst):
            if fail_replace:
                raise OSError("rename failed")
            calls.append(("replace", Path(dst).name))
            real_replace(src, dst)

        def unlink(path, *args, **kwargs):
            calls.append(("unlink", path.name))
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(Path, "unlink", unlink)

    def prepared(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob"])
        checkpointer = Checkpointer(lms, journal, keep=2)
        first = checkpointer.checkpoint()
        drive_sittings(lms, clock, ["amy"])
        return journal, lms, checkpointer, first

    def test_fsync_replace_fsync_dir_then_unlink(self, tmp_path, monkeypatch):
        journal, lms, checkpointer, first = self.prepared(tmp_path)
        calls = []
        self.record_os_calls(monkeypatch, calls)
        writing_without_lock = []
        real_write = checkpointer.files.write

        def write(lsn, text):
            # another thread can take the LMS lock while the file is
            # written: the disk write runs outside the critical section
            def take_lock():
                with lms.lock:
                    pass

            probe = threading.Thread(target=take_lock)
            probe.start()
            probe.join(timeout=5)
            writing_without_lock.append(not probe.is_alive())
            return real_write(lsn, text)

        checkpointer.files.write = write
        result = checkpointer.checkpoint()
        monkeypatch.undo()
        assert writing_without_lock == [True]
        assert result.retired_segments, "the pass must retire a segment"
        assert calls == [
            ("fsync", "file"),
            ("replace", result.path.name),
            ("fsync", "dir"),
        ] + [("unlink", path.name) for path in result.retired_segments]
        journal.close()

    def test_failed_replace_keeps_segments_and_checkpoint(
        self, tmp_path, monkeypatch
    ):
        journal, lms, checkpointer, first = self.prepared(tmp_path)
        journal.sync()
        segments = segment_files(tmp_path)
        previous = first.path.read_bytes()
        self.record_os_calls(monkeypatch, [], fail_replace=True)
        with pytest.raises(OSError, match="rename failed"):
            checkpointer.checkpoint()
        monkeypatch.undo()
        assert segment_files(tmp_path) == segments
        assert checkpoint_files(tmp_path) == [first.path]
        assert first.path.read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [first.path.name] + [p.name for p in segments]
        )
        report = recover(tmp_path)
        assert state_fingerprint(report.lms) == state_fingerprint(lms)
        journal.close()
