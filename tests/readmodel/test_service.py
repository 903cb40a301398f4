"""The in-process WAL follower (repro.readmodel.service)."""

import json

from conftest import journaled_lms, enroll_cohort

from repro.readmodel import readmodel_files, rebuild, save_readmodel
from repro.readmodel.service import ReadModelService
from repro.server.serialize import analysis_to_dict
from repro.store import Journal


def sit(lms, clock, learner_id, answers=(("q1", "A"), ("q2", "B"))):
    lms.start_exam(learner_id, "ex1")
    for item_id, response in answers:
        lms.answer(learner_id, "ex1", item_id, response)
    clock.advance(10.0)
    return lms.submit(learner_id, "ex1")


class TestSync:
    def test_sync_gives_read_your_writes(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        cohort = ["amy", "bob", "cat", "dan"]
        enroll_cohort(lms, cohort)
        service = ReadModelService(tmp_path, journal=journal)
        service.sync()
        assert service.model.exam("ex1").enrolled == set(cohort)
        sit(lms, clock, "amy")
        journal.sync()
        assert service.lag() == 4  # start + 2 answers + submit
        service.sync()
        assert service.lag() == 0
        assert service.model.exam("ex1").submits == 1
        for learner_id in cohort[1:]:
            sit(lms, clock, learner_id)
        journal.sync()
        service.sync()
        # the fold agrees with the serving engine, live
        assert json.dumps(
            analysis_to_dict(service.model.exam("ex1").analysis()),
            sort_keys=True,
        ) == json.dumps(
            analysis_to_dict(lms.live_analysis("ex1")), sort_keys=True
        )
        journal.close()

    def test_follower_thread_catches_up(self, tmp_path):
        import time

        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy"])
        service = ReadModelService(
            tmp_path, journal=journal, poll_interval=0.01
        )
        service.start()
        try:
            sit(lms, clock, "amy")
            journal.sync()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with service.lock:
                    if service.model.applied_lsn == journal.last_lsn:
                        break
                time.sleep(0.01)
            with service.lock:
                assert service.model.applied_lsn == journal.last_lsn
        finally:
            service.close()
            journal.close()

    def test_info_reports_position_and_lag(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        journal.sync()
        service = ReadModelService(tmp_path, journal=journal)
        service.sync()
        info = service.info()
        assert info["applied_lsn"] == journal.last_lsn
        assert info["lag"] == 0
        assert info["exams"] == 1
        journal.close()


class TestResume:
    def test_resumes_from_newest_checkpoint(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob"])
        sit(lms, clock, "amy")
        journal.sync()

        first = ReadModelService(tmp_path, journal=journal)
        path = first.checkpoint()
        assert path in readmodel_files(tmp_path)
        checkpoint_lsn = first.model.applied_lsn

        sit(lms, clock, "bob")
        journal.sync()
        second = ReadModelService(tmp_path, journal=journal)
        # restored at the checkpoint, not at zero
        assert second.model.applied_lsn == checkpoint_lsn
        second.sync()
        assert second.model.applied_lsn == journal.last_lsn
        assert second.model.exam("ex1").submits == 2
        journal.close()

    def test_corrupt_checkpoint_falls_back_to_full_fold(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy"])
        sit(lms, clock, "amy")
        journal.sync()
        path = save_readmodel(rebuild(tmp_path), tmp_path)
        path.write_text("{ torn", encoding="utf-8")
        service = ReadModelService(tmp_path, journal=journal)
        service.sync()
        assert service.model.applied_lsn == journal.last_lsn
        assert service.model.exam("ex1").submits == 1
        journal.close()

    def test_torn_newest_checkpoint_after_compaction_falls_back(
        self, tmp_path
    ):
        """The server's checkpoint pass (sync, LMS checkpoint + compact,
        read-model checkpoint) twice, then the newest read-model file
        torn: the older one plus the surviving segments still hold
        every record, so a new follower reaches the tip."""
        from repro.store import Checkpointer, segment_files, segment_first_lsn

        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob", "cal"])
        follower = ReadModelService(tmp_path, journal=journal)
        checkpointer = Checkpointer(lms, journal)
        written = []
        for learner_id in ("amy", "bob"):
            sit(lms, clock, learner_id)
            follower.sync()
            checkpointer.checkpoint()
            written.append(follower.checkpoint())
        sit(lms, clock, "cal")
        journal.sync()
        assert segment_first_lsn(segment_files(tmp_path)[0]) > 1
        newest = written[-1]
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
        fresh = ReadModelService(tmp_path, journal=journal)
        assert fresh.model.applied_lsn == segment_first_lsn(
            segment_files(tmp_path)[0]
        ) - 1
        fresh.sync()
        assert fresh.model.applied_lsn == journal.last_lsn
        assert fresh.model.exam("ex1").submits == 3
        journal.close()

    def test_truncation_ahead_restarts_from_checkpoint(self, tmp_path):
        """An external compactor retiring records past a stale
        follower's position forces a restart from the newest read-model
        checkpoint (which covers the gap) rather than a silent skip."""
        from repro.store import Checkpointer, segment_files, segment_first_lsn

        journal = Journal.open(tmp_path, fsync="never", segment_bytes=256)
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, [f"l{n}" for n in range(6)])
        journal.sync()
        # this follower parks early, then a lot of history accumulates
        stale = ReadModelService(tmp_path, journal=journal)
        stale.sync()
        parked = stale.model.applied_lsn
        for n in range(6):
            sit(lms, clock, f"l{n}")
        journal.sync()
        # another follower checkpoints at the tip, then compaction runs
        ReadModelService(tmp_path, journal=journal).checkpoint()
        checkpointer = Checkpointer(lms, journal, keep=1)
        checkpointer.checkpoint()
        journal.retire_covered(checkpointer.last_covered_lsn)
        oldest = segment_first_lsn(segment_files(tmp_path)[0])
        assert oldest > parked + 1, "compaction must outrun the follower"
        stale.sync()
        assert stale.restarts == 1
        assert stale.model.applied_lsn == journal.last_lsn
        assert stale.model.exam("ex1").submits == 6
        journal.close()
