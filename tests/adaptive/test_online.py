"""Tests for online CAT: policy, information table, session, snapshots
(:mod:`repro.adaptive.online`)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EstimationError
from repro.adaptive.cat import select_next_item
from repro.adaptive.irt import ItemParameters, item_information
from repro.adaptive.online import (
    AdaptivePolicy,
    AdaptiveSession,
    ItemInformationTable,
    collect_calibration_matrix,
    latest_calibration_snapshot,
    list_calibration_snapshots,
    parameters_from_record,
    parameters_to_record,
    write_calibration_snapshot,
)
from repro.exams.authoring import ExamBuilder
from repro.items.choice import MultipleChoiceItem


def build_exam(exam_id="adaptive-1", questions=6, adaptive=None):
    builder = ExamBuilder(exam_id, f"Exam {exam_id}")
    for index in range(1, questions + 1):
        builder.add_item(
            MultipleChoiceItem.build(
                f"q{index}", f"Q{index}?", ["a", "b", "c"], correct_index=0
            )
        )
    exam = builder.build()
    exam.adaptive = adaptive
    if adaptive is not None:
        exam.validate()
    return exam


def random_pool(size=6, seed=0):
    rng = random.Random(seed)
    return {
        f"q{index}": ItemParameters(
            a=rng.uniform(0.5, 2.0), b=rng.uniform(-2.5, 2.5)
        )
        for index in range(1, size + 1)
    }


class TestAdaptivePolicy:
    def test_rejects_bad_stopping_rules(self):
        with pytest.raises(EstimationError):
            AdaptivePolicy(max_items=0)
        with pytest.raises(EstimationError):
            AdaptivePolicy(max_items=5, min_items=6)
        with pytest.raises(EstimationError):
            AdaptivePolicy(se_target=0.0)
        with pytest.raises(EstimationError):
            AdaptivePolicy(grid_points=2)

    def test_validate_rejects_foreign_parameters(self):
        policy = AdaptivePolicy(
            parameters={"nope": ItemParameters()}
        )
        with pytest.raises(EstimationError, match="nope"):
            build_exam(adaptive=policy)

    def test_validate_rejects_empty_pool(self):
        exam = ExamBuilder("essay-only", "Essays").add_item(
            MultipleChoiceItem.build(
                "q1", "Q1?", ["a", "b"], correct_index=0
            )
        ).build()
        exam.items = []
        exam.adaptive = AdaptivePolicy()
        with pytest.raises(EstimationError, match="no analyzable"):
            exam.adaptive.validate(exam)

    def test_pool_for_prefers_explicit_parameters(self):
        pinned = ItemParameters(a=1.7, b=0.9)
        exam = build_exam(
            adaptive=AdaptivePolicy(parameters={"q1": pinned})
        )
        pool = exam.adaptive.pool_for(exam)
        assert pool["q1"] is pinned
        # unpinned items with no stored statistics get neutral defaults
        assert pool["q2"].a == 1.0 and pool["q2"].b == 0.0

    def test_record_round_trip(self):
        policy = AdaptivePolicy(
            max_items=7,
            min_items=2,
            se_target=0.4,
            prior_sd=1.2,
            grid_points=31,
            grid_half_width=4.0,
            parameters={"q1": ItemParameters(a=1.5, b=-0.3, c=0.1)},
        )
        restored = AdaptivePolicy.from_record(policy.to_record())
        assert restored.to_record() == policy.to_record()

    def test_parameters_record_round_trip(self):
        pool = random_pool(4, seed=9)
        assert parameters_to_record(
            parameters_from_record(parameters_to_record(pool))
        ) == parameters_to_record(pool)


class TestItemInformationTable:
    def test_build_rejects_empty_pool(self):
        with pytest.raises(EstimationError, match="empty pool"):
            ItemInformationTable.build({})

    def test_grid_matches_estimator_shape(self):
        table = ItemInformationTable.build(
            random_pool(3), grid_points=61, grid_half_width=4.5
        )
        assert len(table.grid) == 61
        assert table.grid[0] == -4.5
        assert math.isclose(table.grid[-1], 4.5)

    def test_grid_index_clamps(self):
        table = ItemInformationTable.build(random_pool(3))
        assert table.grid_index(-99.0) == 0
        assert table.grid_index(99.0) == len(table.grid) - 1
        assert table.grid[table.grid_index(0.0)] == pytest.approx(0.0)

    def test_select_matches_exact_argmax_at_grid_thetas(self):
        pool = random_pool(6, seed=3)
        table = ItemInformationTable.build(pool)
        for theta in table.grid:
            assert table.select(theta, set()) == select_next_item(
                theta, pool, set()
            )

    def test_select_skips_administered_and_exhausts(self):
        pool = random_pool(3, seed=1)
        table = ItemInformationTable.build(pool)
        seen = set()
        for _ in range(3):
            choice = table.select(0.0, seen)
            assert choice not in seen
            seen.add(choice)
        assert table.select(0.0, seen) is None

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=1, max_value=8),
        grid_points=st.integers(min_value=3, max_value=31),
        half_width=st.floats(min_value=1.0, max_value=5.0),
        administer=st.integers(min_value=0, max_value=4),
    )
    def test_table_argmax_equals_exact_argmax(
        self, seed, size, grid_points, half_width, administer
    ):
        """The precomputed argmax IS the per-request IRT argmax, at
        every grid ability, for any pool and any administered subset."""
        pool = random_pool(size, seed=seed)
        table = ItemInformationTable.build(
            pool, grid_points=grid_points, grid_half_width=half_width
        )
        administered = set(sorted(pool)[: min(administer, size)])
        for theta in table.grid:
            assert table.select(theta, administered) == select_next_item(
                theta, pool, administered
            )


class TestAdaptiveSession:
    def policy(self, **kwargs):
        defaults = dict(max_items=4, min_items=2, se_target=0.5)
        defaults.update(kwargs)
        return AdaptivePolicy(**defaults)

    def session(self, pool=None, **kwargs):
        pool = pool if pool is not None else random_pool(6, seed=2)
        policy = self.policy(**kwargs)
        table = ItemInformationTable.build(pool)
        return AdaptiveSession.for_exam(table, policy)

    def test_deterministic_replay(self):
        first = self.session()
        replay = self.session()
        answers = [True, False, True, True]
        for correct in answers:
            item = first.next_item()
            first.record(item, correct)
        for item, correct in zip(first.administered, first.responses):
            replay.record(item, correct)
        assert replay.administered == first.administered
        assert replay.trajectory == first.trajectory  # bit-identical
        assert replay.theta == first.theta

    def test_max_items_stops(self):
        session = self.session(max_items=2, min_items=1, se_target=1e-9)
        for _ in range(2):
            session.record(session.next_item(), True)
        assert session.next_item() is None
        assert session.stop_reason() == "max_items"

    def test_pool_exhausted_stops(self):
        session = self.session(
            pool=random_pool(2, seed=4),
            max_items=10, min_items=5, se_target=1e-9,
        )
        while session.next_item() is not None:
            session.record(session.next_item(), False)
        assert session.stop_reason() == "pool_exhausted"

    def test_se_target_stops(self):
        session = self.session(max_items=6, min_items=1, se_target=10.0)
        session.record(session.next_item(), True)
        assert session.stop_reason() == "se_target"

    def test_rejects_foreign_and_repeated_items(self):
        session = self.session()
        with pytest.raises(EstimationError, match="not in the adaptive"):
            session.record("nope", True)
        item = session.next_item()
        session.record(item, True)
        with pytest.raises(EstimationError, match="already administered"):
            session.record(item, False)

    def test_status_payload_shape(self):
        session = self.session()
        status = session.status()
        assert status["done"] is False
        assert status["item_id"] == session.next_item()
        assert status["step"] == 0
        assert status["table_version"] == 0

    def test_correct_answers_raise_theta(self):
        right = self.session(max_items=4, min_items=4, se_target=1e-9)
        wrong = self.session(max_items=4, min_items=4, se_target=1e-9)
        for _ in range(4):
            right.record(right.next_item(), True)
            wrong.record(wrong.next_item(), False)
        assert right.theta > wrong.theta


class TestCalibrationSnapshots:
    def test_write_list_latest_round_trip(self, tmp_path):
        pool = random_pool(3, seed=7)
        write_calibration_snapshot(tmp_path, "ex-a", 1, pool)
        write_calibration_snapshot(tmp_path, "ex-a", 3, pool)
        write_calibration_snapshot(tmp_path, "ex-b", 2, pool)
        assert list_calibration_snapshots(tmp_path) == {
            "ex-a": [1, 3],
            "ex-b": [2],
        }
        version, restored = latest_calibration_snapshot(tmp_path, "ex-a")
        assert version == 3
        assert parameters_to_record(restored) == parameters_to_record(pool)

    def test_missing_directory_and_exam(self, tmp_path):
        assert list_calibration_snapshots(tmp_path / "nope") == {}
        assert latest_calibration_snapshot(tmp_path, "ghost") is None

    def test_unrecognized_format_rejected(self, tmp_path):
        path = tmp_path / "params-ex-v1.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(EstimationError, match="format"):
            latest_calibration_snapshot(tmp_path, "ex")

    def test_failed_write_leaves_no_partial_snapshot(
        self, tmp_path, monkeypatch
    ):
        from repro.lms.lms import Lms
        from repro.server.app import ExamServer
        from repro.store import snapshots

        calibration_dir = tmp_path / "calibration"
        write_calibration_snapshot(
            calibration_dir, "adaptive-1", 1, random_pool(seed=1)
        )

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(snapshots.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            write_calibration_snapshot(
                calibration_dir, "adaptive-1", 2, random_pool(seed=2)
            )
        monkeypatch.undo()
        # no v2 file and no temp debris: nothing a reader could pick up
        assert [p.name for p in calibration_dir.iterdir()] == [
            "params-adaptive-1-v1.json"
        ]
        assert latest_calibration_snapshot(calibration_dir, "adaptive-1")[
            0
        ] == 1
        # the boot-time reload sees the intact v1 only
        lms = Lms()
        lms.offer_exam(
            build_exam(adaptive=AdaptivePolicy(max_items=2, min_items=1))
        )
        with ExamServer(lms, wal_dir=tmp_path):
            assert lms.calibration_version("adaptive-1") == 1


class TestCollectCalibrationMatrix:
    def test_missing_cells_are_none_not_wrong(self):
        from repro.lms.learners import Learner
        from repro.lms.lms import Lms

        exam = build_exam(
            questions=4,
            adaptive=AdaptivePolicy(
                max_items=2, min_items=1, se_target=1e-9
            ),
        )
        lms = Lms()
        lms.offer_exam(exam)
        for learner_id in ("s1", "s2"):
            lms.register_learner(Learner(learner_id=learner_id, name=""))
            lms.enroll(learner_id, exam.exam_id)
            lms.start_exam(learner_id, exam.exam_id)
            for _ in range(2):
                status = lms.next_item(learner_id, exam.exam_id)
                lms.answer(
                    learner_id, exam.exam_id, status["item_id"],
                    "A" if learner_id == "s1" else "B",
                )
            lms.submit(learner_id, exam.exam_id)
        item_ids, matrix = collect_calibration_matrix(lms, exam.exam_id)
        assert item_ids == ["q1", "q2", "q3", "q4"]
        assert len(matrix) == 2
        for row, expected in zip(matrix, (True, False)):
            administered = [cell for cell in row if cell is not None]
            assert len(administered) == 2  # max_items, not pool size
            assert all(cell is expected for cell in administered)
