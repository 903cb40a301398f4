"""Seeded benchmark inputs: exam records and scripted learner sittings.

Everything here is standard library only and never imports ``repro``:
the inputs are a pure function of ``(seed, round)``, so a change to the
program or its simulator cannot change what the benchmark sends.

An exam mixes multiple-choice and true/false items (analysed by the
§4.1.1 procedure) with one two-blank completion item (graded, not
analysed).  A learner's selections follow a logistic
ability-minus-difficulty model: the chance of a correct answer is
``1 / (1 + exp(-(theta - b)))``.  Wrong choices fall on distractors by
per-item weights, some of them near zero so that Rule 1 (an option no
one in the low group picks) fires on real data.  A few answers are
omitted, and some sittings are suspended and resumed halfway.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

MC_ITEMS = 15
TF_ITEMS = 4
OMIT_RATE = 0.06
SUSPEND_RATE = 0.10
BLANK_OMIT_RATE = 0.10
LEVELS = (
    "knowledge",
    "comprehension",
    "application",
    "analysis",
    "synthesis",
    "evaluation",
)
CONCEPTS = ("fractions", "ratios", "geometry", "algebra")
COMPLETION_ID = "q-fill"
COMPLETION_KEY = (("angles", "interior angles"), ("180",))
COMPLETION_WRONG = (("sides", "corners"), ("90", "360"))

#: one scripted answer: (item_id, response as sent on the wire)
Answer = Tuple[str, object]


@dataclass(frozen=True)
class Sitting:
    """One learner's scripted sitting.

    ``answers`` go up in order; omitted items are simply absent.  When
    ``suspend_after`` is set, the sitting is suspended after that many
    answers and resumed before the next one.
    """

    learner_id: str
    answers: Tuple[Answer, ...]
    suspend_after: Optional[int] = None


@dataclass(frozen=True)
class RoundInputs:
    """A round's exam record, its cohort, and its in-flight sittings.

    The cohort sits and submits during the timed phase.  In-flight
    sittings are started and partly answered, then left open across the
    crash and restart.
    """

    exam: Dict[str, object]
    cohort: Tuple[Sitting, ...]
    in_flight: Tuple[Sitting, ...]

    @property
    def exam_id(self) -> str:
        return str(self.exam["exam_id"])

    def learner_ids(self) -> List[str]:
        return [s.learner_id for s in self.cohort + self.in_flight]


def _item_common(item_id: str, rng: random.Random, number: int) -> dict:
    return {
        "item_id": item_id,
        "subject": CONCEPTS[number % len(CONCEPTS)],
        "hint": "",
        "cognition_level": LEVELS[rng.randrange(len(LEVELS))],
        "pictures": [],
        "difficulty": None,
        "discrimination": None,
    }


def make_exam(rng: random.Random, exam_id: str):
    """An exam record in the ``POST /exams`` shape, plus per-item model
    parameters ``{item_id: (b, distractor weights)}``."""
    kinds = ["mc"] * MC_ITEMS + ["tf"] * TF_ITEMS + ["fill"]
    rng.shuffle(kinds)
    items: List[dict] = []
    model: Dict[str, tuple] = {}
    for number, kind in enumerate(kinds):
        b = rng.uniform(-1.5, 1.5)
        if kind == "mc":
            item_id = f"q{number:02d}"
            count = rng.choice((4, 5))
            labels = [chr(ord("A") + i) for i in range(count)]
            correct = rng.choice(labels)
            record = _item_common(item_id, rng, number)
            record["style"] = "multiple_choice"
            record["content"] = {
                "question": f"Question {number}: which option is right?",
                "hint": "",
                "options": [
                    {"label": label, "text": f"option {label}"}
                    for label in labels
                ],
                "correct_label": correct,
            }
            weights = {
                label: (0.02 if rng.random() < 0.25 else rng.uniform(0.3, 1))
                for label in labels
                if label != correct
            }
            model[item_id] = (b, weights)
        elif kind == "tf":
            item_id = f"q{number:02d}"
            record = _item_common(item_id, rng, number)
            record["style"] = "true_false"
            record["content"] = {
                "question": f"Statement {number} holds.",
                "hint": "",
                "correct_value": rng.random() < 0.5,
            }
            model[item_id] = (b, None)
        else:
            item_id = COMPLETION_ID
            record = _item_common(item_id, rng, number)
            record["style"] = "completion"
            record["content"] = {
                "question": "The ___ of a triangle add up to ___ degrees.",
                "hint": "",
                "accepted_answers": [list(a) for a in COMPLETION_KEY],
                "case_sensitive": False,
            }
            model[item_id] = (b, None)
        items.append(record)
    exam = {
        "exam_id": exam_id,
        "title": f"Benchmark exam {exam_id}",
        "display_type": "fixed_order",
        "time_limit_seconds": None,
        "resumable": True,
        "items": items,
    }
    return exam, model


def _vary_case(rng: random.Random, text: str) -> str:
    form = rng.randrange(3)
    if form == 1:
        text = text.upper()
    elif form == 2:
        text = text.capitalize()
    return (" " if rng.random() < 0.2 else "") + text


def _respond(rng: random.Random, item: dict, params, theta: float):
    b, weights = params
    p_correct = 1.0 / (1.0 + math.exp(-(theta - b)))
    style = item["style"]
    content = item["content"]
    if style == "multiple_choice":
        if rng.random() < p_correct:
            return content["correct_label"]
        labels = list(weights)
        return rng.choices(labels, weights=[weights[k] for k in labels])[0]
    if style == "true_false":
        key = bool(content["correct_value"])
        return key if rng.random() < p_correct else not key
    filled: List[Optional[str]] = []
    for right, wrong in zip(COMPLETION_KEY, COMPLETION_WRONG):
        if rng.random() < BLANK_OMIT_RATE:
            filled.append(None)
        elif rng.random() < p_correct:
            filled.append(_vary_case(rng, rng.choice(right)))
        else:
            filled.append(rng.choice(wrong))
    return filled


def make_sitting(
    rng: random.Random, exam: dict, model: dict, learner_id: str
) -> Sitting:
    """One learner's scripted answers from a drawn ability."""
    theta = rng.gauss(0.0, 1.0)
    answers: List[Answer] = []
    for item in exam["items"]:
        response = _respond(rng, item, model[item["item_id"]], theta)
        if rng.random() < OMIT_RATE:
            continue
        answers.append((item["item_id"], response))
    if not answers:
        first = exam["items"][0]
        answers.append(
            (first["item_id"], _respond(rng, first, model[first["item_id"]], theta))
        )
    suspend_after = None
    if rng.random() < SUSPEND_RATE and len(answers) >= 2:
        suspend_after = len(answers) // 2
    return Sitting(learner_id, tuple(answers), suspend_after)


def make_round(
    seed: int, round_index: int, cohort: int, in_flight: int
) -> RoundInputs:
    """The inputs of one round: a pure function of its arguments."""
    rng = random.Random(f"perfbench:{seed}:{round_index}")
    exam, model = make_exam(rng, f"exam-{round_index}")
    sittings = tuple(
        make_sitting(rng, exam, model, f"r{round_index}-l{index:04d}")
        for index in range(cohort)
    )
    open_sittings = []
    for index in range(in_flight):
        full = make_sitting(rng, exam, model, f"r{round_index}-open{index}")
        # half the script is acknowledged before the crash; the last
        # in-flight sitting is left suspended
        kept = full.answers[: max(1, len(full.answers) // 2)]
        suspend = len(kept) if index == in_flight - 1 else None
        open_sittings.append(Sitting(full.learner_id, kept, suspend))
    return RoundInputs(exam, sittings, tuple(open_sittings))
