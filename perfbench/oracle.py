"""An output oracle written from the paper, not from the program.

Nothing here imports ``repro``.  The benchmark checks every answer,
submit, analysis and report the server returns against these functions:

* item scoring and graded totals over all items (an unanswered item is
  worth 0 of its maximum; a completion item earns one point per blank);
* the §4.1.1 procedure: one point per correct analysable selection, a
  stable sort by score (descending, ties by submission order), high and
  low groups of ``floor(N * 0.25)``, then per question
  ``P_H``, ``P_L``, ``D = P_H - P_L`` and ``P = (P_H + P_L) / 2``;
* the Table 3 light bands on D and the four §4.1.2 rules over the
  option matrix;
* KR-20 with the population variance of the total scores.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

GROUP_FRACTION = 0.25
GREEN_MIN = 0.30
YELLOW_MIN = 0.20
SPREAD_THRESHOLD = 0.20
TRUE_WORDS = ("true", "t", "yes", "1")
FALSE_WORDS = ("false", "f", "no", "0")


class OracleError(AssertionError):
    """The program's output disagrees with the oracle."""


# -- scoring ------------------------------------------------------------------


def _tf_value(response) -> bool:
    if isinstance(response, bool):
        return response
    word = str(response).strip().lower()
    if word in TRUE_WORDS:
        return True
    if word in FALSE_WORDS:
        return False
    raise ValueError(f"not a true/false response: {response!r}")


def score(item: dict, response) -> Dict[str, object]:
    """``points``, ``max_points``, ``correct`` and the analysed
    ``selected`` value for one response (``None`` = unanswered)."""
    style = item["style"]
    content = item["content"]
    if style == "completion":
        keys = content["accepted_answers"]
        maximum = float(len(keys))
        if response is None:
            return {"points": 0.0, "max_points": maximum,
                    "correct": False, "selected": None}
        fills = [response] if isinstance(response, str) else list(response)
        points = 0.0
        for filled, accepted in zip(fills, keys):
            if filled is None:
                continue
            if content.get("case_sensitive"):
                ok = filled.strip() in [a.strip() for a in accepted]
            else:
                ok = filled.strip().lower() in [
                    a.strip().lower() for a in accepted
                ]
            points += 1.0 if ok else 0.0
        return {"points": points, "max_points": maximum,
                "correct": points == maximum, "selected": None}
    if response is None:
        return {"points": 0.0, "max_points": 1.0,
                "correct": False, "selected": None}
    if style == "multiple_choice":
        selected = response
        right = response == content["correct_label"]
    elif style == "true_false":
        value = _tf_value(response)
        selected = "true" if value else "false"
        right = value == bool(content["correct_value"])
    else:
        raise ValueError(f"the oracle does not score {style!r} items")
    return {"points": 1.0 if right else 0.0, "max_points": 1.0,
            "correct": right, "selected": selected}


def grade(exam: dict, answers: Dict[str, object]) -> Dict[str, object]:
    """Graded totals over every item of the exam."""
    scores = {
        item["item_id"]: score(item, answers.get(item["item_id"]))
        for item in exam["items"]
    }
    total = sum(s["points"] for s in scores.values())
    maximum = sum(s["max_points"] for s in scores.values())
    return {
        "total_points": total,
        "max_points": maximum,
        "percent": total / maximum * 100.0 if maximum else 0.0,
        "scores": scores,
    }


# -- §4.1.1 / §4.1.2 ----------------------------------------------------------


def analysable(exam: dict) -> List[Tuple[str, Tuple[str, ...], str]]:
    """``(item_id, options, key)`` of each choice-style item, exam order."""
    specs = []
    for item in exam["items"]:
        content = item["content"]
        if item["style"] == "multiple_choice":
            options = tuple(o["label"] for o in content["options"])
            specs.append((item["item_id"], options, content["correct_label"]))
        elif item["style"] == "true_false":
            key = "true" if content["correct_value"] else "false"
            specs.append((item["item_id"], ("true", "false"), key))
    return specs


def group_size(cohort: int) -> int:
    """``floor(N * 25%)``: the paper's class of 44 gives groups of 11."""
    return math.floor(cohort * GROUP_FRACTION)


def signal(discrimination: float) -> str:
    """Table 3: green at D >= 0.30, yellow at 0.20-0.29, red below."""
    if discrimination >= GREEN_MIN:
        return "green"
    if discrimination >= YELLOW_MIN:
        return "yellow"
    return "red"


def _even(counts: Sequence[int]) -> bool:
    total = sum(counts)
    return total > 0 and max(counts) - min(counts) <= total * SPREAD_THRESHOLD


def rules(high: Sequence[int], low: Sequence[int], key_index: int) -> List[int]:
    """The §4.1.2 rules that fire on one option matrix, ascending."""
    fired = []
    if any(count == 0 for count in low):
        fired.append(1)
    for index, (h, lo) in enumerate(zip(high, low)):
        if (index == key_index and h < lo) or (index != key_index and h > lo):
            fired.append(2)
            break
    if _even(low):
        fired.append(3)
        if _even(high):
            fired.append(4)
    return fired


def question(
    high: Sequence[int],
    low: Sequence[int],
    options: Sequence[str],
    key: str,
    size: int,
) -> Dict[str, object]:
    """One question's number and signal representation."""
    key_index = list(options).index(key)
    p_high = high[key_index] / size
    p_low = low[key_index] / size
    d = p_high - p_low
    return {
        "p_high": p_high,
        "p_low": p_low,
        "difficulty": (p_high + p_low) / 2.0,
        "discrimination": d,
        "signal": signal(d),
        "rules_fired": rules(high, low, key_index),
        "option_matrix": {
            "options": list(options),
            "high": dict(zip(options, high)),
            "low": dict(zip(options, low)),
            "correct": key,
        },
    }


def selections(exam: dict, answers: Dict[str, object]) -> List[Optional[str]]:
    """The analysed selection per choice item (``None`` = omitted)."""
    by_id = {item["item_id"]: item for item in exam["items"]}
    return [
        score(by_id[item_id], answers.get(item_id))["selected"]
        for item_id, _, _ in analysable(exam)
    ]


def analyse(
    exam: dict, submissions: Sequence[Tuple[str, Dict[str, object]]]
) -> Dict[str, object]:
    """The §4.1 analysis of ``(learner_id, answers)`` in submission order."""
    specs = analysable(exam)
    rows = [(learner, selections(exam, answers))
            for learner, answers in submissions]
    scores = {
        learner: sum(1 for sel, (_, _, key) in zip(row, specs) if sel == key)
        for learner, row in rows
    }
    size = group_size(len(rows))
    if size < 1:
        raise ValueError(f"a cohort of {len(rows)} has no 25% groups")
    order = sorted(range(len(rows)), key=lambda i: (-scores[rows[i][0]], i))
    high_rows = [rows[i] for i in order[:size]]
    low_rows = [rows[i] for i in order[-size:]]
    questions = []
    for number, (_, options, key) in enumerate(specs):
        high = [sum(1 for _, row in high_rows if row[number] == o)
                for o in options]
        low = [sum(1 for _, row in low_rows if row[number] == o)
               for o in options]
        entry = question(high, low, options, key, size)
        entry["number"] = number + 1
        questions.append(entry)
    return {
        "questions": questions,
        "high_group": [learner for learner, _ in high_rows],
        "low_group": [learner for learner, _ in low_rows],
        "scores": scores,
    }


def kr20(flags: Sequence[Sequence[bool]]) -> float:
    """KR-20 = k/(k-1) * (1 - sum(p*q) / var(totals)), population variance."""
    people = len(flags)
    k = len(flags[0])
    totals = [sum(1 for f in row if f) for row in flags]
    mean = sum(totals) / people
    variance = sum((t - mean) ** 2 for t in totals) / people
    pq = 0.0
    for column in range(k):
        p = sum(1 for row in flags if row[column]) / people
        pq += p * (1.0 - p)
    return k / (k - 1) * (1.0 - pq / variance)


def report_kr20(
    exam: dict, submissions: Sequence[Tuple[str, Dict[str, object]]]
) -> float:
    """KR-20 over the analysable items' right/wrong flags."""
    keys = [key for _, _, key in analysable(exam)]
    return kr20([
        [sel == key for sel, key in zip(selections(exam, answers), keys)]
        for _, answers in submissions
    ])


# -- comparison ---------------------------------------------------------------

_TOLERANCE = 1e-9


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= _TOLERANCE


def check_analysis(expected: dict, actual: dict, where: str) -> None:
    """Raise :class:`OracleError` at the first disagreement."""
    if len(actual.get("questions", ())) != len(expected["questions"]):
        raise OracleError(f"{where}: question count differs")
    for want, got in zip(expected["questions"], actual["questions"]):
        label = f"{where} Q{want['number']}"
        for field in ("p_high", "p_low", "difficulty", "discrimination"):
            if not _close(got.get(field), want[field]):
                raise OracleError(
                    f"{label}: {field} {got.get(field)!r} != {want[field]!r}"
                )
        for field in ("signal", "rules_fired", "option_matrix"):
            if got.get(field) != want[field]:
                raise OracleError(
                    f"{label}: {field} {got.get(field)!r} != {want[field]!r}"
                )
    for field in ("high_group", "low_group"):
        if set(actual.get(field, ())) != set(expected[field]):
            raise OracleError(f"{where}: {field} membership differs")
    if actual.get("scores") != expected["scores"]:
        raise OracleError(f"{where}: examinee scores differ")


def check_scored(item: dict, response, got: dict, where: str) -> None:
    want = score(item, response)
    if got.get("correct") != want["correct"] or not _close(
        got.get("points"), want["points"]
    ) or not _close(got.get("max_points"), want["max_points"]):
        raise OracleError(f"{where}: scored {got!r}, oracle {want!r}")


def check_graded(exam: dict, answers: dict, got: dict, where: str) -> None:
    want = grade(exam, answers)
    for field in ("total_points", "max_points", "percent"):
        if not _close(got.get(field), want[field]):
            raise OracleError(
                f"{where}: {field} {got.get(field)!r} != {want[field]!r}"
            )
