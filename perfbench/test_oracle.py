"""The oracle checked against the paper's worked example (§4.1.1).

The paper's class has 44 students, so the high and low groups hold 11
each.  Question 2: P_H = 10/11, P_L = 4/11, D = 0.55, green.  Question
6: P_H = 5/11, P_L = 4/11, D = 0.09, red, and no one in the low group
chose option A, so Rule 1 fires.

Run with ``python3 -m unittest discover -s perfbench -p 'test_*.py'``.
"""

import unittest

import oracle

OPTIONS = ("A", "B", "C", "D")


def _cohort_for(high, low, key, size=11, middle=22):
    """A cohort whose 25% groups reproduce the given option counts.

    One choice question ``Q`` plus ``2 * size`` filler items that set
    the scores: the high group gets every filler right, the middle half
    of them, the low group none.  So the §4.1.1 procedure, not the test,
    decides who lands in which group.
    """
    fillers = [f"f{i}" for i in range(2 * size)]
    items = [{
        "item_id": "Q", "style": "multiple_choice",
        "content": {"options": [{"label": o} for o in OPTIONS],
                    "correct_label": key},
    }]
    items += [{"item_id": f, "style": "true_false",
               "content": {"correct_value": True}} for f in fillers]
    exam = {"items": items}

    def picks(counts):
        out = []
        for option, count in zip(OPTIONS, counts):
            out += [option] * count
        return out + [None] * (size - len(out))

    cohort = []
    for n, pick in enumerate(picks(high)):
        answers = {f: True for f in fillers}
        answers["Q"] = pick
        cohort.append((f"high{n}", answers))
    for n in range(middle):
        answers = {f: (i < size) for i, f in enumerate(fillers)}
        cohort.append((f"mid{n}", answers))
    for n, pick in enumerate(picks(low)):
        answers = {f: False for f in fillers}
        answers["Q"] = pick
        cohort.append((f"low{n}", answers))
    return exam, cohort


class PaperExample(unittest.TestCase):
    def test_class_of_44_has_groups_of_11(self):
        self.assertEqual(oracle.group_size(44), 11)
        self.assertEqual(oracle.group_size(45), 11)
        self.assertEqual(oracle.group_size(3), 0)

    def test_question_2_is_green(self):
        q = oracle.question([0, 0, 10, 1], [3, 2, 4, 2], OPTIONS, "C", 11)
        self.assertAlmostEqual(q["p_high"], 10 / 11)
        self.assertAlmostEqual(q["p_low"], 4 / 11)
        self.assertEqual(round(q["discrimination"], 2), 0.55)
        self.assertEqual(round(q["difficulty"], 2), 0.64)
        self.assertEqual(q["signal"], "green")
        self.assertNotIn(1, q["rules_fired"])

    def test_question_6_is_red_and_fires_rule_1(self):
        q = oracle.question([1, 1, 4, 5], [0, 2, 4, 4], OPTIONS, "D", 11)
        self.assertEqual(round(q["p_high"], 2), 0.45)
        self.assertEqual(round(q["p_low"], 2), 0.36)
        self.assertEqual(round(q["discrimination"], 2), 0.09)
        self.assertEqual(q["signal"], "red")
        self.assertIn(1, q["rules_fired"])

    def test_whole_procedure_reproduces_question_2(self):
        exam, cohort = _cohort_for([0, 0, 10, 1], [3, 2, 4, 2], "C")
        self.assertEqual(len(cohort), 44)
        result = oracle.analyse(exam, cohort)
        q = result["questions"][0]
        self.assertEqual(q["option_matrix"]["high"],
                         {"A": 0, "B": 0, "C": 10, "D": 1})
        self.assertEqual(q["option_matrix"]["low"],
                         {"A": 3, "B": 2, "C": 4, "D": 2})
        self.assertEqual(round(q["discrimination"], 2), 0.55)
        self.assertEqual(q["signal"], "green")
        self.assertEqual(len(result["high_group"]), 11)
        self.assertTrue(all(x.startswith("high") for x in result["high_group"]))
        self.assertTrue(all(x.startswith("low") for x in result["low_group"]))

    def test_whole_procedure_reproduces_question_6(self):
        exam, cohort = _cohort_for([1, 1, 4, 5], [0, 2, 4, 4], "D")
        q = oracle.analyse(exam, cohort)["questions"][0]
        self.assertEqual(round(q["discrimination"], 2), 0.09)
        self.assertEqual(q["signal"], "red")
        self.assertIn(1, q["rules_fired"])


class Procedure(unittest.TestCase):
    def test_ties_break_by_submission_order(self):
        exam = {"items": [{"item_id": "t", "style": "true_false",
                           "content": {"correct_value": True}}]}
        cohort = [(name, {"t": True}) for name in ("a", "b", "c", "d")]
        result = oracle.analyse(exam, cohort)
        self.assertEqual(result["high_group"], ["a"])
        self.assertEqual(result["low_group"], ["d"])
        result = oracle.analyse(exam, list(reversed(cohort)))
        self.assertEqual(result["high_group"], ["d"])

    def test_table_3_bands(self):
        self.assertEqual(oracle.signal(0.30), "green")
        self.assertEqual(oracle.signal(0.29), "yellow")
        self.assertEqual(oracle.signal(0.20), "yellow")
        self.assertEqual(oracle.signal(0.19), "red")
        self.assertEqual(oracle.signal(-0.5), "red")

    def test_kr20_by_hand(self):
        # totals 3, 2, 1, 0: mean 1.5, population variance 1.25;
        # item p = 0.75, 0.5, 0.25: sum(pq) = 0.1875 + 0.25 + 0.1875
        flags = [[1, 1, 1], [1, 1, 0], [1, 0, 0], [0, 0, 0]]
        want = 3 / 2 * (1 - 0.625 / 1.25)
        self.assertAlmostEqual(oracle.kr20(flags), want)
        self.assertAlmostEqual(want, 0.75)

    def test_graded_totals_cover_every_item(self):
        exam = {"items": [
            {"item_id": "m", "style": "multiple_choice",
             "content": {"options": [{"label": "A"}, {"label": "B"}],
                         "correct_label": "B"}},
            {"item_id": "t", "style": "true_false",
             "content": {"correct_value": False}},
            {"item_id": "c", "style": "completion",
             "content": {"accepted_answers": [["x"], ["y", "z"]],
                         "case_sensitive": False}},
        ]}
        graded = oracle.grade(exam, {"m": "B", "c": [" X", None]})
        self.assertEqual(graded["total_points"], 2.0)
        self.assertEqual(graded["max_points"], 4.0)
        self.assertEqual(graded["percent"], 50.0)
        self.assertFalse(graded["scores"]["t"]["correct"])
        self.assertFalse(graded["scores"]["c"]["correct"])


if __name__ == "__main__":
    unittest.main()
