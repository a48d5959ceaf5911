"""The verdict of tools/ab.py on fixed numbers; no benchmark runs.

A claimed gain is met when the change wins at least 9 of every 10 pairs
and its median is better than the parent's by more than the parent's
interquartile range; it is not met when the change wins no more pairs
than it loses, and unresolved otherwise.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", PATH)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_clear_gain_is_met():
    s = ab.compare(PARENT, [x * 0.75 for x in PARENT], "lower")
    assert (s["wins"], s["losses"], s["pairs"]) == (10, 0, 10)
    assert s["parent_iqr"] == pytest.approx(0.035)  # 1.0175 - 0.9825
    assert s["gain"] == pytest.approx(0.25)
    assert s["p_value"] == pytest.approx(2 / 2 ** 10)
    assert ab.verdict(s) == "met"


def test_nine_wins_of_ten_suffice_but_eight_do_not():
    nine = [x * 0.75 for x in PARENT[:9]] + [PARENT[9] + 1]
    assert ab.verdict(ab.compare(PARENT, nine, "lower")) == "met"
    eight = [x * 0.75 for x in PARENT[:8]] + [x + 1 for x in PARENT[8:]]
    s = ab.compare(PARENT, eight, "lower")
    assert (s["wins"], s["losses"]) == (8, 2)
    assert ab.verdict(s) == "unresolved"


def test_a_gain_inside_the_parents_spread_is_not_met():
    # the change wins every pair, by less than the parent's IQR
    s = ab.compare(PARENT, [x - 0.01 for x in PARENT], "lower")
    assert s["wins"] == 10 and s["gain"] < s["parent_iqr"]
    assert ab.verdict(s) == "unresolved"


def test_a_copy_of_the_parent_is_not_met():
    s = ab.compare(PARENT, list(PARENT), "lower")
    assert (s["wins"], s["losses"], s["p_value"]) == (0, 0, 1.0)
    assert ab.verdict(s) == "not met"
    worse = ab.compare(PARENT, [x * 1.3 for x in PARENT], "lower")
    assert ab.verdict(worse) == "not met"


def test_higher_is_better_flips_the_sides():
    s = ab.compare(PARENT, [x * 1.3 for x in PARENT], "higher")
    assert s["wins"] == 10 and s["gain"] > 0
    assert ab.verdict(s) == "met"


def test_sign_test_is_two_sided():
    assert ab.sign_test(5, 5) == 1.0
    assert ab.sign_test(9, 1) == pytest.approx(2 * 11 / 1024)
    assert ab.sign_test(1, 9) == ab.sign_test(9, 1)
