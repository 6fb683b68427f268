"""The verdict rules of ``tools/ab.py``."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


class TestVerdict:
    def test_gain_with_ten_pairs(self):
        change = [p - 0.5 for p in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25) == (10, "gain")

    def test_gain_when_higher_is_better(self):
        change = [p + 0.5 for p in PARENT]
        assert ab.verdict(PARENT, change, "higher", 0.25) == (10, "gain")

    def test_fewer_than_ten_pairs_show_no_gain(self):
        parent = PARENT[:5]
        change = [p - 0.5 for p in parent]
        assert ab.verdict(parent, change, "lower", 0.25) == (5, "within bound")

    def test_nine_wins_in_ten_is_a_gain_eight_is_not(self):
        change = [p - 0.5 for p in PARENT]
        change[0] = PARENT[0] + 0.01
        assert ab.verdict(PARENT, change, "lower", 0.25) == (9, "gain")
        change[1] = PARENT[1] + 0.01
        assert ab.verdict(PARENT, change, "lower", 0.25)[0] == 8
        assert ab.verdict(PARENT, change, "lower", 0.25)[1] != "gain"

    def test_regression_beyond_the_bound(self):
        change = [p + 0.3 for p in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25) == (0, "regression")

    def test_worse_within_the_bound(self):
        change = [p + 0.2 for p in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25) == (
            0, "within bound"
        )

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        parent = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        change = [p - 0.05 for p in reversed(parent)]
        assert ab.verdict(parent, change, "lower", 0.25)[1] == "unresolved"

    def test_wide_spread_resolved_when_every_change_run_is_better(self):
        parent = [2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0]
        change = [1.6, 1.6, 1.6, 1.6, 1.6, 1.9, 1.9, 1.9, 1.9, 1.9]
        # the medians differ by less than the parent's IQR, so no gain
        assert ab.verdict(parent, change, "lower", 0.25) == (
            10, "within bound"
        )

    @pytest.mark.parametrize("better", ["lower", "higher"])
    def test_ties_count_for_neither_side(self, better):
        change = list(PARENT)
        assert ab.verdict(PARENT, change, better, 0.25) == (0, "within bound")
        change[:9] = [p - 0.5 if better == "lower" else p + 0.5
                      for p in PARENT[:9]]
        # nine wins and one tie in ten pairs is nine tenths: a gain
        assert ab.verdict(PARENT, change, better, 0.25) == (9, "gain")
