import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)
verdict = ab_bench.verdict

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.9825, 1.0175


def test_a_claim_needs_nine_wins_in_ten_and_a_gap_wider_than_the_base_iqr():
    v = verdict(BASE, [b - 0.1 for b in BASE], "lower", claim=True)
    assert (v.status, v.passed, v.wins, v.pairs) == ("gain", True, 10, 10)
    assert v.base_iqr == pytest.approx(0.035)
    # eight wins in ten are not enough, however large the gap
    eight = [b - 0.1 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]]
    assert verdict(BASE, eight, "lower", claim=True)[:3] == ("no gain", False, 8)
    # nine wins and a tie: the tie counts for neither side
    nine = [b - 0.1 for b in BASE[:9]] + BASE[9:]
    assert verdict(BASE, nine, "lower", claim=True)[:3] == ("gain", True, 9)
    # every pair won, but by less than the base's own spread
    assert verdict(BASE, [b - 0.01 for b in BASE], "lower", claim=True)[:3] == ("no gain", False, 10)


def test_a_claim_on_a_higher_is_better_metric_wins_upwards():
    assert verdict(BASE, [b + 0.1 for b in BASE], "higher", claim=True).passed
    assert not verdict(BASE, [b - 0.1 for b in BASE], "higher", claim=True).passed


def test_an_unclaimed_metric_may_worsen_by_its_bound_of_the_base_median():
    assert verdict(BASE, [b * 1.2 for b in BASE], "lower", bound=0.25).status == "within bound"
    assert verdict(BASE, [b * 1.3 for b in BASE], "lower", bound=0.25)[:2] == ("worse", False)
    assert verdict(BASE, [b * 0.7 for b in BASE], "higher", bound=0.25).status == "worse"
    assert verdict(BASE, [b * 1.3 for b in BASE], "higher", bound=0.25).status == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert verdict(BASE, wide, "lower", bound=0.1)[:2] == ("unresolved", False)
    assert verdict(wide, [0.4] * 10, "lower", bound=0.1)[:2] == ("within bound", True)


def test_verdict_refuses_mismatched_or_unbounded_input():
    with pytest.raises(ValueError):
        verdict(BASE, BASE[:9], "lower", bound=0.1)
    with pytest.raises(ValueError):
        verdict(BASE, BASE, "faster", bound=0.1)
    with pytest.raises(ValueError):
        verdict(BASE, BASE, "lower")
