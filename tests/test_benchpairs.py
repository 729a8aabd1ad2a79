"""tools/benchpairs.py's verdicts on synthetic run records; no benchmark is run."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "spread_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "share", "unit": "ratio", "better": "lower"},
]
PARENT_WALL = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]


def _runs(change_wall, change_failed=0):
    """Ten seeds of both sides; the change's wall_s as given, its other metrics fixed."""
    runs = {"change": [], "parent": []}
    for i, seed in enumerate(range(1, 11)):
        for side in runs:
            parent = side == "parent"
            metrics = {
                "wall_s": PARENT_WALL[i] if parent else change_wall[i],
                "rate": 100.0 if parent else 85.0,  # 15 % lower on a higher-is-better metric
                "spread_s": float(seed) if parent else seed - 0.01,  # wins all, within the IQR
                "share": 0.5,
            }
            metrics = {k: v for k, v in metrics.items() if v is not None}
            failed = 0 if parent or seed != 4 else change_failed
            runs[side].append({"seed": seed, "exit": 0, "attempted": 3, "failed": failed,
                               "metrics": metrics})
    return runs


def test_a_tie_is_no_win_and_nine_wins_make_a_gain():
    wall = [0.8 * p for p in PARENT_WALL]
    wall[2] = PARENT_WALL[2]  # a tie
    out = benchpairs.summarize("verify", _runs(wall), END_TO_END)
    assert out["end_to_end"]["wall_s"]["change_wins"] == 9
    verdict = out["verdict"]
    assert verdict["metrics"]["wall_s"] == {"gain": True, "within_bound": True}
    # 15 % lower on a higher-is-better metric with a 10 % bound
    assert verdict["metrics"]["rate"] == {"gain": False, "within_bound": False}
    # ten wins, but the medians lie closer than the parent's q3 - q1
    assert out["end_to_end"]["spread_s"]["change_wins"] == 10
    assert verdict["metrics"]["spread_s"] == {"gain": False, "within_bound": True}
    # no bound in BENCHMARK.json: no verdict on the bound, and a tie everywhere is no gain
    assert verdict["metrics"]["share"] == {"gain": False, "within_bound": None}
    assert verdict["failed_items_rose"] is False
    assert benchpairs.verdict_line(out) == (
        "verify: gain wall_s; over bound rate; no verdict share; failed items rose: False"
    )


def test_a_missing_value_is_no_win_and_failed_items_are_counted():
    wall = [0.8 * p for p in PARENT_WALL]
    wall[2] = PARENT_WALL[2]  # a tie
    wall[6] = None  # a run that printed no wall_s
    out = benchpairs.summarize("verify", _runs(wall, change_failed=1), END_TO_END)
    entry = out["end_to_end"]["wall_s"]
    assert entry["change"]["values"][6] is None and entry["change_wins"] == 8
    assert out["verdict"]["metrics"]["wall_s"] == {"gain": False, "within_bound": True}
    assert out["failed"] == {"change": 1, "parent": 0}
    assert out["verdict"]["failed_items_rose"] is True


def test_no_value_on_a_side_gives_no_verdict():
    out = benchpairs.summarize("verify", _runs([None] * 10), END_TO_END)
    assert out["end_to_end"]["wall_s"]["change_over_parent"] is None
    assert out["verdict"]["metrics"]["wall_s"] == {"gain": None, "within_bound": None}
