"""The claim rule of tools/pairs.py."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(pairs):
    return pairs.compare


PARENT = [10.0 + k / 10 for k in range(10)]  # quartiles 10.175 and 10.725 (exclusive method)


@pytest.mark.parametrize(
    "change, better, wins, claim",
    [
        ([p - 1.0 for p in PARENT], "lower", 10, True),
        ([p + 1.0 for p in PARENT], "higher", 10, True),
        ([p - 1.0 for p in PARENT], "higher", 0, False),
        ([p - 0.2 for p in PARENT], "lower", 10, False),  # gap inside the IQR
        (PARENT[:1] + [p - 1.0 for p in PARENT[1:]], "lower", 9, True),  # a tie
        (PARENT[:2] + [p - 1.0 for p in PARENT[2:]], "lower", 8, False),
    ],
)
def test_claim_needs_nine_of_ten_wins_and_a_gap_past_the_parent_iqr(
    compare, change, better, wins, claim
):
    out = compare(PARENT, change, better)
    assert out["wins"] == wins and out["claim"] is claim
    assert out["parent"] == pytest.approx((10.45, 10.175, 10.725))


def test_all_runs_every_workload_in_order_swapping_the_first_side(
    pairs, monkeypatch, tmp_path, capsys
):
    parent, change = tmp_path / "parent", tmp_path / "change"
    passes = []

    def fake_pass(checkout, workload, seed):
        passes.append((checkout.name, workload, seed))
        cell = {"key": "cell", "error": None, "violations": [], "digest": "",
                "counters": {"steps": 10}, "run_s": 1.0, "setup_s": 0.1}
        return {"wall_s": 1.0, "cells": [cell], "peak_rss_kb": 1024, "errors": []}

    monkeypatch.setattr(pairs, "one_pass", fake_pass)
    argv = [str(parent), str(change), "--workload", "all", "--pairs", "2", "--seed", "3"]
    assert pairs.main(argv) == 0
    assert passes == [
        (side, workload, 3)
        for workload in pairs.WORKLOADS
        for side in ("parent", "change", "change", "parent")
    ]
    tables = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()
              if "pairs; failed cells" in line]
    assert tables == list(pairs.WORKLOADS)
