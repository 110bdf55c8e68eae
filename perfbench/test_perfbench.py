"""Self-test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that wrong results are counted as failures without stopping the run, that
layer self times add up to op wall time, and that the benchmark refuses to
run without the package source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_emitted_with_units(name):
    record, result = run.measure(name, seed=3, seconds=0.0, trace=0, tiny=True)
    assert result["correct"] and result["failed"] == 0, record["details"]["failures"]
    assert record["details"]["rounds"] >= record["details"]["min_rounds"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    for value in result["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0
    assert record["seed"] == 3 and record["inputs"] and record["why"]
    assert {"python", "numpy", "nproc", "cpu_model", "loadavg_at_start"} <= set(
        record["environment"])
    assert record["details"]["fail_ratio"] == 0
    json.dumps(record)  # the record is part of the output, so it must serialise


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_are_emitted_with_units(name):
    record, result = run.measure(name, seed=3, seconds=0.0, trace=1, tiny=True)
    assert result["correct"], record["details"]["failures"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    shares = sum(v for k, v in values.items() if k.startswith("share."))
    assert shares + values["trace.unattributed_share"] == pytest.approx(1.0)
    assert (run.ROOT / record["details"]["spans_file"]).is_file()


def _wrong(monkeypatch, module, attr, fake):
    pkg = run.load_package()
    monkeypatch.setattr(getattr(pkg, module), attr, fake)


@pytest.mark.parametrize(
    "name, module, attr, fake",
    [
        # the cusp pipeline disagrees with the closed form
        ("crosscheck-small", "cuspdim", "picard_rank_via_cusp", lambda lat: -1),
        # the Gauss sum breaks Milgram's formula
        ("weil-forms", "arith", "gauss_sum", lambda df: 0j),
        # the library reference the CLI output is compared with is wrong
        ("cli-mix", "rank", "picard_rank", lambda g: None),
    ],
)
def test_wrong_results_are_counted_as_failures(monkeypatch, name, module, attr, fake):
    _wrong(monkeypatch, module, attr, fake)
    record, result = run.measure(name, seed=3, seconds=0.0, trace=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert record["details"]["rounds"] >= 2  # the run went on after failing
    assert record["details"]["fail_ratio"] == result["failed"] / result["attempted"]


def test_tail_percentile_is_fixed_and_falls_inside_one_input():
    costs = list(range(1, 14))  # a round of 13 inputs of distinct cost
    for rounds in (3, 4, 5, 8):
        value, pct, beyond = run.tail(costs * rounds, round_size=13, min_rounds=3)
        assert pct == pytest.approx(100 * (1 - 3.5 / 13))
        assert beyond >= run.TAIL_BEYOND
        # the fourth input from the top, whatever the rounds
        assert value == pytest.approx(10, abs=0.25)
    assert run.tail_percentile(round_size=4, min_rounds=2) is None


def test_harrell_davis_estimates_quantiles():
    assert run.harrell_davis([7.0] * 30, 0.9) == pytest.approx(7.0)
    assert run.harrell_davis(range(1, 102), 0.5) == pytest.approx(51.0)
    assert run.harrell_davis(range(1, 1002), 0.95) == pytest.approx(951, abs=1)


def test_sweep_splits_concurrent_children_and_reconciles():
    parent = ["rank.rank_table", 0, 100, None, 0]
    a = ["rank.picard_rank", 10, 60, parent, 0]
    b = ["rank.picard_rank", 20, 80, parent, 0]
    selfs, loose = spans._sweep([parent, a, b], -10, 110)
    # 0-10 and 80-100 parent alone; 10-20 a; 20-60 a and b split; 60-80 b
    assert selfs["rank.rank_table"] == pytest.approx(30)
    assert selfs["rank.picard_rank"] == pytest.approx(70)
    assert loose == pytest.approx(20)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
