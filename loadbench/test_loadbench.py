"""A seconds-long test of the benchmark itself, at its tiny size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest loadbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int, seed: int = 2) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "loadbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def _copy(tmp_path: Path, with_program: bool) -> Path:
    """A checkout holding BENCHMARK.json, the benchmark and maybe the program."""
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "loadbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_program:
        (root / "src").symlink_to(ROOT / "src")
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in named}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_vector_layer_is_idle_and_layers_add_up_on_fleet_static():
    proc = _run(ROOT, "fleet_static", 1)
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert metrics["vector.cohort_ticks"] == metrics["vector.self_s"] == 0
    selfs = [v for k, v in metrics.items() if k.endswith("_self_s") or k.endswith(".self_s")]
    assert sum(selfs) == pytest.approx(metrics["trace.root_s"], rel=1e-6)


def test_a_wrong_pinned_digest_fails_the_run(tmp_path):
    root = _copy(tmp_path, with_program=True)
    digests = root / "loadbench" / "digests.json"
    pinned = json.loads(digests.read_text())
    for world in pinned["fleet_static"]["tiny"]:
        pinned["fleet_static"]["tiny"][world] = "0" * 64
    digests.write_text(json.dumps(pinned))
    proc = _run(root, "fleet_static", 0)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "CHECK FAILED: ledger tip" in proc.stdout


def test_a_missing_program_fails_without_a_result(tmp_path):
    root = _copy(tmp_path, with_program=False)
    proc = _run(root, "fleet_static", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_calibration_inside_a_timed_call_is_not_counted():
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    # 200 nested calibration tasks take ~200 * REFERENCE_S; the outer
    # call's own work is a few microseconds per inner call.
    _, outer_s = speed.time(lambda: [speed.time(lambda: None) for _ in range(200)])
    assert 0 < outer_s < 20 * REFERENCE_S
