"""Smoke test of the benchmark: every workload at tiny sizes, no timing assertions.

Run from the repository root:  python3 -m pytest benchmarks/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

from layers import COUNTS, PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def tiny(trace: int) -> dict:
    rc, lines = run("--workload", "all", "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
    assert rc == 0, "\n".join(lines)
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_twice() -> tuple[dict, dict]:
    return tiny(1), tiny(1)


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_end_to_end_schema():
    out = tiny(0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {f"{w}.{m}": u for w in WORKLOADS for m, u in END_TO_END.items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_per_layer_schema(traced_twice):
    out = traced_twice[0]
    assert out["correct"] is True and out["failed"] == 0
    expected = {f"{w}.{m}": u for w in WORKLOADS for m, u in PER_LAYER.items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["metrics"]["ladder.particles.velocity_field.calls"]["value"] > 0
    assert out["metrics"]["hj_fine.hjsolver.levy_operator_all.calls"]["value"] > 0
    assert out["metrics"]["measure_aec.measures.aec_modulus.intervals"]["value"] > 0
    assert out["metrics"]["verify.moments.d_M.calls"]["value"] > 0


def test_counts_repeat_exactly(traced_twice):
    first, second = traced_twice
    for w in WORKLOADS:
        for name in COUNTS:
            key = f"{w}.{name}"
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    rc, lines = run("--workload", "ladder", "--seed", "0", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
