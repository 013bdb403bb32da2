"""Benchmark of the `annihilate` CLI: end-to-end metrics per workload, or per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload ladder --seed 0 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 24 --trace 0

Every sample is a fresh single-threaded Python process (benchmarks/child.py)
that imports the package from `src/`, writes the workload's configs and
calls `annihilate.cli.main` the way the console script does, one call after
the other (a closed loop with one client).  A run starts samples until
`--seconds` is spent, with at least MIN_TIMED timed samples and MIN_SETUP
set-up samples, and reports medians.  The outputs of every sample are
checked; a failed check is a failed operation and makes the exit code 1.

`--trace 0` reports the end-to-end metrics:
  wall_s       reference seconds (clock.py) of the timed `cli.main` calls
  setup_s      reference seconds from process start to the first timed call
  peak_rss_mb  peak resident memory of the sample process
  err_top      the workload's accuracy figure (see README.md)
`--trace 1` makes one untraced and one traced sample and reports the
per-layer metrics of benchmarks/layers.py, with the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; fail_frac is failed / attempted.  The
full record, with machine and provenance, goes to benchmarks/results/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from child import MARKER  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "err_top": "1"}
MIN_TIMED = 2
MIN_SETUP = 3
MAX_SETUP = 9
RUN_LIMIT_S = 170.0  # a run, hung samples included, ends within this
# one thread for every BLAS / OpenMP pool the child might start
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    )
}


class SampleFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _import_cumulative_s(stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1]) / 1e6
    return 0.0


def sample(workload: str, seed: int, size: str, mode: str, work: Path, deadline: float,
           spans: Path | None = None) -> dict:
    """One child process, killed at `deadline`; returns its parsed result."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    flags = ["-X", "importtime"] if mode == "traced" else []
    args = ["--workload", workload, "--seed", str(seed), "--size", size, "--mode", mode,
            "--workdir", str(work)]
    if spans is not None:
        args += ["--spans", str(spans)]
    spawned = time.monotonic()
    timeout = max(1.0, deadline - spawned)
    try:
        proc = subprocess.run(
            [sys.executable, *flags, str(BENCH / "child.py"), *args, "--spawned", repr(spawned)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"{workload} {mode} sample killed after {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(MARKER)]
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        raise SampleFailed(f"{workload} {mode} sample exited {proc.returncode}:\n{tail}")
    result = json.loads(lines[-1][len(MARKER):])
    if mode == "traced":
        result["scipy_signal_import_s"] = _import_cumulative_s(proc.stderr, "scipy.signal")
    return result


def _ops(samples: list[dict], run_checks: dict[str, bool]) -> tuple[int, list[str]]:
    """Operations attempted and the failed ones: every sample's, plus the run's own checks."""
    ops = [op for s in samples for op in s["ops"]]
    ops += [(name, ok, "") for name, ok in run_checks.items()]
    return len(ops), [f"{name}: {detail}".rstrip(": ") for name, ok, detail in ops if not ok]


def _finite(x: float) -> float | None:
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def measure(workload: str, seed: int, size: str, seconds: float, work: Path, deadline: float) -> dict:
    """Timed samples, then set-up-only samples, until `seconds` are spent."""
    start = time.monotonic()
    timed: list[dict] = []
    while True:
        timed.append(sample(workload, seed, size, "timed", work, deadline))
        elapsed = time.monotonic() - start
        if len(timed) >= MIN_TIMED and elapsed * (len(timed) + 1) / len(timed) > seconds:
            break
    setups = list(timed)
    while len(setups) < MAX_SETUP:
        if (len(setups) >= MIN_SETUP
                and time.monotonic() - start + max(s["setup_raw_s"] for s in setups) > seconds):
            break
        setups.append(sample(workload, seed, size, "setup", work, deadline))
    errs = [s["err_top"] for s in timed]
    attempted, failures = _ops(timed, {f"err_top repeats across samples {errs}": len(set(errs)) == 1})
    return {
        "metrics": {
            "wall_s": statistics.median(s["wall_s"] for s in timed),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
            "err_top": _finite(timed[0]["err_top"]),
        },
        "units": END_TO_END,
        "attempted": attempted,
        "failures": failures,
        "samples": {
            **{key: [s[key] for s in timed]
               for key in ("wall_s", "wall_raw_s", "wall_speed", "speed_samples")},
            **{key: [s[key] for s in setups] for key in ("setup_s", "setup_raw_s", "setup_speed")},
            "peak_rss_mb": [s["peak_rss_mb"] for s in timed],
        },
    }


def trace(workload: str, seed: int, size: str, work: Path, deadline: float, spans: Path) -> dict:
    """One untraced and one traced sample; per-layer metrics of the traced one."""
    plain = sample(workload, seed, size, "timed", work, deadline)
    traced = sample(workload, seed, size, "traced", work, deadline, spans)
    metrics = dict(traced["layers"])
    metrics["setup.import_scipy_signal_s"] = traced["scipy_signal_import_s"]
    metrics["setup.import_annihilate_s"] = traced["import_s"]
    metrics["trace.overhead_s"] = traced["wall_raw_s"] - plain["wall_raw_s"]
    attempted, failures = _ops([plain, traced], {"tracing leaves err_top unchanged":
                                                 plain["err_top"] == traced["err_top"]})
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "units": PER_LAYER,
        "attempted": attempted,
        "failures": failures,
        "samples": {"wall_raw_s": [plain["wall_raw_s"]], "traced_wall_s": [traced["wall_s"]]},
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {**{k: os.environ.get(k) for k in THREAD_ENV}, "child": THREAD_ENV},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def run_one(workload: str, seed: int, size: str, seconds: float, traced: bool) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(traced)}" + ("" if size == "full" else f"-{size}")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    work = BENCH / ".work" / f"{tag}-{os.getpid()}"
    record = {"workload": workload, "seed": seed, "size": size, "seconds": seconds,
              "trace": int(traced), "provenance": provenance()}
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if traced:
            out = trace(workload, seed, size, work, deadline, results / f"{tag}.spans.json")
        else:
            out = measure(workload, seed, size, seconds, work, deadline)
    except SampleFailed as exc:
        out = {"metrics": {}, "units": {}, "attempted": 1, "failures": [str(exc)]}
    record.update(out)
    record["failed"] = len(out["failures"])
    record["correct"] = not out["failures"] and set(out["metrics"]) == set(
        PER_LAYER if traced else END_TO_END)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _print_record(rec: dict) -> None:
    samples = rec.get("samples", {})
    n = len(samples.get("wall_raw_s", []))
    print(f"# {rec['workload']}: seed {rec['seed']}, {n} timed sample(s), "
          f"fail_frac {rec['failed'] / max(1, rec['attempted']):.4g} "
          f"({rec['failed']}/{rec['attempted']})")
    if "wall_speed" in samples:
        print(f"#   raw seconds: wall {statistics.median(samples['wall_raw_s']):.4g}, "
              f"setup {statistics.median(samples['setup_raw_s']):.4g}; host speed during the "
              f"timed calls {statistics.median(samples['wall_speed']):.3f} of the reference")
    for name, value in rec["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {rec['workload']:<12} {name:<44} {shown:>14} {rec['units'][name]}")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full", help="tiny: smoke-test inputs")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "annihilate" / "cli.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'annihilate'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_one(w, args.seed, args.size, args.seconds, bool(args.trace)) for w in names]
    print("# provenance " + json.dumps(records[0]["provenance"], sort_keys=True))
    for rec in records:
        _print_record(rec)

    def key(rec, name):
        return name if args.workload != "all" else f"{rec['workload']}.{name}"

    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            key(r, name): {"value": value, "unit": r["units"][name]}
            for r in records for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
