"""Benchmark workloads: the CLI calls each one makes and the checks on its outputs.

Every workload is a list of `annihilate` CLI calls (command, config) built
from the benchmark seed and a size ("full" for measurement, "tiny" for the
smoke test), plus a check that reads the files those calls wrote.  Each
check returns one verdict per operation (ladder row, named property check,
requested snapshot, measure family) and the workload's accuracy figure
`err_top`.  README.md says why each workload exists and what is left out.

This module imports nothing from `annihilate` at import time, so the
runner can load it in a checkout without the package.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    """Verdict on one operation of a workload."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Outcome:
    ops: list[Op]
    err_top: float


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[int, str], list[tuple[str, dict]]]
    check: Callable[[list[Path], list[int], int, str], Outcome]


def _read_rows(path: Path) -> list[list[str]]:
    """Data rows of a package CSV: provenance '#' line and header skipped."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _exit_ops(names: list[str], rcs: list[int]) -> list[Op] | None:
    """Every operation fails when a CLI call exits nonzero."""
    if any(rcs):
        return [Op(n, False, f"exit codes {rcs}") for n in names]
    return None


# ---------------------------------------------------------------------------
# ladder: converge on double_bump against the grid reference

LADDER_NS = {"full": (8, 16, 32, 64), "tiny": (8, 16)}
LADDER_REF_H = {"full": 1 / 256, "tiny": 1 / 64}
LADDER_SCAN = {"full": 2**15, "tiny": 2**12}
# Seed-0 (offset 0.5) rows at the commit that defined this benchmark:
# (events, e_n) per rung.  Later commits must reproduce them.
LADDER_SEED0 = {
    "full": ((5, 0.13994041995184919), (8, 0.073087966718697786),
             (15, 0.037056632493085544), (30, 0.01963953329674363)),
    "tiny": ((5, 0.14301713769076357), (8, 0.077205022610109822)),
}
LADDER_E_RTOL = 1e-4


def ladder_offset(seed: int) -> float:
    """Sampling offset a of the level crossings eps (Z + a)."""
    if seed == 0:
        return 0.5
    return random.Random(seed).uniform(0.4, 0.6)


def _ladder_calls(seed: int, size: str) -> list[tuple[str, dict]]:
    return [(
        "converge",
        {"experiment": {
            "datum": "double_bump",
            "ns": list(LADDER_NS[size]),
            "offset": ladder_offset(seed),
            "ref_h": LADDER_REF_H[size],
            "scan_points": LADDER_SCAN[size],
            "seed": seed,
        }},
    )]


def _ladder_check(outs: list[Path], rcs: list[int], seed: int, size: str) -> Outcome:
    ns = LADDER_NS[size]
    names = [f"row_n{n}" for n in ns]
    failed = _exit_ops(names, rcs)
    if failed:
        return Outcome(failed, math.nan)
    rows = {int(r[0]): r for r in _read_rows(outs[0] / "convergence.csv")}
    ops = []
    prev = math.inf
    e_top = math.nan
    for k, n in enumerate(ns):
        row = rows.get(n)
        if row is None:
            ops.append(Op(names[k], False, "row missing"))
            continue
        e_n, events, monotone, error = float(row[1]), int(row[2]), row[4] == "1", row[5]
        problems = []
        if error:
            problems.append(f"error {error!r}")
        if not e_n < prev:
            problems.append(f"e_n {e_n:.6g} not below {prev:.6g}")
        if not monotone:
            problems.append("ladder not monotone")
        if seed == 0:
            ref_events, ref_e = LADDER_SEED0[size][k]
            if events != ref_events:
                problems.append(f"events {events} != {ref_events}")
            if not abs(e_n - ref_e) <= LADDER_E_RTOL * ref_e:
                problems.append(f"e_n {e_n:.8g} != {ref_e:.8g}")
        ops.append(Op(names[k], not problems, "; ".join(problems)))
        prev = e_n
        e_top = e_n
    return Outcome(ops, e_top)


# ---------------------------------------------------------------------------
# verify: the randomized property suite

VERIFY_CHECKS = (
    "m1_conservation", "net_charge", "m2_drift", "equal_sign_gap_bound",
    "opposite_gap_bound", "collision_slope", "dm_lipschitz", "ode_residual",
    "energy_decay", "event_structure", "operator_identity", "envelope_sandwich",
    "hj_comparison", "measures_cdf_consistency", "odd_lattice_rate",
    "stability_monotone",
)
VERIFY_SUITE = {
    "full": {"sizes": [8], "runs": 20, "t_end": 1.0},
    "tiny": {"sizes": [4, 6], "runs": 2, "t_end": 0.5},
}


def _verify_calls(seed: int, size: str) -> list[tuple[str, dict]]:
    return [("verify", {"verify": {"seed": seed, **VERIFY_SUITE[size]}})]


def _verify_check(outs: list[Path], rcs: list[int], seed: int, size: str) -> Outcome:
    failed = _exit_ops(list(VERIFY_CHECKS), rcs)
    if failed:
        return Outcome(failed, math.nan)
    report = json.loads((outs[0] / "properties.json").read_text())
    ops = []
    for name in VERIFY_CHECKS:
        chk = report["checks"].get(name)
        if chk is None:
            ops.append(Op(name, False, "check missing"))
        else:
            ops.append(Op(name, bool(chk["passed"]), chk["detail"]))
    # relative error of the odd-lattice initial gap-square rate (tolerance 1e-3)
    margin = report["checks"].get("odd_lattice_rate", {}).get("margin")
    err = 1e-3 - margin if margin is not None else math.nan
    return Outcome(ops, err)


# ---------------------------------------------------------------------------
# hj_fine: the limit solver on a fine grid, compared with a coarser solve

HJ_GRID = {"full": (1 / 1024, 1 / 256), "tiny": (1 / 128, 1 / 32)}  # (h, check h)
HJ_L, HJ_RHO, HJ_T_END, HJ_SNAPSHOTS = 4.0, 1 / 16, 0.25, 7
# Per-frame sup gap |u_h - u_{4h}| on the coarse nodes at the commit that
# defined this benchmark; a frame may not drift further from the coarse solve.
HJ_GAP = {
    "full": (0.0, 0.0010367362585408857, 0.0012470562212872054, 0.0011710907029271259,
             0.0010229944191800025, 0.0009080545392775724, 0.0008196130510666338),
    "tiny": (0.0, 0.006919718059654249, 0.007793498691844206, 0.008361190546147597,
             0.007616749993023822, 0.0068878736785141365, 0.006282642392803212),
}
HJ_GAP_SLACK = 1.01


def _hj_calls(seed: int, size: str) -> list[tuple[str, dict]]:
    h = HJ_GRID[size][0]
    return [(
        "hj",
        {"scheme": {"L": HJ_L, "h": h, "rho": HJ_RHO, "t_end": HJ_T_END},
         "hj": {"initial": "double_bump", "snapshots": HJ_SNAPSHOTS}},
    )]


def hj_gaps(outs: list[Path], size: str):
    """(frames, coarse frames, per-frame sup gap on the coarse nodes)."""
    import numpy as np
    from annihilate import harness, hjsolver

    h, h_check = HJ_GRID[size]
    frames = []
    for k in range(HJ_SNAPSHOTS):
        path = outs[0] / f"hj_{k:03d}.csv"
        frames.append(np.array(_read_rows(path), dtype=float) if path.exists() else None)
    coarse = hjsolver.solve_hj(
        harness.CATALOG["double_bump"].u0,
        hjsolver.SchemeConfig(L=HJ_L, h=h_check, rho=HJ_RHO, t_end=HJ_T_END),
        np.linspace(0.0, HJ_T_END, HJ_SNAPSHOTS),
    )
    stride = round(h_check / h)
    gaps = []
    for fr, co in zip(frames, coarse):
        if fr is None or fr.shape[0] != (co.xs.size - 1) * stride + 1:
            gaps.append(math.inf)
            continue
        fine = fr[::stride]
        if not np.allclose(fine[:, 0], co.xs, rtol=0.0, atol=1e-12):
            gaps.append(math.inf)
            continue
        gaps.append(float(np.max(np.abs(fine[:, 1] - co.values))))
    return frames, coarse, gaps


def _hj_check(outs: list[Path], rcs: list[int], seed: int, size: str) -> Outcome:
    names = [f"frame_{k}" for k in range(HJ_SNAPSHOTS)]
    failed = _exit_ops(names, rcs)
    if failed:
        return Outcome(failed, math.nan)
    from annihilate import harness

    frames, coarse, gaps = hj_gaps(outs, size)
    if frames[0] is None:
        return Outcome([Op(n, False, "initial frame missing") for n in names], math.nan)
    u0 = harness.CATALOG["double_bump"].u0
    initial = frames[0][:, 1]
    lo, hi = float(initial.min()), float(initial.max())
    ops = []
    for k, (fr, gap) in enumerate(zip(frames, gaps)):
        if fr is None:
            ops.append(Op(names[k], False, "frame missing"))
            continue
        problems = []
        if k == 0 and any(float(u0(x)) != u for x, u in fr):
            problems.append("initial frame is not u0 on the grid")
        if fr[0, 1] != initial[0] or fr[-1, 1] != initial[-1]:
            problems.append("tails changed")
        if fr[:, 1].min() < lo - 1e-12 or fr[:, 1].max() > hi + 1e-12:
            problems.append("maximum principle violated")
        allowed = HJ_GAP[size][k] * HJ_GAP_SLACK + 1e-14
        if not gap <= allowed:
            problems.append(f"sup gap to h={HJ_GRID[size][1]:g} solve {gap:.3e} > {allowed:.3e}")
        ops.append(Op(names[k], not problems, "; ".join(problems)))
    finite = [g for g in gaps if math.isfinite(g)]
    return Outcome(ops, max(finite) if finite else math.nan)


# ---------------------------------------------------------------------------
# measure_aec: AEC and narrow-proxy diagnostics on two families

MEASURE_NS = {"full": [256, 512, 1024, 2048], "tiny": [16, 32, 64]}
MEASURE_FAMILIES = ("lipschitz_cdf", "dipole")


def _measure_calls(seed: int, size: str) -> list[tuple[str, dict]]:
    return [("measure", {"measure": {"family": f, "ns": MEASURE_NS[size]}})
            for f in MEASURE_FAMILIES]


def _measure_check(outs: list[Path], rcs: list[int], seed: int, size: str) -> Outcome:
    names = list(MEASURE_FAMILIES)
    failed = _exit_ops(names, rcs)
    if failed:
        return Outcome(failed, math.nan)
    ns = MEASURE_NS[size]
    reports = [json.loads((out / "measure_report.json").read_text()) for out in outs]
    ops = []
    for name, out, rep in zip(names, outs, reports):
        problems = []
        if rep["ns"] != ns:
            problems.append(f"ns {rep['ns']}")
        missing = [n for n in ns if not (out / f"measure_{name}_{n:04d}.csv").exists()]
        if missing:
            problems.append(f"measure CSV missing for n={missing}")
        s = rep["aec_defects"]
        if name == "lipschitz_cdf":
            if not rep["aec_passed"]:
                problems.append("AEC failed")
            if any(abs(b / a - 0.5) > 1e-9 for a, b in zip(s[:-1], s[1:])):
                problems.append(f"defects do not halve: {s}")
        else:
            if rep["aec_passed"]:
                problems.append("AEC passed")
            if any(abs(c - 1.0) > 1e-12 for c in rep["cdf_sup"]):
                problems.append(f"cdf_sup {rep['cdf_sup']}")
        ops.append(Op(name, not problems, "; ".join(problems)))
    return Outcome(ops, float(reports[0]["aec_defects"][-1]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder", _ladder_calls, _ladder_check),
        Workload("verify", _verify_calls, _verify_check),
        Workload("hj_fine", _hj_calls, _hj_check),
        Workload("measure_aec", _measure_calls, _measure_check),
    )
}
