"""Stable file formats: trajectory CSV, event JSONL, snapshot/measure CSV.

Floats are written with 17 significant digits so re-parsing reproduces
them bit-exactly.  Every output starts with a provenance comment line
carrying the tool version and a hash of the generating configuration;
readers skip '#' lines.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .particles import EventRecord

__all__ = [
    "config_hash",
    "provenance_line",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_events_jsonl",
    "read_events_jsonl",
    "write_xy_csv",
    "write_measure_csv",
    "write_stepfunction_csv",
    "write_convergence_csv",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def provenance_line(cfg_hash: str) -> str:
    return f"# annihilate v{__version__} config={cfg_hash}"


def write_trajectory_csv(path, times, states, cfg_hash: str = "none") -> None:
    """Columns: t, x_1..x_n, b_1..b_n, in that fixed order."""
    n = states[0].n
    lines = [provenance_line(cfg_hash)]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"b_{i + 1}" for i in range(n)]
    lines.append(",".join(header))
    for t, st in zip(times, states):
        row = [_fmt(t)] + [_fmt(v) for v in st.positions] + [str(int(b)) for b in st.charges]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path):
    """Returns (times, positions, charges) arrays; bit-exact round trip."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        rows.append(line.split(","))
    n = (len(rows[0]) - 1) // 2
    times = np.array([float(r[0]) for r in rows])
    xs = np.array([[float(v) for v in r[1 : 1 + n]] for r in rows])
    bs = np.array([[int(v) for v in r[1 + n :]] for r in rows])
    return times, xs, bs


def write_events_jsonl(path, events: Iterable[EventRecord], cfg_hash: str = "none") -> None:
    lines = [provenance_line(cfg_hash)]
    for ev in events:
        lines.append(
            json.dumps(
                {
                    "tau": ev.tau,
                    "y": ev.y,
                    "cluster": list(ev.cluster),
                    "pre": list(ev.pre_charges),
                    "post": list(ev.post_charges),
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_events_jsonl(path) -> list[dict]:
    out = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        out.append(json.loads(line))
    return out


def write_xy_csv(path, xs, ys, cfg_hash: str = "none", names=("x", "u")) -> None:
    lines = [provenance_line(cfg_hash), ",".join(names)]
    for x, y in zip(xs, ys):
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_measure_csv(path, mu, cfg_hash: str = "none") -> None:
    write_xy_csv(path, mu.locations, mu.weights, cfg_hash, names=("location", "weight"))


def write_stepfunction_csv(path, u, cfg_hash: str = "none") -> None:
    """Breakpoints and plateau values: n_jumps + 1 rows, first has x = -inf."""
    xs = np.concatenate([[-np.inf], u.locations])
    write_xy_csv(path, xs, u.plateau_values(), cfg_hash, names=("from_x", "value"))


def write_convergence_csv(path, result, cfg_hash: str = "none") -> None:
    lines = [provenance_line(cfg_hash), "n,e_n,events,runtime_s,monotone,error"]
    for row in result.rows:
        lines.append(
            f"{row.n},{_fmt(row.e_n)},{row.events},{_fmt(row.runtime_s)},"
            f"{int(result.monotone)},{row.error or ''}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
