"""Stable file formats: trajectory CSV, event JSONL, snapshot/measure CSV.

Floats are written with 17 significant digits so re-parsing reproduces
them bit-exactly.  Every output starts with a provenance comment line
carrying the tool version and a hash of the generating configuration;
readers skip '#' lines.  Each CSV row is one `%` format of the row's
values: `%.17g` for a float, `%d` for an integer, `%s` for text.  Tables
stream CHUNK_ROWS rows at a time, so a failed write can leave a partial file.
"""
from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .particles import EventRecord

__all__ = [
    "config_hash",
    "provenance_line",
    "write_trajectory_csv",
    "write_events_jsonl",
    "write_xy_csv",
    "write_measure_csv",
    "write_stepfunction_csv",
    "write_convergence_csv",
]

CHUNK_ROWS = 1024  # rows formatted and written at a time


def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def provenance_line(cfg_hash: str) -> str:
    return f"# annihilate v{__version__} config={cfg_hash}"


def _write_table(path, header: str, row_format: str, columns, cfg_hash: str) -> None:
    """The provenance line, the header, then `row_format % row` for each row, one `%` per chunk."""
    with Path(path).open("w") as f:
        f.write(f"{provenance_line(cfg_hash)}\n{header}\n")
        for lo in range(0, len(columns[0]) if columns else 0, CHUNK_ROWS):
            chunk = [np.asarray(c[lo : lo + CHUNK_ROWS]).tolist() for c in columns]
            f.write((f"{row_format}\n" * len(chunk[0])) % tuple(chain.from_iterable(zip(*chunk))))


def write_trajectory_csv(path, times, positions, charges, cfg_hash: str = "none") -> None:
    """Columns: t, x_1..x_n, b_1..b_n, in that fixed order; row k from times[k], positions[k], charges[k]."""
    n = positions.shape[1]
    header = ",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + [f"b_{i + 1}" for i in range(n)])
    row_format = ",".join(["%.17g"] * (1 + n) + ["%d"] * n)
    _write_table(path, header, row_format, [times, *positions.T, *charges.T], cfg_hash)


def write_events_jsonl(path, events: Iterable[EventRecord], cfg_hash: str = "none") -> None:
    lines = (json.dumps({"tau": ev.tau, "y": ev.y, "cluster": list(ev.cluster),
                         "pre": list(ev.pre_charges), "post": list(ev.post_charges)})
             for ev in events)
    Path(path).write_text("\n".join([provenance_line(cfg_hash), *lines]) + "\n")


def write_xy_csv(path, xs, ys, cfg_hash: str = "none", names=("x", "u")) -> None:
    _write_table(path, ",".join(names), "%.17g,%.17g", [xs, ys], cfg_hash)


def write_measure_csv(path, mu, cfg_hash: str = "none") -> None:
    write_xy_csv(path, mu.locations, mu.weights, cfg_hash, names=("location", "weight"))


def write_stepfunction_csv(path, u, cfg_hash: str = "none") -> None:
    """Breakpoints and plateau values: n_jumps + 1 rows, first has x = -inf."""
    xs = np.concatenate([[-np.inf], u.locations])
    write_xy_csv(path, xs, u.plateau_values(), cfg_hash, names=("from_x", "value"))


def write_convergence_csv(path, result, cfg_hash: str = "none") -> None:
    rows = result.rows
    columns = [[getattr(r, name) for r in rows] for name in ("n", "e_n", "events", "runtime_s")]
    columns += [[result.monotone] * len(rows), [r.error or "" for r in rows]]
    _write_table(path, "n,e_n,events,runtime_s,monotone,error", "%d,%.17g,%d,%.17g,%d,%s",
                 columns, cfg_hash)
