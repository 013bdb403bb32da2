"""Stable file formats: trajectory CSV, event JSONL, snapshot/measure CSV.

Floats are written with 17 significant digits so re-parsing reproduces
them bit-exactly.  Every output starts with a provenance comment line
carrying the tool version and a hash of the generating configuration;
readers skip '#' lines.  Each CSV row is one `%` format of the row's
values: `%.17g` for a float, `%d` for an integer, `%s` for text.
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
    "write_events_jsonl",
    "write_xy_csv",
    "write_measure_csv",
    "write_stepfunction_csv",
    "write_convergence_csv",
]


def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def provenance_line(cfg_hash: str) -> str:
    return f"# annihilate v{__version__} config={cfg_hash}"


def _write_lines(path, lines: Iterable[str], cfg_hash: str) -> None:
    Path(path).write_text("\n".join([provenance_line(cfg_hash), *lines]) + "\n")


def _write_table(path, header: str, row_format: str, rows: Iterable[tuple], cfg_hash: str) -> None:
    """The provenance line, the header, then `row_format % row` for each row."""
    _write_lines(path, [header, *(row_format % row for row in rows)], cfg_hash)


def write_trajectory_csv(path, times, positions, charges, cfg_hash: str = "none") -> None:
    """Columns: t, x_1..x_n, b_1..b_n, in that fixed order; row k from times[k], positions[k], charges[k]."""
    n = positions.shape[1]
    header = ",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + [f"b_{i + 1}" for i in range(n)])
    row_format = ",".join(["%.17g"] * (1 + n) + ["%d"] * n)
    rows = ((t, *x, *b) for t, x, b in zip(times.tolist(), positions.tolist(), charges.tolist()))
    _write_table(path, header, row_format, rows, cfg_hash)


def write_events_jsonl(path, events: Iterable[EventRecord], cfg_hash: str = "none") -> None:
    _write_lines(path, (json.dumps({"tau": ev.tau, "y": ev.y, "cluster": list(ev.cluster),
                                    "pre": list(ev.pre_charges), "post": list(ev.post_charges)})
                        for ev in events), cfg_hash)


def write_xy_csv(path, xs, ys, cfg_hash: str = "none", names=("x", "u")) -> None:
    _write_table(path, ",".join(names), "%.17g,%.17g", zip(xs, ys), cfg_hash)


def write_measure_csv(path, mu, cfg_hash: str = "none") -> None:
    write_xy_csv(path, mu.locations, mu.weights, cfg_hash, names=("location", "weight"))


def write_stepfunction_csv(path, u, cfg_hash: str = "none") -> None:
    """Breakpoints and plateau values: n_jumps + 1 rows, first has x = -inf."""
    xs = np.concatenate([[-np.inf], u.locations])
    write_xy_csv(path, xs, u.plateau_values(), cfg_hash, names=("from_x", "value"))


def write_convergence_csv(path, result, cfg_hash: str = "none") -> None:
    rows = ((r.n, r.e_n, r.events, r.runtime_s, result.monotone, r.error or "") for r in result.rows)
    _write_table(path, "n,e_n,events,runtime_s,monotone,error", "%d,%.17g,%d,%.17g,%d,%s",
                 rows, cfg_hash)
