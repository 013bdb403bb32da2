"""Command-line driver: simulate, hj, converge, verify, measure.

Configuration is one YAML file of sections, each built by one callable
whose parameters give the section's keys, types and defaults.  `_COMMANDS`
names each command's sections and their builders; `main` builds every
section a command reads, then makes the output directory, and the command
gets only those sections, its output path and the config hash.  An
unknown or missing command or key, a section the command does not read,
or a bad value exits 2 before any output exists, and a typed run failure
of any layer exits 3; `main` alone turns an exception into an exit code,
with an error JSON on stdout.  `verify` exits 1 when an invariant fails.
Formats are in docs/formats.md.
"""
from __future__ import annotations

import argparse
import collections.abc
import functools
import inspect
import json
import logging
import os
import sys
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__, harness, hjsolver, io, measures, moments
from .integrator import EvolveError, IntegratorConfig, evolve
from .particles import InvalidState, ParticleState

log = logging.getLogger("annihilate")


def _keys(target) -> set[str]:
    """A section's keys: the parameters of the callable it is built with."""
    return set(inspect.signature(target).parameters)


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error, such as an unknown or missing command, is a ConfigError: exit 2."""
        raise ConfigError(message)


_REFUSED = (TypeError, ValueError, OverflowError)  # a builder's refusals: type, range, float64
# the layers' typed run failures, each an exit 3; InvalidState is evolve's post-event check
_RUN_FAILURES = (EvolveError, InvalidState, hjsolver.StepBudgetExceeded,
                 moments.NonFiniteMoments)


def _load_config(path: str | None, sections: dict) -> dict:
    """The YAML config at path, holding no section or key outside `sections`: section -> builder."""
    if path is None:
        return {}
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for section, content in raw.items():
        if section not in sections:
            raise ConfigError(f"config section {section!r} is not one of {sorted(sections)}")
        if content is None:
            raw[section] = {}
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = set(content) - _keys(sections[section])
        if unknown:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    return raw


def _convert(tp, value):
    """value as the annotated type tp: a scalar type, or a tuple or sequence of X.

    A bool is never a number and a fraction never an int: both are
    refused, not converted.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, collections.abc.Sequence):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_convert(args[0], v) for v in value)
    if isinstance(value, bool) and tp is not bool:
        raise TypeError(f"expected {tp.__name__}, got {value!r}")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return tp(value)


def _typed(target, section: dict) -> dict:
    """The section's values converted to the types target annotates their keys with."""
    hints = typing.get_type_hints(target)
    out = {}
    for key, value in section.items():
        try:
            out[key] = _convert(hints[key], value)
        except _REFUSED as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return out


def _build(target, section: dict):
    """target called with the section; whatever it refuses is a ConfigError."""
    try:
        return target(**_typed(target, section))
    except _REFUSED as exc:
        raise ConfigError(f"{target.__name__}: {exc}") from exc


def _simulate_args(positions: tuple[float, ...], charges: tuple[int, ...], t_end: float = 1.0):
    """The `simulate` section: the state at coupling 1/n, sampled at linspace(0, t_end, 11)[1:]."""
    state = ParticleState(positions=positions, charges=charges)
    config = IntegratorConfig(t_end=t_end)  # refuses a bad t_end before linspace sees it
    return state, replace(config, sample_times=tuple(np.linspace(0.0, t_end, 11)[1:]))


def _hj_args(initial: str = "sigmoid", snapshots: int = 5):
    """The `hj` section: the initial datum and the number of frames from 0 to t_end."""
    datum = harness.catalog_datum(initial)
    if snapshots < 2:
        raise ValueError(f"snapshots must be at least 2, got {snapshots}")
    if snapshots > hjsolver.MAX_STEPS + 1:  # each frame at a new time ends a grid step
        raise ValueError(f"snapshots must be at most {hjsolver.MAX_STEPS + 1}, got {snapshots}")
    return datum.u0, snapshots


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}))
    return code


def cmd_simulate(out: Path, chash: str, simulate) -> int:
    state, icfg = simulate
    traj = evolve(state, icfg)
    io.write_trajectory_csv(out / "trajectory.csv", traj.times, traj.positions, traj.charges, chash)
    io.write_events_jsonl(out / "events.jsonl", traj.events, chash)
    log.info("wrote %s events to %s", len(traj.events), out)
    return 0


def cmd_hj(out: Path, chash: str, scheme: hjsolver.SchemeConfig, hj) -> int:
    u0, snapshots = hj
    frames = hjsolver.solve_hj(u0, scheme, np.linspace(0.0, scheme.t_end, snapshots))
    for k, fr in enumerate(frames):
        io.write_xy_csv(out / f"hj_{k:03d}.csv", fr.xs, fr.values, chash)
    return 0


def cmd_converge(out: Path, chash: str, spec: harness.ExperimentSpec) -> int:
    result = harness.run_convergence(spec)
    io.write_convergence_csv(out / "convergence.csv", result, chash)
    for k, fr in enumerate(result.ref_frames):
        io.write_xy_csv(out / f"reference_{k:03d}.csv", fr.xs, fr.values, chash)
    bad = [r for r in result.rows if r.error]
    if bad:
        return _fail(3, "converge", f"{len(bad)} ladder rows failed")
    return 0


# the `verify` section's builder runs the suite: `harness.run_property_suite`,
# looked up per call, so a wrapper put on it after import (a tracer, a
# test) sees the run
@functools.wraps(harness.run_property_suite)
def _run_suite(**section):
    return harness.run_property_suite(**section)


def cmd_verify(out: Path, chash: str, report: harness.PropertyReport) -> int:
    (out / "properties.json").write_text(report.to_json() + "\n")
    for name, chk in sorted(report.checks.items()):
        log.info("%-28s %s margin=%.3e", name, "PASS" if chk.passed else "FAIL", chk.margin)
    return 0 if report.all_passed else 1


def _measure_args(
    family: str = "dipole", ns: tuple[int, ...] = (4, 8, 16, 32, 64),
) -> tuple[str, tuple[int, ...]]:
    """The `measure` section's values with its defaults, checked before any output is made."""
    if family not in ("dipole", "lipschitz_cdf"):
        raise ValueError(f"family: unknown measure family {family!r}")
    harness.check_sizes(ns)
    return family, ns


def cmd_measure(out: Path, chash: str, measure) -> int:
    family, ns = measure
    empty = measures.SignedAtomicMeasure(locations=np.empty(0), weights=np.empty(0))
    mus = []
    for n in ns:
        if family == "dipole":
            mu = measures.SignedAtomicMeasure(
                locations=np.array([0.0, 1.0 / n]), weights=np.array([-1.0, 1.0])
            )
        else:
            # atoms of a smooth ramp sampled at spacing 1/n
            locs = np.linspace(0.0, 1.0, n, endpoint=False)
            mu = measures.SignedAtomicMeasure(locations=locs, weights=np.full(n, 1.0 / n))
        mus.append(mu)
        io.write_measure_csv(out / f"measure_{family}_{n:04d}.csv", mu, chash)
    omega = (lambda r: abs(r)) if family == "lipschitz_cdf" else (lambda r: 2.0 * abs(r))
    s_list, aec_ok = measures.aec_modulus(mus, omega)
    proxies = [measures.narrow_distance_proxy(mu, empty) for mu in mus]
    sup_cdf = [measures.cdf(mu).sup_norm() for mu in mus]
    payload = {"family": family, "ns": ns, "aec_defects": s_list, "aec_passed": aec_ok,
               "narrow_proxy": proxies, "cdf_sup": sup_cdf}
    (out / "measure_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


# each command with the only config sections it reads, each with its
# builder, in the order they are built and passed to the command
_COMMANDS = {
    "simulate": (cmd_simulate, {"simulate": _simulate_args}),
    "hj": (cmd_hj, {"scheme": hjsolver.SchemeConfig, "hj": _hj_args}),
    "converge": (cmd_converge, {"experiment": harness.ExperimentSpec}),
    "verify": (cmd_verify, {"verify": _run_suite}),
    "measure": (cmd_measure, {"measure": _measure_args}),
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="annihilate", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--version", action="version", version=__version__)
    logging.basicConfig(
        level=os.environ.get("ANNIHILATE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args = parser.parse_args(argv)
        command, sections = _COMMANDS[args.command]
        cfg = _load_config(args.config, sections)
        built = [_build(builder, cfg.get(section, {})) for section, builder in sections.items()]
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return command(out, io.config_hash(cfg), *built)
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except _RUN_FAILURES as exc:
        return _fail(3, args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
