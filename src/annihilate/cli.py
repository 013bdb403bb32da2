"""Command-line driver: simulate, hj, converge, verify, measure, moments.

Configuration is one YAML file of sections, each built by one callable
whose parameters give the section's keys, types and defaults; an unknown
or missing key or a bad value exits 2 before any output exists.  Runtime
failures exit 3 with a machine-readable error JSON on stdout; `verify`
exits 1 when an invariant fails.  Formats are in docs/formats.md.
"""
from __future__ import annotations

import argparse
import collections.abc
import inspect
import json
import logging
import os
import sys
import types
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__, harness, hjsolver, io, measures, moments
from .integrator import EvolveError, IntegratorConfig, evolve
from .particles import ParticleState

log = logging.getLogger("annihilate")

_HIDDEN = {"boundary_margin_cells", "sample_times", "store_steps", "max_steps"}


def _keys(target) -> set[str]:
    """A section's keys: the parameters of the callable it is built with, less _HIDDEN fields."""
    return set(inspect.signature(target).parameters) - _HIDDEN


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
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
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if content is None:
            raw[section] = {}
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = set(content) - _SCHEMA[section]
        if unknown:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    return raw


def _convert(tp, value):
    """value as the annotated type tp: a scalar type, X | None, or a tuple or sequence of X.

    A bool is never a number and a fraction never an int: both are refused, not converted.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, collections.abc.Sequence):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_convert(args[0], v) for v in value)
    if origin is types.UnionType:
        tp = args[0]
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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return out


def _build(target, section: dict, **defaults):
    """target called with the section over the defaults; whatever it refuses is a ConfigError."""
    kwargs = {**defaults, **_typed(target, section)}
    try:
        return target(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{target.__name__}: {exc}") from exc


def _integrator_config(section: dict) -> IntegratorConfig:
    """IntegratorConfig sampled at the nonzero points of linspace(0, t_end, n_samples)."""
    section = dict(section)
    n_samples = section.pop("n_samples", 11)
    cfg = _build(IntegratorConfig, section)
    try:
        samples = np.linspace(0.0, cfg.t_end, _convert(int, n_samples))[1:]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"n_samples: {exc}") from exc
    return replace(cfg, sample_times=tuple(samples))


def _simulate_state(positions: tuple[float, ...], charges: tuple[int, ...], coupling: float = -1.0):
    """The `simulate` section's initial state; coupling -1 stands for 1/n."""
    return ParticleState(positions=positions, charges=charges, coupling=coupling)


def _hj_args(initial: str = "sigmoid", snapshots: int = 5):
    """The `hj` section: the initial datum and the number of frames from 0 to t_end."""
    if initial not in harness.CATALOG:
        raise ValueError(f"unknown datum {initial!r}; choose from {sorted(harness.CATALOG)}")
    if snapshots < 2:
        raise ValueError(f"snapshots must be at least 2, got {snapshots}")
    return harness.CATALOG[initial].u0, snapshots


def _moments_positions(positions: tuple[float, ...]) -> tuple[float, ...]:
    """The `moments` section's positions: a non-empty list of finite numbers."""
    if not positions or not np.isfinite(positions).all():
        raise ValueError(f"positions must be non-empty and finite, got {list(positions)}")
    return positions


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}))
    return code


def cmd_simulate(args, cfg: dict) -> int:
    icfg = _integrator_config(cfg.get("integrator", {}))
    state = _build(_simulate_state, cfg.get("simulate", {}))
    out = _out_dir(args)
    chash = io.config_hash(cfg)
    try:
        traj = evolve(state, icfg)
    except (EvolveError, ValueError) as exc:
        return _fail(3, "simulation", str(exc))
    io.write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states, chash)
    io.write_events_jsonl(out / "events.jsonl", traj.events, chash)
    log.info("wrote %s events to %s", len(traj.events), out)
    return 0


def cmd_hj(args, cfg: dict) -> int:
    scheme = _build(hjsolver.SchemeConfig, cfg.get("scheme", {}))
    u0, snapshots = _build(_hj_args, cfg.get("hj", {}))
    out = _out_dir(args)
    chash = io.config_hash(cfg)
    frames = hjsolver.solve_hj(u0, scheme, np.linspace(0.0, scheme.t_end, snapshots))
    for k, fr in enumerate(frames):
        io.write_xy_csv(out / f"hj_{k:03d}.csv", fr.xs, fr.values, chash)
    return 0


def cmd_converge(args, cfg: dict) -> int:
    spec = _build(harness.ExperimentSpec, cfg.get("experiment", {}), seed=args.seed)
    out = _out_dir(args)
    chash = io.config_hash(cfg)
    try:
        result = harness.run_convergence(spec)
    except (KeyError, ValueError) as exc:
        return _fail(3, "converge", str(exc))
    io.write_convergence_csv(out / "convergence.csv", result, chash)
    for k, (t, fr) in enumerate(result.ref_frames):
        io.write_xy_csv(out / f"reference_{k:03d}.csv", fr.xs, fr.values, chash)
    bad = [r for r in result.rows if r.error]
    if bad:
        return _fail(3, "converge", f"{len(bad)} ladder rows failed")
    return 0


def cmd_verify(args, cfg: dict) -> int:
    report = _build(harness.run_property_suite, cfg.get("verify", {}), seed=args.seed)
    out = _out_dir(args)
    (out / "properties.json").write_text(report.to_json() + "\n")
    for name, chk in sorted(report.checks.items()):
        log.info("%-28s %s margin=%.3e", name, "PASS" if chk.passed else "FAIL", chk.margin)
    return 0 if report.all_passed else 1


def _measure_args(
    family: str = "dipole", ns: tuple[int, ...] = (4, 8, 16, 32, 64), threshold: float = 0.05
) -> tuple[str, tuple[int, ...], float]:
    """The `measure` section's values with its defaults, checked before any output is made."""
    if family not in ("dipole", "lipschitz_cdf"):
        raise ValueError(f"family: unknown measure family {family!r}")
    if not ns or not all(n >= 1 for n in ns):
        raise ValueError("ns: must be a non-empty list of positive sizes")
    if not 0.0 <= threshold < np.inf:
        raise ValueError(f"threshold: must be finite and nonnegative, got {threshold!r}")
    return family, ns, threshold


def cmd_measure(args, cfg: dict) -> int:
    family, ns, threshold = _build(_measure_args, cfg.get("measure", {}))
    out = _out_dir(args)
    chash = io.config_hash(cfg)
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
    s_list, aec_ok = measures.aec_modulus(mus, omega, threshold=threshold)
    proxies = [measures.narrow_distance_proxy(mu, empty) for mu in mus]
    sup_cdf = [measures.cdf(mu).sup_norm() for mu in mus]
    payload = {
        "family": family,
        "ns": ns,
        "aec_defects": s_list,
        "aec_passed": aec_ok,
        "narrow_proxy": proxies,
        "cdf_sup": sup_cdf,
    }
    (out / "measure_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_moments(args, cfg: dict) -> int:
    x = _build(_moments_positions, cfg.get("moments", {}))
    M = moments.moments(x)
    try:
        rec = moments.reconstruct_positions(M)
    except moments.ComplexRoots as exc:
        return _fail(3, "moments", str(exc))
    err = float(np.max(np.abs(rec - np.sort(x))))
    tol = 1e-8 * max(1.0, float(np.max(np.abs(x))))
    if not err <= tol:
        return _fail(3, "moments", f"reconstruction error {err:.3e} exceeds {tol:.3e}")
    print(json.dumps({"moments": M.tolist(), "reconstructed": rec.tolist()}))
    return 0


_SCHEMA: dict[str, set[str]] = {
    "integrator": _keys(IntegratorConfig) | {"n_samples"},
    "scheme": _keys(hjsolver.SchemeConfig),
    "experiment": _keys(harness.ExperimentSpec),
    "simulate": _keys(_simulate_state),
    "hj": _keys(_hj_args),
    "verify": _keys(harness.run_property_suite),
    "measure": _keys(_measure_args),
    "moments": _keys(_moments_positions),
}

_COMMANDS = {
    "simulate": cmd_simulate,
    "hj": cmd_hj,
    "converge": cmd_converge,
    "verify": cmd_verify,
    "measure": cmd_measure,
    "moments": cmd_moments,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="annihilate", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=os.environ.get("ANNIHILATE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args, _load_config(args.config))
    except ConfigError as exc:
        return _fail(2, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())
