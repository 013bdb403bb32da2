import importlib.util
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import annihilate
from annihilate import harness, hjsolver
from annihilate.cli import (
    _COMMANDS, ConfigError, _build, _hj_args, _keys, _load_config, _measure_args,
    _simulate_args, _typed, main,
)
from reference import read_events_jsonl, read_trajectory_csv


ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))
WORKLOADS_PY = ROOT / "benchmarks" / "workloads.py"

# every config section with its builder, and its keys, from the command table
BUILDERS = {s: b for _, sections in _COMMANDS.values() for s, b in sections.items()}
SCHEMA = {s: _keys(b) for s, b in BUILDERS.items()}


def write_cfg(tmp_path, payload):
    p = tmp_path / "config.yaml"
    p.write_text(yaml.safe_dump(payload))
    return str(p)


def pair_config(tmp_path, d0=0.8, n=2):
    return write_cfg(
        tmp_path,
        {"simulate": {"positions": [0.0, d0], "charges": [1, -1],
                      "t_end": round(n * d0 * d0 / 4 * 1.5, 6)}},
    )


class TestSimulate:
    def test_pair_fixture_single_event(self, tmp_path):
        d0 = 0.8
        cfg = pair_config(tmp_path, d0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        events = read_events_jsonl(out / "events.jsonl")
        assert len(events) == 1
        tau_exact = 2 * d0 * d0 / 4  # n d0^2 / 4 at n = 2
        assert events[0]["tau"] == pytest.approx(tau_exact, rel=1e-6)

    def test_equal_charges_no_events(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"simulate": {"positions": [0.0, 1.0], "charges": [1, 1], "t_end": 0.5}},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert read_events_jsonl(out / "events.jsonl") == []

    def test_closing_equal_charges_no_events(self, tmp_path):
        # the gap 1e-8 closes for a while under the push of the charge 1e-10
        # away (coupling 1/4); equal charges never collide
        x = [0.0, 1.0, 1.0 + 1e-8, 1.0 + 1e-8 + 1e-10]
        cfg = write_cfg(tmp_path, {"simulate": {"positions": x, "charges": [1, 1, 1, 1]}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert read_events_jsonl(out / "events.jsonl") == []

    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"simulate": {"positions": [0, 1], "bogus_key": 3}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"

    def test_invalid_state_exits_2_without_outputs(self, tmp_path, capsys):
        # an inadmissible initial state is a rejected config value
        cfg = write_cfg(
            tmp_path,
            {"simulate": {"positions": [1.0, 0.0], "charges": [1, -1], "t_end": 0.1}},
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "out of order" in payload["message"]
        assert not out.exists()

    def test_far_pair_stays_put_without_warnings(self, tmp_path):
        # the gap 2e300 squares to inf, so the committed pair's tau is inf:
        # no event, finite rows and no overflow warning
        cfg = write_cfg(tmp_path, {"simulate": {"positions": [-1.0e300, 1.0e300],
                                                "charges": [1, -1]}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert read_events_jsonl(out / "events.jsonl") == []
        times, xs, bs = read_trajectory_csv(out / "trajectory.csv")
        assert np.isfinite(xs).all() and (xs == [-1.0e300, 1.0e300]).all()

    def test_lopsided_triple_collides_near_0(self, tmp_path):
        # 0 and 1 both round to -5e19 about the span's midpoint, so a state
        # this lopsided is integrated where it stands: one pair event, exit 0
        cfg = write_cfg(tmp_path, {"simulate": {"positions": [0.0, 1.0, 1e20],
                                                "charges": [1, -1, 1]}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        (ev,) = read_events_jsonl(out / "events.jsonl")
        assert ev["cluster"] == [0, 1] and ev["y"] == 0.5

    def test_underflowing_time_scale_exits_3(self, tmp_path, capsys):
        # gaps of 1e-200 have a time scale d^2 / (4 gamma) that underflows to
        # 0, so no step can advance: a runtime failure, not a traceback
        cfg = write_cfg(tmp_path, {"simulate": {"positions": [-1e-200, 0.0, 1e-200],
                                                "charges": [1, -1, 1]}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "simulate"

    def test_trajectory_roundtrip_bit_exact(self, tmp_path):
        cfg = pair_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        times, xs, bs = read_trajectory_csv(out / "trajectory.csv")
        text = (out / "trajectory.csv").read_text().splitlines()
        assert text[0].startswith("# annihilate v")
        # rewrite from parsed values and compare byte for byte
        body = [text[1]]
        for t, x, b in zip(times, xs, bs):
            body.append(
                ",".join(
                    [format(t, ".17g")]
                    + [format(v, ".17g") for v in x]
                    + [str(int(v)) for v in b]
                )
            )
        assert body == text[1:]


class TestOtherCommands:
    def test_hj_writes_snapshots(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "scheme": {"L": 2.0, "h": 1 / 32, "rho": 4 / 32, "t_end": 0.05},
                "hj": {"initial": "sigmoid", "snapshots": 3},
            },
        )
        out = tmp_path / "out"
        assert main(["hj", "--config", cfg, "--out", str(out)]) == 0
        files = sorted(out.glob("hj_*.csv"))
        assert len(files) == 3
        assert files[0].read_text().startswith("# annihilate v")

    def test_hj_writes_every_frame_of_a_subnormal_horizon(self, tmp_path):
        # linspace(0, 1.5e-323, 5) holds 5e-324 twice: still one file per
        # requested frame, not one per distinct time
        cfg = write_cfg(tmp_path, {"scheme": {"t_end": 1.5e-323, "h": 0.25, "rho": 0.5},
                                   "hj": {"snapshots": 5}})
        out = tmp_path / "out"
        assert main(["hj", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == [f"hj_{k:03d}.csv" for k in range(5)]

    @pytest.mark.parametrize("command, payload, message, made", [
        # gaps whose time scale underflows: no step can advance
        ("simulate", {"simulate": {"positions": [-1e-200, 0.0, 1e-200], "charges": [1, -1, 1]}},
         "pathological state", True),
        # horizons out of reach: the grid solve gives up at its step budget
        ("hj", {"scheme": {"h": 0.25, "rho": 0.5, "t_end": 1.0e300}},
         "200 steps reached t=", True),
        ("converge", {"experiment": {"ns": [8], "t_end": 1.0e300, "ref_h": 1 / 32}},
         "200 steps reached t=", True),
        # the suite's positions spread until their moments pass float64
        ("verify", {"verify": {"sizes": [4], "runs": 2, "t_end": 1.0e300}},
         "past float64", False),
    ], ids=["simulate", "hj", "converge", "verify"])
    def test_run_failure_exits_3(self, tmp_path, capsys, monkeypatch, command, payload,
                                 message, made):
        # every run failure exits 3 with the command's name as its error kind;
        # simulate, hj and converge have made their output directory by then and
        # write nothing into it.  The grid solves' step budget is lowered from
        # 500000 to keep the test short
        monkeypatch.setattr(hjsolver, "MAX_STEPS", 200)
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 3
        failure = json.loads(capsys.readouterr().out)
        assert failure == {"error": command, "message": failure["message"]}
        assert message in failure["message"]
        assert out.exists() == made
        assert not made or list(out.iterdir()) == []

    def test_converge_writes_monotone_table(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "experiment": {
                    "datum": "sigmoid",
                    "ns": [8, 16],
                    "t_end": 0.1,
                    "ref_h": 1 / 64,
                }
            },
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[1] == "n,e_n,events,runtime_s,monotone,error"
        rows = [ln.split(",") for ln in lines[2:]]
        assert [r[0] for r in rows] == ["8", "16"]
        assert float(rows[1][1]) <= float(rows[0][1])
        assert all(r[4] == "1" for r in rows)

    def test_verify_small_fixture_exit_0(self, tmp_path):
        cfg = write_cfg(
            tmp_path, {"verify": {"seed": 3, "sizes": [4, 6], "runs": 6, "t_end": 0.8}}
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "properties.json").read_text())
        assert payload["all_passed"] is True

    def test_a_failed_check_names_a_run_that_simulate_replays(self, tmp_path, monkeypatch):
        # event_structure, forced to fail on a run with 3 or more events,
        # names its worst run (the first with the most events): its index
        # and initial state.  A `simulate` config built from them takes that
        # run's steps again, since the sample times move no step, and so
        # finds the same events bit for bit
        runs = []
        real = harness.evolve

        def keeping(state, config):
            traj = real(state, config)
            if config.store_steps:  # not the residual windows
                runs.append(traj)
            return traj

        monkeypatch.setattr(harness, "evolve", keeping)
        monkeypatch.setitem(harness._PER_RUN, "event_structure",
                            lambda traj: [(len(traj.events) < 3, 2.5 - len(traj.events), "forced")])
        cfg = write_cfg(tmp_path, {"verify": {"seed": 3, "sizes": [8], "runs": 6, "t_end": 1.0}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        checks = json.loads((out / "properties.json").read_text())["checks"]
        failed = checks["event_structure"]
        assert (failed["passed"], failed["detail"]) == (False, "forced")
        assert all(checks[name][key] is None for name in harness._ONE_SHOT
                   for key in ("run", "positions", "charges"))
        runs = runs[:7]  # the 6 draws and the all-neutral run come before the one-shot checks
        counts = [len(traj.events) for traj in runs]
        k = failed["run"]
        assert k == counts.index(max(counts)) and counts[k] >= 3
        assert failed["positions"] == runs[k].positions[0].tolist()
        assert failed["charges"] == runs[k].charges[0].tolist()

        replay = tmp_path / "replay"
        replay.mkdir()
        cfg = write_cfg(replay, {"simulate": {"positions": failed["positions"],
                                              "charges": failed["charges"], "t_end": 1.0}})
        assert main(["simulate", "--config", cfg, "--out", str(replay / "out")]) == 0
        events = read_events_jsonl(replay / "out" / "events.jsonl")
        assert [(ev["tau"], ev["y"], tuple(ev["cluster"])) for ev in events] == [
            (ev.tau, ev.y, ev.cluster) for ev in runs[k].events]

    def test_measure_dipole_flags_aec_failure(self, tmp_path):
        cfg = write_cfg(tmp_path, {"measure": {"family": "dipole", "ns": [4, 8, 16, 32]}})
        out = tmp_path / "out"
        assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "measure_report.json").read_text())
        assert payload["aec_passed"] is False
        assert all(v == 1.0 for v in payload["cdf_sup"])
        proxies = payload["narrow_proxy"]
        assert all(b < a for a, b in zip(proxies[:-1], proxies[1:]))

    def test_measure_dipole_proxy_against_the_empty_measure(self, tmp_path):
        # the dipole against no atoms at all, on a dictionary over the dipole's own window
        cfg = write_cfg(tmp_path, {"measure": {"family": "dipole", "ns": [256]}})
        out = tmp_path / "out"
        assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "measure_report.json").read_text())
        assert payload["narrow_proxy"] == [pytest.approx(0.062358, rel=1e-3)]

    def test_measure_lipschitz_family_passes(self, tmp_path):
        cfg = write_cfg(
            tmp_path, {"measure": {"family": "lipschitz_cdf", "ns": [8, 16, 32, 64]}}
        )
        out = tmp_path / "out"
        assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "measure_report.json").read_text())
        assert payload["aec_passed"] is True
        for n, s in zip(payload["ns"], payload["aec_defects"]):
            assert s <= 2.0 / n + 1e-12

    def test_verify_past_float64_exits_3(self, tmp_path, capsys):
        # at t_end = 1e300 the positions spread until their moments pass
        # float64: a typed refusal, with no warning and no nan margin
        cfg = write_cfg(tmp_path, {"verify": {"sizes": [4], "runs": 2, "t_end": 1.0e300}})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        failure = json.loads(capsys.readouterr().out)
        assert failure["error"] == "verify"
        assert "past float64" in failure["message"]
        assert not out.exists()

    def test_verify_far_horizon_exits_0(self, tmp_path):
        # at t_end = 1e20 the positions spread to about 5e9, where float64
        # holds M1 to about 1e-7 only: m1_conservation takes the float64 floor
        cfg = write_cfg(tmp_path, {"verify": {"sizes": [4], "runs": 2, "t_end": 1.0e20}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "properties.json").read_text())["all_passed"] is True

    def test_verify_horizon_near_float_max_warns_nothing(self, tmp_path):
        # at t_end = 1e308, beta times the elapsed time passes float64 in
        # opposite_gap_bound, long after that pair's bound has run out
        cfg = write_cfg(tmp_path, {"verify": {"sizes": [2], "runs": 3, "t_end": 1.0e308}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"nonsense": {}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["moments"], "invalid choice: 'moments'"),
        ([], "required: command"),
    ], ids=["removed-command", "no-command"])
    def test_usage_error_exits_2_without_outputs(self, tmp_path, capsys, argv, message):
        # the parser's refusals end as every config refusal does: one JSON
        # line on stdout, nothing on stderr, no output directory
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        failure = json.loads(captured.out)
        assert failure == {"error": "config", "message": failure["message"]}
        assert message in failure["message"]
        assert captured.err == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


# what the refusal of some bad values must name: the key at fault, or the
# section built first
NAMED_IN_MESSAGE = {
    "ref_h-coarse": "ref_h=0.0625",
    "experiment-t_end-inf": "t_end=inf",
    "hj-scheme-built-first": "SchemeConfig: ",
    "verify-sizes-huge": "sizes in 2..256",
    "verify-t_end-huge-int": "t_end: int too large",
    "scheme-rho-inf": "rho must be",
    "scheme-rho-nan": "rho must be",
    "hj-snapshots-huge": "at most 500001",
    "scheme-h-past-array": "h = 7.46",
    "experiment-ref_h-past-array": "ref_h=7.46",
    "experiment-t_end-snapshot-underflow": "t_end=5e-323",
}

# values no builder may let out as anything but a ConfigError
HOSTILE_SCALARS = st.one_of(
    st.sampled_from([10**400, -10**400, math.inf, -math.inf, math.nan, True, False, None,
                     "foo", "", "1e400"]),
    st.integers(-3, 40), st.floats(),
)
HOSTILE = st.one_of(HOSTILE_SCALARS, st.lists(HOSTILE_SCALARS, max_size=3),
                    st.lists(st.lists(HOSTILE_SCALARS, max_size=2), max_size=2))


class TestConfigSchema:
    @pytest.mark.parametrize("first, second", [
        (("hj", {"hj": {"initial": "nonsense"}}),
         ("converge", {"experiment": {"datum": "nonsense"}})),
        (("measure", {"measure": {"ns": []}}),
         ("converge", {"experiment": {"ns": []}})),
    ], ids=["datum", "ns"])
    def test_one_rule_one_message(self, tmp_path, capsys, first, second):
        # a rule two sections share refuses both with the same message,
        # after the name of the function that refused it
        messages = []
        for k, (command, payload) in enumerate((first, second)):
            cfg = write_cfg(tmp_path, payload)
            assert main([command, "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 2
            messages.append(json.loads(capsys.readouterr().out)["message"].split(": ", 1)[1])
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("converge", {"experiment": {"ns": "foo"}}),
            ("converge", {"experiment": {"ns": [0, 8]}}),
            ("converge", {"experiment": {"ref_h": 0}}),
            ("converge", {"experiment": {"ref_h": 0.0625}}),
            ("converge", {"experiment": {"t_end": float("inf")}}),
            ("hj", {"scheme": {"h": 0}, "hj": {"snapshots": 1}}),
            ("hj", {"scheme": {"h": 0}}),
            ("verify", {"verify": {"sizes": [1]}}),
            ("measure", {"measure": {"ns": "foo"}}),
            ("measure", {"measure": {"ns": [0, 8]}}),
            ("measure", {"measure": {"family": "nonsense"}}),
            ("converge", {"experiment": {"datum": "nonsense"}}),
            ("hj", {"hj": {"initial": "nonsense"}}),
            ("simulate", {"simulate": {"positions": [1.0, 0.0], "charges": [1, -1]}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [2, -1]}}),
            ("simulate", {"simulate": {"positions": "foo", "charges": [1, -1]}}),
            ("measure", {"measure": {"ns": [2.5]}}),
            ("measure", {"measure": {"ns": [True]}}),
            ("measure", {"measure": {"ns": []}}),
            ("converge", {"experiment": {"ns": [8, 16.5]}}),
            ("verify", {"verify": {"runs": 2.5}}),
            ("hj", {"hj": {"snapshots": True}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1.5, -1]}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [True, -1]}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "t_end": True}}),
            ("converge", {"experiment": {"t_end": True}}),
            ("verify", {"verify": {"runs": -1}}),
            ("verify", {"verify": {"t_end": 1.0e-320}}),
            ("hj", {"hj": {"snapshots": -3}}),
            ("hj", {"hj": {"snapshots": 1}}),
            ("converge", {"experiment": {"offset": 1.5}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0]}}),
            ("converge", {"experiment": {"ns": [8]}, "scheme": {"h": 1 / 64}}),
            ("converge", {"experiment": {"ns": [8]}, "integrator": {"rel_tol": 1e-6}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1]},
                          "scheme": {"h": 1 / 64}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1]},
                          "experiment": {"t_end": 0.1}}),
            ("hj", {"hj": {"snapshots": 3}, "integrator": {"t_end": 0.1}}),
            ("verify", {"verify": {"runs": 1}, "measure": {"ns": [4]}}),
            ("measure", {"measure": {"ns": [4]}, "moments": {"positions": [1.0]}}),
            ("converge", {"experiment": {"scan_points": 1}}),
            ("converge", {"experiment": {"scan_points": 0}}),
            ("converge", {"experiment": {"ns": []}}),
            ("hj", {"scheme": {"L": 1.0, "h": 0.3, "rho": 0.6, "t_end": 0.01}}),
            ("hj", {"scheme": {"L": 1.0, "h": 0.5, "rho": 4.0}}),
            # values for keys that are constants now: refused as unknown keys
            ("measure", {"measure": {"threshold": float("nan")}}),
            ("measure", {"measure": {"threshold": float("inf")}}),
            ("measure", {"measure": {"threshold": -0.1}}),
            ("measure", {"measure": {"threshold": True}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "n_samples": 5.5}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "cluster_gap": True}}),
            # values for keys that are Python-only now: refused as unknown keys
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "rel_tol": -1}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "coupling": True}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "rel_tol": float("inf")}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "abs_tol": float("inf")}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "coupling": -1}}),
            # `null` is never a value, and the horizon must be positive and finite
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "t_end": -1}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "t_end": float("inf")}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "t_end": None}}),
            # refused before a 40e9-particle state is drawn
            ("verify", {"verify": {"sizes": [40000000000], "runs": 1}}),
            # past float64, refused as values, not left to a traceback
            ("verify", {"verify": {"t_end": 10**400}}),
            ("hj", {"scheme": {"rho": float("inf")}}),
            ("hj", {"scheme": {"rho": float("nan")}}),
            # more frames than the grid solve has steps
            ("hj", {"hj": {"snapshots": 1000000000000}}),
            # grids of 2**1000 cells: more nodes than one float64 array holds
            ("hj", {"scheme": {"h": 2.0**-997}}),
            ("converge", {"experiment": {"ref_h": 2.0**-997}}),
            # t_end / 30, the first geometric snapshot time, underflows to 0
            ("converge", {"experiment": {"ns": [8], "t_end": 5.0e-323}}),
        ],
        ids=[
            "ns-string", "ns-zero", "ref_h-zero", "ref_h-coarse", "experiment-t_end-inf",
            "hj-scheme-built-first", "h-zero", "sizes-one",
            "measure-ns-string", "measure-ns-zero", "measure-family", "datum", "hj-initial",
            "simulate-out-of-order", "simulate-charge-two", "simulate-positions-string",
            "measure-ns-fraction", "measure-ns-bool", "measure-ns-empty",
            "converge-ns-fraction", "verify-runs-fraction", "hj-snapshots-bool",
            "simulate-charge-fraction", "simulate-charge-bool", "integrator-t_end-bool",
            "experiment-t_end-bool",
            "verify-runs-negative", "verify-t_end-subnormal", "hj-snapshots-negative",
            "hj-snapshots-one",
            "experiment-offset-above-one", "simulate-missing-charges",
            "converge-reads-no-scheme", "converge-reads-no-integrator",
            "simulate-reads-no-scheme", "simulate-reads-no-experiment", "hj-reads-no-integrator",
            "verify-reads-no-measure", "measure-reads-no-moments",
            "experiment-scan_points-one", "experiment-scan_points-zero", "experiment-ns-empty",
            "scheme-h-not-dividing-2L", "scheme-rho-above-2L",
            "measure-threshold-nan", "measure-threshold-inf", "measure-threshold-negative",
            "measure-threshold-bool", "n_samples-fraction", "integrator-cluster_gap-bool",
            "rel_tol-negative", "simulate-coupling-bool", "integrator-rel_tol-inf",
            "integrator-abs_tol-inf", "simulate-coupling-minus-one",
            "simulate-t_end-negative", "simulate-t_end-inf", "simulate-t_end-null",
            "verify-sizes-huge", "verify-t_end-huge-int", "scheme-rho-inf", "scheme-rho-nan",
            "hj-snapshots-huge", "scheme-h-past-array", "experiment-ref_h-past-array",
            "experiment-t_end-snapshot-underflow",
        ],
    )
    def test_bad_value_exits_2_without_outputs(self, tmp_path, capsys, request, command, payload):
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
        failure = json.loads(capsys.readouterr().out)
        assert failure["error"] == "config"
        assert NAMED_IN_MESSAGE.get(request.node.callspec.id, "") in failure["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("converge", {"experiment": {"boundary_margin_cells": 3}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "store_steps": False}}),
            # settings that are constants, not keys
            ("converge", {"experiment": {"abs_tol": 1e-12}}),
            ("converge", {"experiment": {"rel_tol": 1e-9}}),
            ("converge", {"experiment": {"ref_L": 4.0}}),
            ("converge", {"experiment": {"ref_cfl": 0.8}}),
            ("converge", {"experiment": {"n_snapshots": 6}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "safety": 0.5}}),
            ("hj", {"scheme": {"cfl": 0.8}}),
            ("converge", {"experiment": {"ref_rho": 1 / 16}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "abs_tol": 1e-12}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "rel_tol": 1e-9}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "coupling": 0.5}}),
        ],
        ids=["boundary_margin_cells", "store_steps", "experiment-abs_tol", "experiment-rel_tol",
             "experiment-ref_L", "experiment-ref_cfl", "experiment-n_snapshots",
             "integrator-safety", "scheme-cfl", "experiment-ref_rho", "simulate-abs_tol",
             "simulate-rel_tol", "simulate-coupling"],
    )
    def test_dataclass_field_outside_schema_exits_2(self, tmp_path, command, payload):
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, named",
        [
            ("measure", {"measure": {"ns": [10**400]}}, "sizes in 1..16384"),
            ("measure", {"measure": {"family": "lipschitz_cdf", "ns": [10000000000]}},
             "sizes in 1..16384"),
            ("converge", {"experiment": {"ns": [3000000]}}, "sizes in 1..16384"),
            ("converge", {"experiment": {"datum": "double_bump", "ns": [8, 16384]}},
             "n=16384 samples 40632 particles"),
            ("converge", {"experiment": {"scan_points": 2**40}}, "scan_points must lie in"),
        ],
        ids=["measure-ns-overflow", "lipschitz_cdf-ns-huge", "experiment-ns-huge",
             "experiment-rung-past-cap", "experiment-scan_points-huge"],
    )
    def test_size_past_a_cap_exits_2_at_once(self, tmp_path, command, payload, named):
        # each used to make its output directory and then fail (an
        # OverflowError, a 74.5 GiB array) or run on in the sampler or the
        # force kernel; in a child process, so a run that goes on is cut
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "annihilate.cli", command,
             "--config", write_cfg(tmp_path, payload), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        failure = json.loads(proc.stdout)
        assert failure["error"] == "config" and named in failure["message"]
        assert not out.exists()

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_builders_refuse_only_with_config_error(self, data):
        # building `verify` runs the suite, so only its values are converted
        section = data.draw(st.sampled_from(sorted(BUILDERS)))
        values = data.draw(st.dictionaries(st.sampled_from(sorted(SCHEMA[section])), HOSTILE))
        try:
            if section == "verify":
                _typed(harness.run_property_suite, values)
            else:
                _build(BUILDERS[section], values)
        except ConfigError:
            pass

    def test_whole_floats_convert_to_int(self):
        assert _typed(harness.ExperimentSpec, {"ns": [4.0, 8], "offset": 0}) == {
            "ns": (4, 8), "offset": 0.0,
        }

    def test_schema_keys(self):
        # the schema is read from the config dataclasses: a new field must
        # not become a config key unnoticed
        assert SCHEMA["scheme"] == {"L", "h", "rho", "t_end"}
        assert SCHEMA["experiment"] == {
            "datum", "ns", "offset", "t_end", "ref_h", "scan_points", "seed",
        }
        assert SCHEMA["simulate"] == {"positions", "charges", "t_end"}
        assert SCHEMA["hj"] == {"initial", "snapshots"}
        assert SCHEMA["verify"] == {"seed", "sizes", "runs", "t_end"}
        assert SCHEMA["measure"] == {"family", "ns"}
        assert len(SCHEMA) == 6
        assert sum(map(len, SCHEMA.values())) == 22

    def test_converge_defaults_come_from_the_spec(self, tmp_path, monkeypatch):
        seen = []

        def capture(spec):
            seen.append(spec)
            raise hjsolver.StepBudgetExceeded("stop after building the spec")

        monkeypatch.setattr(harness, "run_convergence", capture)
        cfg = write_cfg(tmp_path, {"experiment": None})
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert seen == [harness.ExperimentSpec(datum="sigmoid", seed=0)]

    def test_verify_runs_the_suite_looked_up_per_call(self, tmp_path, monkeypatch):
        # a wrapper put on harness.run_property_suite after import, as the
        # benchmark's tracer puts one, sees the command's run
        seen = []

        def capture(**kwargs):
            seen.append(kwargs)
            raise ValueError("stop before running the suite")

        monkeypatch.setattr(harness, "run_property_suite", capture)
        cfg = write_cfg(tmp_path, {"verify": {"runs": 3}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert seen == [{"runs": 3}]


def formats_table(head: str) -> dict[str, list[str]]:
    """The docs/formats.md table whose first column is headed head: each
    row's first cell -> the backticked names in its last cell."""
    lines = (ROOT / "docs" / "formats.md").read_text().splitlines()
    start = next(k for k, ln in enumerate(lines) if re.match(rf"\|\s*{head}\s*\|", ln))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[-1])
    return rows


class TestFormatsDoc:
    def test_section_table_lists_the_schema(self):
        # a key removed from a section must leave the docs with it
        rows = formats_table("section")
        assert {section: set(keys) for section, keys in rows.items()} == SCHEMA

    def test_command_lists_are_the_command_table(self):
        # a command removed from the parser must leave the docs with it:
        # the formats table with its sections, in build order, and README's list
        commands = {name: list(sections) for name, (_, sections) in _COMMANDS.items()}
        assert formats_table("command") == commands
        readme = (ROOT / "README.md").read_text()
        listed = readme.split("\nCommands: ", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r"`(\w+)`\s+\(", listed) == list(commands)

    def test_every_named_key_is_in_the_schema(self):
        # the docs name config keys as `section.key` and package attributes
        # (constants, functions, classes) as `module.name`; no name may be a
        # removed one
        modules = {m.name for m in pkgutil.iter_modules(annihilate.__path__)}
        text = (ROOT / "docs" / "formats.md").read_text() + (ROOT / "README.md").read_text()
        named = {f"{a}.{b}" for a, b in re.findall(r"`(\w+)\.(\w+)", text)
                 if a in SCHEMA or a in modules}
        assert {"integrator.CLUSTER_GAP", "hjsolver.CFL", "moments.d_M",
                "particles.same_sign_gap", "verify.sizes", "scheme.L"} <= named

        def resolves(name):
            a, b = name.split(".")
            return b in SCHEMA.get(a, ()) or (
                a in modules and hasattr(importlib.import_module(f"annihilate.{a}"), b))

        assert {name for name in named if not resolves(name)} == set()

    def test_usage_line_names_the_parser_options(self, capsys):
        # a flag removed from the parser must leave README's usage line with it
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        readme = (ROOT / "README.md").read_text()
        line = re.search(r"^annihilate <command> .*$", readme, flags=re.M).group(0)
        assert set(re.findall(r"--\w+", line)) == set(re.findall(r"--\w+", usage))

    def test_check_list_is_the_suite(self):
        # the bulleted check names under properties.json are the suite's checks, in order
        text = (ROOT / "docs" / "formats.md").read_text()
        section = text.split("## properties.json", 1)[1].split("\n## ", 1)[0]
        names = re.findall(r"^- `(\w+)`:", section, flags=re.M)
        assert names == [*harness._PER_RUN, *harness._ONE_SHOT]

    def test_datum_choices_are_the_catalog(self):
        # the sentence that lists the `experiment.datum` choices names every
        # catalog entry, in sorted order, and nothing else
        text = (ROOT / "docs" / "formats.md").read_text()
        choices = re.search(r"`experiment\.datum` choices: ([^.]*)\.", text).group(1)
        assert re.findall(r"`(\w+)`", choices) == sorted(harness.CATALOG)


class TestShippedConfigs:
    def test_configs_found(self):
        assert {p.name for p in CONFIGS} >= {
            "pair.yaml", "measure-dipole.yaml", "converge-semicircle.yaml",
            "converge-sigmoid.yaml", "verify-quick.yaml",
        }

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_every_config_loads(self, path):
        assert _load_config(str(path), BUILDERS)

    @pytest.mark.parametrize("command, name, written", [
        ("simulate", "pair.yaml", "events.jsonl"),
        ("measure", "measure-dipole.yaml", "measure_report.json"),
        ("converge", "converge-semicircle.yaml", "reference_006.csv"),
    ])
    def test_runs_to_exit_0(self, tmp_path, command, name, written):
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIG_DIR / name), "--out", str(out)]) == 0
        assert (out / written).is_file()

    @pytest.mark.parametrize(
        "path", [p for p in CONFIGS if p.stem.startswith("converge")],
        ids=lambda p: p.stem,
    )
    def test_converge_configs_build(self, path):
        spec = _build(
            harness.ExperimentSpec, _load_config(str(path), _COMMANDS["converge"][1])["experiment"]
        )
        assert spec.ns

    @pytest.mark.parametrize(
        "path", [p for p in CONFIGS if p.stem.startswith("verify")], ids=lambda p: p.stem,
    )
    def test_verify_configs_build(self, path):
        kwargs = _typed(
            harness.run_property_suite, _load_config(str(path), _COMMANDS["verify"][1])["verify"]
        )
        inspect.signature(harness.run_property_suite).bind(**kwargs)


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


WORKLOADS = _workloads()


# each section's build, short of running anything: the suite's arguments are only bound
SECTION_BUILDS = {
    "scheme": lambda sec: _build(hjsolver.SchemeConfig, sec),
    "experiment": lambda sec: _build(harness.ExperimentSpec, sec),
    "simulate": lambda sec: _build(_simulate_args, sec),
    "hj": lambda sec: _build(_hj_args, sec),
    "verify": lambda sec: inspect.signature(harness.run_property_suite).bind(
        **_typed(harness.run_property_suite, sec)),
    "measure": lambda sec: _build(_measure_args, sec),
}


class TestBenchmarkWorkloads:
    def test_every_section_has_a_build(self):
        assert set(SECTION_BUILDS) == set(SCHEMA)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_tiny_calls_build(self, tmp_path, name):
        # the benchmark's configs pass the section rule of their command
        for seed in (0, 1):
            for command, payload in WORKLOADS[name].calls(seed, "tiny"):
                cfg = _load_config(write_cfg(tmp_path, payload), _COMMANDS[command][1])
                for section, content in cfg.items():
                    SECTION_BUILDS[section](content)


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # scipy.signal alone took most of the CLI's start-up; nothing needs it
        code = "import annihilate.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
