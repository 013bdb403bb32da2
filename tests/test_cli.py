import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from annihilate import harness
from annihilate.cli import _SCHEMA, _build, _load_config, _measure_args, _typed, main
from annihilate.io import read_events_jsonl, read_trajectory_csv


ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))


def write_cfg(tmp_path, payload):
    p = tmp_path / "config.yaml"
    p.write_text(yaml.safe_dump(payload))
    return str(p)


def pair_config(tmp_path, d0=0.8, n=2):
    return write_cfg(
        tmp_path,
        {
            "simulate": {"positions": [0.0, d0], "charges": [1, -1]},
            "integrator": {"t_end": round(n * d0 * d0 / 4 * 1.5, 6), "n_samples": 6},
        },
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
            {
                "simulate": {"positions": [0.0, 1.0], "charges": [1, 1]},
                "integrator": {"t_end": 0.5},
            },
        )
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
            {
                "simulate": {"positions": [1.0, 0.0], "charges": [1, -1]},
                "integrator": {"t_end": 0.1},
            },
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "out of order" in payload["message"]
        assert not out.exists()

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

    def test_converge_writes_monotone_table(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "experiment": {
                    "datum": "sigmoid",
                    "ns": [8, 16],
                    "t_end": 0.1,
                    "ref_h": 1 / 64,
                    "ref_rho": 1 / 8,
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

    def test_moments_wrong_reconstruction_exits_3(self, tmp_path, capsys):
        # clustered input: the Newton-identity roots come back far from [1]*30 + [5]
        cfg = write_cfg(tmp_path, {"moments": {"positions": [1.0] * 30 + [5.0]}})
        assert main(["moments", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "moments"

    def test_moments_complex_roots_exits_3(self, tmp_path, capsys):
        # 40 spread-out points: the Newton-identity polynomial has complex roots
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 40).tolist()
        cfg = write_cfg(tmp_path, {"moments": {"positions": x}})
        assert main(["moments", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "moments"

    def test_moments_subcommand(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"moments": {"positions": [1.0, 2.0, 3.0]}})
        assert main(["moments", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moments"] == pytest.approx([6.0, 7.0, 12.0])
        assert payload["reconstructed"] == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"nonsense": {}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestConfigSchema:
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("converge", {"experiment": {"ns": "foo"}}),
            ("converge", {"experiment": {"ns": [0, 8]}}),
            ("converge", {"experiment": {"ref_h": 0}}),
            ("hj", {"scheme": {"h": 0}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1]},
                          "integrator": {"rel_tol": -1}}),
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
            ("measure", {"measure": {"threshold": float("nan")}}),
            ("measure", {"measure": {"threshold": float("inf")}}),
            ("measure", {"measure": {"threshold": -0.1}}),
            ("converge", {"experiment": {"ns": [8, 16.5]}}),
            ("verify", {"verify": {"runs": 2.5}}),
            ("hj", {"hj": {"snapshots": True}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1]},
                          "integrator": {"n_samples": 5.5}}),
            ("moments", {"moments": {"positions": "foo"}}),
            ("moments", {"moments": {"positions": []}}),
            ("moments", {"moments": {"positions": [[1, 2], [3, 4]]}}),
            ("moments", {"moments": {"positions": [1, float("nan")]}}),
            ("moments", {"moments": {"positions": [True, 2]}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1.5, -1]}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [True, -1]}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1],
                                       "coupling": True}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1]},
                          "integrator": {"t_end": True}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1]},
                          "integrator": {"cluster_gap": True}}),
            ("measure", {"measure": {"threshold": True}}),
            ("converge", {"experiment": {"t_end": True}}),
            ("verify", {"verify": {"runs": -1}}),
            ("hj", {"hj": {"snapshots": -3}}),
            ("hj", {"hj": {"snapshots": 1}}),
            ("converge", {"experiment": {"offset": 1.5}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0]}}),
            ("moments", {"moments": {}}),
        ],
        ids=[
            "ns-string", "ns-zero", "ref_h-zero", "h-zero", "rel_tol-negative", "sizes-one",
            "measure-ns-string", "measure-ns-zero", "measure-family", "datum", "hj-initial",
            "simulate-out-of-order", "simulate-charge-two", "simulate-positions-string",
            "measure-ns-fraction", "measure-ns-bool", "measure-ns-empty",
            "measure-threshold-nan", "measure-threshold-inf", "measure-threshold-negative",
            "converge-ns-fraction", "verify-runs-fraction", "hj-snapshots-bool",
            "n_samples-fraction",
            "moments-positions-string", "moments-positions-empty", "moments-positions-nested",
            "moments-positions-nan", "moments-positions-bool", "simulate-charge-fraction",
            "simulate-charge-bool", "simulate-coupling-bool", "integrator-t_end-bool",
            "integrator-cluster_gap-bool", "measure-threshold-bool", "experiment-t_end-bool",
            "verify-runs-negative", "hj-snapshots-negative", "hj-snapshots-one",
            "experiment-offset-above-one", "simulate-missing-charges", "moments-missing-positions",
        ],
    )
    def test_bad_value_exits_2_without_outputs(self, tmp_path, capsys, command, payload):
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("converge", {"experiment": {"boundary_margin_cells": 3}}),
            ("simulate", {"simulate": {"positions": [0.0, 1.0], "charges": [1, -1]},
                          "integrator": {"store_steps": False}}),
        ],
        ids=["boundary_margin_cells", "store_steps"],
    )
    def test_dataclass_field_outside_schema_exits_2(self, tmp_path, command, payload):
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
        assert not out.exists()

    def test_whole_floats_convert_to_int(self):
        assert _typed(_measure_args, {"ns": [4.0, 8], "threshold": 0}) == {
            "ns": (4, 8), "threshold": 0.0,
        }

    def test_schema_keys(self):
        # the schema is read from the config dataclasses: a new field must
        # not become a config key unnoticed
        assert _SCHEMA["integrator"] == {
            "t_end", "abs_tol", "rel_tol", "cluster_gap", "max_step", "safety", "n_samples",
        }
        assert _SCHEMA["scheme"] == {"L", "h", "rho", "cfl", "t_end"}
        assert _SCHEMA["experiment"] == {
            "datum", "ns", "offset", "t_end", "n_snapshots", "ref_L", "ref_h",
            "ref_rho", "ref_cfl", "abs_tol", "rel_tol", "scan_points", "seed",
        }
        assert _SCHEMA["simulate"] == {"positions", "charges", "coupling"}
        assert _SCHEMA["hj"] == {"initial", "snapshots"}
        assert _SCHEMA["verify"] == {"seed", "sizes", "runs", "t_end"}
        assert _SCHEMA["measure"] == {"family", "ns", "threshold"}
        assert _SCHEMA["moments"] == {"positions"}
        assert len(_SCHEMA) == 8

    def test_converge_defaults_come_from_the_spec(self, tmp_path, monkeypatch):
        seen = []

        def capture(spec):
            seen.append(spec)
            raise ValueError("stop after building the spec")

        monkeypatch.setattr(harness, "run_convergence", capture)
        cfg = write_cfg(tmp_path, {"experiment": None})
        argv = ["converge", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "7"]
        assert main(argv) == 3
        assert seen == [harness.ExperimentSpec(datum="sigmoid", seed=7)]


class TestShippedConfigs:
    def test_configs_found(self):
        assert {p.name for p in CONFIGS} >= {
            "pair.yaml", "measure-dipole.yaml", "converge-pair.yaml",
            "converge-sigmoid.yaml", "verify-quick.yaml",
        }

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_every_config_loads(self, path):
        assert _load_config(str(path))

    @pytest.mark.parametrize("command, name, written", [
        ("simulate", "pair.yaml", "events.jsonl"),
        ("measure", "measure-dipole.yaml", "measure_report.json"),
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
        spec = _build(harness.ExperimentSpec, _load_config(str(path))["experiment"])
        assert spec.ns

    @pytest.mark.parametrize(
        "path", [p for p in CONFIGS if p.stem.startswith("verify")], ids=lambda p: p.stem,
    )
    def test_verify_configs_build(self, path):
        kwargs = _typed(harness.run_property_suite, _load_config(str(path))["verify"])
        inspect.signature(harness.run_property_suite).bind(**kwargs)


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
