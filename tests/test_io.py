import numpy as np
import pytest

from annihilate import io
from annihilate.integrator import IntegratorConfig, evolve
from annihilate.levelset import from_particles
from annihilate.measures import SignedAtomicMeasure
from annihilate.particles import ParticleState
from reference import read_events_jsonl, read_trajectory_csv


@pytest.fixture
def traj():
    st = ParticleState(positions=np.array([-0.6, 0.6]), charges=np.array([1, -1]))
    return evolve(st, IntegratorConfig(t_end=1.0, sample_times=(0.1, 0.3)))


class TestTrajectoryCsv:
    def test_round_trip_bit_exact(self, tmp_path, traj):
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj.times, traj.positions, traj.charges, "deadbeef")
        times, xs, bs = read_trajectory_csv(path)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(xs, traj.positions)
        assert np.array_equal(bs, traj.charges)

    def test_provenance_header(self, tmp_path, traj):
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj.times, traj.positions, traj.charges, "cafe")
        first = path.read_text().splitlines()[0]
        assert first.startswith("# annihilate v") and first.endswith("config=cafe")


class TestEventsJsonl:
    def test_round_trip(self, tmp_path, traj):
        path = tmp_path / "ev.jsonl"
        io.write_events_jsonl(path, traj.events, "cafe")
        rows = read_events_jsonl(path)
        assert len(rows) == len(traj.events) == 1
        assert rows[0]["tau"] == traj.events[0].tau
        assert rows[0]["cluster"] == list(traj.events[0].cluster)
        assert rows[0]["pre"] == [1, -1]
        assert rows[0]["post"] == [0, 0]


class TestOtherWriters:
    def test_stepfunction_csv(self, tmp_path):
        st = ParticleState(positions=np.array([0.0, 1.0]), charges=np.array([1, -1]))
        u = from_particles(st)
        path = tmp_path / "u.csv"
        io.write_stepfunction_csv(path, u, "cafe")
        lines = path.read_text().splitlines()
        assert lines[1] == "from_x,value"
        assert len(lines) == 2 + u.n_jumps + 1
        assert lines[2].startswith("-inf,0")

    def test_measure_csv(self, tmp_path):
        mu = SignedAtomicMeasure(locations=np.array([0.0, 0.5]), weights=np.array([0.5, -0.5]))
        path = tmp_path / "mu.csv"
        io.write_measure_csv(path, mu, "cafe")
        lines = path.read_text().splitlines()
        assert lines[1] == "location,weight"
        assert len(lines) == 4

    def test_config_hash_stable(self):
        a = io.config_hash({"x": 1, "y": [1, 2]})
        b = io.config_hash({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 16
