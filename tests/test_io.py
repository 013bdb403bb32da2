import numpy as np
import pytest

from annihilate import io
from annihilate.harness import ConvergenceResult, ConvergenceRow, ExperimentSpec
from annihilate.integrator import IntegratorConfig, evolve
from annihilate.levelset import from_particles
from annihilate.measures import SignedAtomicMeasure
from annihilate.particles import EventRecord, ParticleState
from reference import (
    convergence_csv_text,
    read_events_jsonl,
    read_trajectory_csv,
    trajectory_csv_text,
    xy_csv_text,
)

# floats whose 17-digit text is easy to get wrong: signed zero, the
# infinities, nan, the smallest subnormal and the largest finite float
EDGES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
         1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e16, -2.5]


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


class TestBytesAgainstOracle:
    """Each writer's bytes equal the value-by-value rendering in `reference`."""

    def test_xy_csv(self, tmp_path):
        path = tmp_path / "xy.csv"
        io.write_xy_csv(path, np.array(EDGES), np.array(EDGES[::-1]), "cafe")
        assert path.read_bytes() == xy_csv_text(EDGES, EDGES[::-1], "cafe").encode()

    @pytest.mark.parametrize("rows", [io.CHUNK_ROWS, 2 * io.CHUNK_ROWS, 8193],
                             ids=["one-chunk", "two-chunks", "hj-frame"])
    def test_xy_csv_streamed_in_chunks(self, tmp_path, rows):
        xs = np.linspace(-4.0, 4.0, rows)
        ys = np.sin(3 * xs) * np.exp(-xs * xs)
        # the edge values at both ends of the file and across a chunk boundary
        edges = [-0.0, np.inf, -np.inf, np.nan]
        ys[:4] = ys[-4:] = edges
        if rows > io.CHUNK_ROWS:
            ys[io.CHUNK_ROWS - 2 : io.CHUNK_ROWS + 2] = edges
        path = tmp_path / "xy.csv"
        io.write_xy_csv(path, xs, ys, "cafe")
        assert path.read_bytes() == xy_csv_text(xs, ys, "cafe").encode()

    def test_trajectory_csv_streamed_in_chunks(self, tmp_path):
        rows = 2 * io.CHUNK_ROWS + 1
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, 1.0, rows)
        positions = rng.standard_normal((rows, 3))
        positions[io.CHUNK_ROWS] = [-0.0, np.inf, np.nan]
        charges = np.tile([1, 0, -1], (rows, 1))
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, times, positions, charges, "cafe")
        assert path.read_bytes() == trajectory_csv_text(times, positions, charges, "cafe").encode()

    def test_xy_csv_from_lists_and_ints(self, tmp_path):
        path = tmp_path / "xy.csv"
        xs, ys = [0, 2**60, -3], EDGES[:3]
        io.write_xy_csv(path, xs, ys, "cafe", names=("a", "b"))
        assert path.read_bytes() == xy_csv_text(xs, ys, "cafe", ("a", "b")).encode()

    def test_measure_and_stepfunction_csv(self, tmp_path):
        mu = SignedAtomicMeasure(locations=np.array([-0.0, 5e-324, 1 / 3]),
                                 weights=np.array([0.5, -1 / 3, -1 / 6]))
        io.write_measure_csv(tmp_path / "mu.csv", mu, "cafe")
        want = xy_csv_text(mu.locations, mu.weights, "cafe", ("location", "weight"))
        assert (tmp_path / "mu.csv").read_bytes() == want.encode()
        u = from_particles(ParticleState(positions=np.array([-1 / 3, 0.1, 0.7]),
                                         charges=np.array([1, 0, -1])))
        io.write_stepfunction_csv(tmp_path / "u.csv", u, "cafe")
        xs = np.concatenate([[-np.inf], u.locations])
        want = xy_csv_text(xs, u.plateau_values(), "cafe", ("from_x", "value"))
        assert (tmp_path / "u.csv").read_bytes() == want.encode()

    def test_trajectory_csv_with_a_neutral_particle(self, tmp_path):
        times = np.array([0.0, 5e-324, 0.1, 1.7976931348623157e308])
        positions = np.array([[-0.0, 0.5, 1 / 3],
                              [np.inf, -np.inf, np.nan],
                              [5e-324, -5e-324, 1e16],
                              [-2.5, 0.1, 1.7976931348623157e308]])
        charges = np.array([[1, 0, -1]] * 2 + [[0, 0, 0]] * 2)
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, times, positions, charges, "cafe")
        want = trajectory_csv_text(times, positions, charges, "cafe")
        assert path.read_bytes() == want.encode()
        assert want.splitlines()[3].endswith(",inf,-inf,nan,1,0,-1")

    @pytest.mark.parametrize("monotone", [True, False])
    def test_convergence_csv_with_a_failed_row(self, tmp_path, monotone):
        rows = [
            ConvergenceRow(n=8, e_n=0.1, events=5, runtime_s=-0.0),
            ConvergenceRow(n=16, e_n=float("nan"), events=0, runtime_s=5e-324,
                           error="exceeded 500000 steps at t=1.000000e-01"),
            ConvergenceRow(n=32, e_n=np.float64(1 / 3), events=15, runtime_s=np.inf),
        ]
        result = ConvergenceResult(spec=ExperimentSpec(), rows=rows, monotone=monotone)
        path = tmp_path / "convergence.csv"
        io.write_convergence_csv(path, result, "cafe")
        want = convergence_csv_text(result, "cafe")
        assert path.read_bytes() == want.encode()
        assert want.splitlines()[3] == (
            f"16,nan,0,4.9406564584124654e-324,{int(monotone)},"
            "exceeded 500000 steps at t=1.000000e-01"
        )

    def test_events_jsonl_lines(self, tmp_path):
        events = [EventRecord(tau=0.98, y=-0.0, cluster=(0, 1), pre_charges=(1, -1),
                              post_charges=(0, 0)),
                  EventRecord(tau=1 / 3, y=5e-324, cluster=(2, 3, 4), pre_charges=(-1, 1, -1),
                              post_charges=(0, 0, -1))]
        path = tmp_path / "ev.jsonl"
        io.write_events_jsonl(path, events, "cafe")
        assert path.read_text() == "\n".join([
            io.provenance_line("cafe"),
            '{"tau": 0.98, "y": -0.0, "cluster": [0, 1], "pre": [1, -1], "post": [0, 0]}',
            '{"tau": 0.3333333333333333, "y": 5e-324, "cluster": [2, 3, 4], '
            '"pre": [-1, 1, -1], "post": [0, 0, -1]}',
        ]) + "\n"
        io.write_events_jsonl(path, [], "cafe")
        assert path.read_text() == io.provenance_line("cafe") + "\n"
