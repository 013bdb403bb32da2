"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 2 checks the
uniform odd lattice as the equality case of the same-sign gap bound: it
stays on or above d+^2 = 1 + 8t/(n^2-1) and leaves that line with slope
8/(n^2-1) at t = 0.  The pointwise equality is not asserted because it is
false for the exact ODE: the second derivative of d+^2 at t = 0 is
+3.8e-3 for n = 9 (the compressing far particles spread, so the gap grows
strictly faster) and the deviation reaches ~9e-2 by t = 10; see the README.

Each criterion collects its deviations and reduces them with np.max or
np.min, which propagate NaN: Python's max and min drop a NaN that is not
first, so a NaN deviation would pass.
"""
import math

import numpy as np
import pytest

from annihilate import harness as Hn
from annihilate import hjsolver as H
from annihilate import levelset as L
from annihilate import measures as M
from annihilate.integrator import IntegratorConfig, evolve
from annihilate.particles import ParticleState, net_charge, same_sign_gap
from reference import grid_lipschitz, grid_sup_norm, ladder_errors, near_field_quadrature, pair_bump


def criterion(num, desc, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"\nACCEPTANCE {num:02d} [{status}] {desc}{suffix}")
    return passed


def make(x, b, gamma=None):
    return ParticleState(
        positions=np.asarray(x, float),
        charges=np.asarray(b, int),
        coupling=gamma,
    )


@pytest.fixture(scope="module")
def random_runs():
    """Randomized ensemble shared by criteria 3-5: >= 20 runs with events."""
    rng = np.random.default_rng(2024)
    out = []
    while sum(1 for tr in out if tr.events) < 20 or len(out) < 25:
        n = int(rng.choice([4, 6, 8, 12, 16]))
        st = Hn._random_state(rng, n)
        cfg = IntegratorConfig(t_end=1.0, sample_times=tuple(np.linspace(0, 1, 21)))
        out.append(evolve(st, cfg))
    return out


@pytest.fixture(scope="module")
def ladders():
    specs = {
        name: Hn.ExperimentSpec(datum=name, ns=(8, 16, 32, 64, 128), t_end=0.25)
        for name in ("sigmoid", "double_bump")
    }
    return {name: Hn.run_convergence(spec) for name, spec in specs.items()}


def test_criterion_01_pair_annihilation_oracle():
    a = 0.7
    s = make([-a, a], [1, -1], gamma=0.5)
    traj = evolve(s, IntegratorConfig(t_end=3.0 * a * a))
    tau = traj.events[0].tau
    tau_err = abs(tau - 2 * a * a) / (2 * a * a)
    before = traj.times < tau
    d = traj.positions[before, 1] - traj.positions[before, 0]
    gap_devs = np.abs(d * d - (4 * a * a - 2 * traj.times[before])) / (4 * a * a)
    gap_dev = float(np.max(gap_devs, initial=0.0))
    ok = tau_err <= 1e-6 and gap_dev <= 1e-6
    assert criterion(
        1,
        "pair annihilates at tau = 2a^2 and follows d^2 = 4a^2 - 2t",
        ok,
        f"tau rel err {tau_err:.2e}, gap rel dev {gap_dev:.2e}",
    )


def test_criterion_02_odd_lattice_equality():
    # equality case of d+^2 >= d0^2 + 8t/(n^2-1): (i) on or above the line,
    # (ii) same slope at t = 0.  Pointwise equality is false for the exact
    # ODE (d+^2'' = +3.8e-3 at t = 0, deviation 9e-2 at t = 10)
    n = 9
    rate = 8.0 / (n * n - 1.0)
    s = make(np.arange(1.0, n + 1.0), np.ones(n, int))
    ts = tuple(np.linspace(0.5, 10.0, 20))
    h = 1e-3
    traj = evolve(
        s,
        IntegratorConfig(
            t_end=10.0,
            sample_times=(h, 2 * h) + ts,
            abs_tol=1e-14,
            rel_tol=1e-12,
            store_steps=False,
        ),
    )

    def gap_sq(t):
        return same_sign_gap(traj.state_at(t).positions, s.charges, 1) ** 2

    margin = float(np.min([gap_sq(t) - (1.0 + rate * t) for t in ts]))

    def r(d):
        return (gap_sq(d) - 1.0) / d

    # Richardson extrapolation cancels the O(h) bias of the one-sided quotient
    slope_err = abs(2.0 * r(h) - r(2 * h) - rate)
    ok = margin >= -1e-8 and slope_err <= 1e-8
    assert criterion(
        2,
        "odd lattice stays on or above d+^2 = 1 + 8t/(n^2-1) on [0.5, 10] and "
        "leaves it with slope 8/(n^2-1) at t = 0, both to 1e-8",
        ok,
        f"min margin above the bound {margin:.3e}, initial slope error {slope_err:.2e}",
    ), (
        f"odd lattice (n={n}) violates the equality case of the same-sign gap "
        f"bound: smallest margin d+^2 - (1 + 8t/(n^2-1)) is {margin:.3e} "
        f"(must be >= -1e-8) and the extrapolated initial slope is off "
        f"8/(n^2-1) by {slope_err:.3e} (must be <= 1e-8)"
    )


def test_criterion_03_conservation(random_runs):
    assert len([tr for tr in random_runs if tr.events]) >= 20
    m1_drifts = []
    net_ok = True
    for tr in random_runs:
        m1_0 = float(tr.positions[0].sum())
        q0 = net_charge(tr.state(0))
        for st in map(tr.state, range(len(tr.times))):
            m1_drifts.append(abs(float(st.positions.sum()) - m1_0))
            net_ok &= net_charge(st) == q0
    m1_worst = float(np.max(m1_drifts))
    ok = m1_worst <= 1e-9 and net_ok
    assert criterion(
        3,
        "M1 drift <= 1e-9 and net charge exact over >= 20 runs with events",
        ok,
        f"max |M1 drift| {m1_worst:.2e}, net charge exact: {net_ok}",
    )


def test_criterion_04_m2_drift(random_runs):
    rel_devs = []
    for tr in random_runs:
        times = np.asarray(tr.times)
        cuts = [times[0]] + [ev.tau for ev in tr.events] + [times[-1]]
        for a, b in zip(cuts[:-1], cuts[1:]):
            inside = [
                k
                for k, t in enumerate(tr.times)
                if (a + 1e-13 < t < b - 1e-13) or (a == times[0] and t == a)
            ]
            if len(inside) < 2:
                continue
            k0, k1 = inside[0], inside[-1]
            dt = tr.times[k1] - tr.times[k0]
            if dt <= 0.05:
                continue
            st = tr.state(k0)
            bsum = float(st.charges.sum())
            pred = (bsum * bsum - float(np.sum(st.charges**2))) / (2.0 * st.n)
            if pred == 0.0:
                continue
            m2 = lambda s: 0.5 * float(np.sum(s.positions**2))
            slope = (m2(tr.state(k1)) - m2(st)) / dt
            rel_devs.append(abs(slope - pred) / abs(pred))
    segments = len(rel_devs)
    worst_rel = float(np.max(rel_devs, initial=0.0))
    ok = segments > 0 and worst_rel <= 1e-5
    assert criterion(
        4,
        "between events dM2/dt = ((sum b)^2 - sum b^2)/(2n) to rel 1e-5",
        ok,
        f"worst rel dev {worst_rel:.2e} over {segments} segments",
    )


def test_criterion_05_collision_exponent(random_runs):
    slopes = []
    for tr in random_runs:
        for ev in tr.events:
            s = Hn.fit_collision_exponent(tr, ev)
            if s is not None:
                slopes.append(s)
    ok = len(slopes) >= 20 and all(0.48 <= s <= 0.52 for s in slopes)
    assert criterion(
        5,
        "log-log collision exponent in [0.48, 0.52] for every event",
        ok,
        f"{len(slopes)} events, slope range [{min(slopes):.4f}, {max(slopes):.4f}]",
    )


def test_criterion_06_operator_identity():
    rng = np.random.default_rng(7)
    devs = []
    for _ in range(100):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(-2, 2, n)) + np.arange(n) * 0.01
        b = rng.choice([-1, 1], n)
        u = L.from_particles(make(x, b))
        for j in range(u.n_jumps):
            lhs = n * L.nonlocal_operator_quadrature(u, float(u.locations[j]))
            rhs = -sum(
                u.signs[k] / (u.locations[j] - u.locations[k])
                for k in range(u.n_jumps)
                if k != j
            )
            devs.append(abs(lhs - rhs))
    worst = float(np.max(devs))
    ok = worst <= 1e-10
    assert criterion(
        6,
        "n * pv-integral equals -sum b_j/(x_i - x_j) to abs 1e-10 (100 configs)",
        ok,
        f"max abs dev {worst:.2e}",
    )


def test_criterion_07_staircase_and_quartic_bounds():
    rng = np.random.default_rng(8)
    far_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(-2, 2, n)) + np.arange(n) * 0.01
        u = L.from_particles(make(x, rng.choice([-1, 1], n)))
        j = int(rng.integers(0, n))
        rho = float(rng.uniform(0.05, 2.0))
        far_ok &= abs(L.far_field(u, j, rho)) <= (4 * u.sup_norm() + u.eps) / rho + 1e-12

    rho = 0.5
    cfg = H.SchemeConfig(L=4.0, h=rho / 32, rho=rho, t_end=1.0)
    y = 0.3
    g = H.GridFunction.from_callable(
        lambda x: (x - y) ** 4 * np.exp(-((x / 3.0) ** 4)), cfg
    )
    i = int(round((0.55 + cfg.L) / cfg.h))
    exact = 12 * (g.xs[i] - y) ** 2 * rho + (2 / 3) * rho**3
    got = near_field_quadrature(g, i, rho)
    quartic_rel = abs(got - exact) / exact
    ok = far_ok and quartic_rel <= 1e-2
    assert criterion(
        7,
        "far-field bound (4||u||+eps)/rho and quartic near field at h = rho/32",
        ok,
        f"far bound holds: {far_ok}, quartic rel err {quartic_rel:.2e}",
    )


def _random_compact_profile(rng, xs):
    """Smooth random datum exactly constant outside [-1, 1] (= [-L/2, L/2])."""
    c1, c2 = rng.uniform(-0.4, 0.4, 2)
    w1, w2 = rng.uniform(0.3, 0.55, 2)
    amp1, amp2 = rng.uniform(0.1, 0.4), rng.uniform(-0.3, 0.3)
    step = Hn._smoothstep((xs - c1) / w1)
    bump = Hn._mollifier((xs - c2) / w2)
    vals = amp1 * step + amp2 * bump
    return H.GridFunction(xs=xs, values=vals, tails=(0.0, amp1))


def test_criterion_08_scheme_properties():
    cfg = H.SchemeConfig(L=2.0, h=1 / 64, rho=4 / 64, t_end=0.1)
    rng = np.random.default_rng(9)
    xs = np.linspace(-2.0, 2.0, 257)
    order_gaps = []
    norms_ok = True
    for _ in range(20):
        c2 = rng.uniform(-0.4, 0.4)
        amp = rng.uniform(0.05, 0.3)
        u = _random_compact_profile(rng, xs)
        bump = Hn._mollifier((xs - c2) / 0.5)
        w = H.GridFunction(xs=xs, values=u.values + amp * bump, tails=u.tails)
        sup, lip = grid_sup_norm(u), grid_lipschitz(u)
        for _ in range(10):
            dt = min(H.step_hj(u, cfg).time - u.time, H.step_hj(w, cfg).time - w.time)
            u = H.step_hj(u, cfg, dt=dt)
            w = H.step_hj(w, cfg, dt=dt)
            order_gaps.append(float(np.min(w.values - u.values)))
            norms_ok &= grid_sup_norm(u) <= sup + 1e-12 and grid_lipschitz(u) <= lip + 1e-9
            sup, lip = grid_sup_norm(u), grid_lipschitz(u)
    const = H.GridFunction.from_callable(lambda x: np.full_like(x, 0.3), cfg)
    const_ok = np.array_equal(H.step_hj(const, cfg, dt=1e-3).values, const.values)
    worst_order = float(np.min(order_gaps))
    ok = worst_order >= -1e-12 and norms_ok and const_ok
    assert criterion(
        8,
        "discrete comparison, norms non-increasing, constants invariant",
        ok,
        f"min ordering gap {worst_order:.2e}, norms monotone: {norms_ok}, "
        f"constants fixed: {const_ok}",
    )


def test_criterion_09_example_pair_family():
    pos_devs, sup_excesses = [], []
    for n in (4, 8, 16):
        eps = 1.0 / n
        datum = pair_bump(eps)
        st = Hn.sample_particles(datum.u0, n, 0.5, window=(-8.0, 8.0))
        x0 = 1.0  # crossings of eps/(x^2+1) at level eps/2
        tau = x0 * x0 / eps
        ts = tuple(np.linspace(0.0, 0.9 * tau, 10))
        traj = evolve(st, IntegratorConfig(t_end=ts[-1], sample_times=ts))
        base = Hn.quantized_level_below(0.0, eps, 0.5)
        grid = np.linspace(-6.0, 6.0, 2001)
        for t in ts:
            s = traj.state_at(t)
            pred = math.sqrt(x0 * x0 - eps * t)
            pos_devs += [abs(s.positions[0] + pred), abs(s.positions[1] - pred)]
            u_n = L.from_particles(s, base=base)
            exact = datum.exact(t, grid)
            sup_excesses.append(float(np.max(np.abs(u_n(grid) - exact))) - eps)
    worst_pos, worst_sup = float(np.max(pos_devs)), float(np.max(sup_excesses))
    ok = worst_pos <= 1e-6 and worst_sup <= 1e-6
    assert criterion(
        9,
        "pair family follows +-sqrt(x0^2 - eps t); sup|u_n - u| <= 1/n + 1e-6",
        ok,
        f"worst crossing dev {worst_pos:.2e}, worst sup excess {worst_sup:.2e}",
    )


def test_criterion_10_convergence_ladder(ladders):
    details = []
    ok = True
    for name, res in ladders.items():
        errs = ladder_errors(res)
        mono = all(b <= 1.1 * a for a, b in zip(errs[:-1], errs[1:]))
        ratio = errs[-1] <= errs[0] / 3.0
        ok &= mono and ratio and all(r.error is None for r in res.rows)
        details.append(f"{name}: e = {['%.4f' % e for e in errs]}, monotone {mono}")
    assert criterion(
        10,
        "e_n non-increasing (slack 1.1) on n = 8..128 and e_128 <= e_8 / 3",
        ok,
        "; ".join(details),
    )


def test_criterion_11_measure_diagnostics():
    dipoles = [
        M.SignedAtomicMeasure(locations=np.array([0.0, 1.0 / n]), weights=np.array([-1.0, 1.0]))
        for n in (4, 8, 16, 32, 64, 128, 256)
    ]
    zero = M.SignedAtomicMeasure(locations=np.array([0.0]), weights=np.array([0.0]))
    dictionary = M.default_dictionary((-2.0, 2.0))
    proxies = [M.narrow_distance_proxy(mu, zero, dictionary) for mu in dipoles]
    proxy_ok = all(b < a for a, b in zip(proxies[:-1], proxies[1:])) and proxies[-1] < 0.05
    sup_ok = all(M.cdf(mu).sup_norm() == 1.0 for mu in dipoles)
    _, aec_fail = M.aec_modulus(dipoles, omega=lambda r: 10.0 * abs(r))

    ns = (8, 16, 32, 64, 128)
    ramps = [
        M.SignedAtomicMeasure(
            locations=np.linspace(0.0, 1.0, n, endpoint=False), weights=np.full(n, 1.0 / n)
        )
        for n in ns
    ]
    s_ramp, aec_pass = M.aec_modulus(ramps, omega=lambda r: abs(r))
    ramp_ok = aec_pass and all(s <= 2.0 / n + 1e-12 for n, s in zip(ns, s_ramp))

    ok = proxy_ok and sup_ok and (not aec_fail) and ramp_ok
    assert criterion(
        11,
        "dipole: narrow proxy -> 0, CDF sup = 1, AEC fails; Lipschitz family passes",
        ok,
        f"proxies {['%.3f' % p for p in proxies]}, ramp defects "
        f"{['%.4f' % s for s in s_ramp]}",
    )


def test_criterion_12_stability():
    rng = np.random.default_rng(12)
    sups = Hn.stability_sweep(Hn._triple_collision_fixture(), (1e-2, 1e-3, 1e-4), 1.0, rng)
    ok = sups[0] > sups[1] > sups[2]
    assert criterion(
        12,
        "sup_t d_M decreases monotonically with the perturbation size",
        ok,
        f"sup d_M = {['%.3e' % s for s in sups]} for delta = 1e-2, 1e-3, 1e-4",
    )
