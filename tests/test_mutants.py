"""The mutant matrix: each mutant fails its named suite checks.

Each case applies one mutant with monkeypatch, to a module attribute that
is looked up at call time: in integrator (resolve_annihilation, the
stored-row function _stored_row or PAIR_ISOLATION), in levelset (the
operator's closed form) or in hjsolver (the upwind gradient).  It then runs
the property suite at the benchmark's size ([8] x 20).  A change that
blunts a check fails here by name.  The NaN mutants fail a check only if
its cases reach the suite's fold unreduced, since Python's max and min
drop NaN.  The swapped upwinding, CFL 1.6 and the linear dense extension
have their cases in test_harness.py.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from annihilate import harness, hjsolver, integrator, levelset, particles

REAL_RESOLVE = integrator.resolve_annihilation


def _tau_doubled(x, b, t, gamma, clusters):
    # tau - t twice the second-moment law's
    events = REAL_RESOLVE(x, b, t, gamma, clusters)
    return [replace(ev, tau=t + 2.0 * (ev.tau - t)) for ev in events]


def _meet_at_leftmost(x, b, t, gamma, clusters):
    # the cluster meets at its leftmost member, not at its mean; tau kept
    events = REAL_RESOLVE(x, b, t, gamma, clusters)
    return [replace(ev, y=float(x[ev.cluster[0]])) for ev in events]


def _meet_and_time_at_leftmost(x, b, t, gamma, clusters):
    # the cluster meets at its leftmost member, its tau recomputed about that point
    events = []
    for ev in REAL_RESOLVE(x, b, t, gamma, clusters):
        y = float(x[ev.cluster[0]])
        spread = float(np.sum((x[list(ev.cluster)] - y) ** 2))
        tau = t + 0.5 * spread / -particles.m2_rate(ev.pre_charges, gamma)
        events.append(replace(ev, y=y, tau=tau))
    return sorted(events, key=lambda ev: ev.tau)


REAL_GRADIENT = hjsolver._godunov_gradient


def _gradient_nan_in_the_middle(u, v):
    grad = REAL_GRADIENT(u, v)
    grad[grad.size // 2] = np.nan
    return grad


def _closed_form_nan(u):
    return np.full(u.n_jumps, np.nan)


def _shrink_linearly(x, pending, t):
    # committed rows shrink by (tau - t) / (tau - t_c), not by its square root
    row = x.copy()
    for ev, t_c in pending:
        if ev.tau < math.inf:
            cl = list(ev.cluster)
            row[cl] = ev.y + (x[cl] - ev.y) * ((ev.tau - t) / (ev.tau - t_c))
    return row


MUTANTS = {
    "tau_doubled": ((integrator, "resolve_annihilation", _tau_doubled),
                    {"collision_slope", "m2_drift", "ode_residual"}),
    "meet_at_leftmost": ((integrator, "resolve_annihilation", _meet_at_leftmost),
                         {"m1_conservation", "m2_drift", "ode_residual"}),
    "meet_and_time_at_leftmost": (
        (integrator, "resolve_annihilation", _meet_and_time_at_leftmost),
        {"collision_slope", "m1_conservation", "m2_drift", "ode_residual"}),
    "shrink_linearly": ((integrator, "_stored_row", _shrink_linearly),
                        {"collision_slope", "m2_drift", "ode_residual"}),
    "pair_isolation_1e-1": ((integrator, "PAIR_ISOLATION", 1e-1), {"collision_slope"}),
    "closed_form_nan": ((levelset, "nonlocal_operator_closed_form", _closed_form_nan),
                        {"operator_identity"}),
    "gradient_nan": ((hjsolver, "_godunov_gradient", _gradient_nan_in_the_middle),
                     {"hj_comparison"}),
}


def _failed_checks() -> set[str]:
    report = harness.run_property_suite(seed=0, sizes=[8], runs=20)
    return {name for name, check in report.checks.items() if not check.passed}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_its_checks(monkeypatch, mutant):
    (module, attribute, value), failing = MUTANTS[mutant]
    monkeypatch.setattr(module, attribute, value)
    assert _failed_checks() == failing


def test_real_code_passes_every_check():
    report = harness.run_property_suite(seed=0, sizes=[8], runs=20)
    assert len(report.checks) == 16
    assert report.all_passed
