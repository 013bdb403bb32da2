"""The mutant matrix: each mutant of the dynamics fails its named suite checks.

Each case applies one mutant with monkeypatch, to a module attribute the
integrator looks up at call time (resolve_annihilation, the stored-row
function _stored_row or PAIR_ISOLATION), and runs the property suite at
the benchmark's size ([8] x 20).  A change that blunts a check fails here by
name.  The HJ mutants and the linear dense extension have their cases in
test_harness.py.
"""
import math
from dataclasses import replace

import pytest

from annihilate import harness, integrator

REAL_RESOLVE = integrator.resolve_annihilation


def _tau_doubled(x, b, t, gamma, clusters):
    # tau - t twice the second-moment law's
    events = REAL_RESOLVE(x, b, t, gamma, clusters)
    return [replace(ev, tau=t + 2.0 * (ev.tau - t)) for ev in events]


def _meet_at_leftmost(x, b, t, gamma, clusters):
    # the cluster meets at its leftmost member, not at its mean; tau kept
    events = REAL_RESOLVE(x, b, t, gamma, clusters)
    return [replace(ev, y=float(x[ev.cluster[0]])) for ev in events]


def _shrink_linearly(x, pending, t):
    # committed rows shrink by (tau - t) / (tau - t_c), not by its square root
    row = x.copy()
    for ev, t_c in pending:
        if ev.tau < math.inf:
            cl = list(ev.cluster)
            row[cl] = ev.y + (x[cl] - ev.y) * ((ev.tau - t) / (ev.tau - t_c))
    return row


MUTANTS = {
    "tau_doubled": (("resolve_annihilation", _tau_doubled),
                    {"collision_slope", "m2_drift", "ode_residual"}),
    "meet_at_leftmost": (("resolve_annihilation", _meet_at_leftmost),
                         {"m1_conservation", "m2_drift", "ode_residual"}),
    "shrink_linearly": (("_stored_row", _shrink_linearly),
                        {"collision_slope", "m2_drift", "ode_residual"}),
    "pair_isolation_1e-1": (("PAIR_ISOLATION", 1e-1), {"collision_slope"}),
}


def _failed_checks() -> set[str]:
    report = harness.run_property_suite(seed=0, sizes=[8], runs=20)
    return {name for name, check in report.checks.items() if not check.passed}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_its_checks(monkeypatch, mutant):
    (attribute, value), failing = MUTANTS[mutant]
    monkeypatch.setattr(integrator, attribute, value)
    assert _failed_checks() == failing


def test_real_code_passes_every_check():
    report = harness.run_property_suite(seed=0, sizes=[8], runs=20)
    assert len(report.checks) == 16
    assert report.all_passed
