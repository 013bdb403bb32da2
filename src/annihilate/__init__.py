"""Signed-charge interacting particles with annihilation, and their level-set limit.

Modules by concern:

- ``particles``   state, forces, energy of the pairwise-singular system
- ``integrator``  adaptive time evolution with collision detection/resolution
- ``moments``     power-sum moments and the moment metric
- ``levelset``    step-function view, staircase envelopes, the discrete
                  nonlocal operator and its closed form
- ``hjsolver``    monotone finite-difference solver for the nonlocal
                  Hamilton-Jacobi limit equation
- ``measures``    signed empirical measures and convergence diagnostics
- ``harness``     discrete-to-continuum convergence experiments
- ``io``          stable file formats: trajectory CSV, event JSONL,
                  snapshot/measure CSV
- ``cli``         command-line interface
"""

__version__ = "0.1.0"
