"""Stationary compressible two-phase mixture flow on a 1-D interval.

A small numerical library built around a singular logarithmic mixing
potential and its C2 regularization: closed-form potential evaluation, a
cell-centered finite-difference mesh whose Neumann Laplacian is inverted by
prefix sums, a damped fixed-point solver (one stage by default, or a
continuation ladder in the regularization eps), diagnostics for the
energies/constraints/limit trends of the model, and a deterministic
file-driven command line.

The modules (``chns1d.mesh``, ``potential``, ``solver``, ``diagnostics``,
``config``, ``cli``) are the API: the package root re-exports nothing, so
``import chns1d`` loads none of them.
"""

__version__ = "0.1.0"
