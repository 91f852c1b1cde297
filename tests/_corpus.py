"""The 261-config corpus: one solve per config, one row per outcome.

The corpus is

* the 216-config grid: n = 128 and ``solver.max_picard = 300``, over g1 of
  kind sin, cos or bump at amplitude 0.05, 0.5, 2, 5, 10, 15, 20 or 30;
  m1 of 0.5, 1 or 2 with m2 = 0.3 m1; and lambda1 of 1, 0.1 or 0.02;
* the 45 near-vacuum configs: sin, cos and bump at amplitude 50, 100, 160,
  200 and 400, at n = 128, 256 and 1024, default settings otherwise.

Each config solves from the hydrostatic start.  Its row in ``corpus.csv``
gives its key; its outcome, ``converged`` or the class of the solver error;
its Picard iterations and final damping; rho_min/rho0 to 3 digits; and
whether the result is an honest fixed point (:func:`honest`).  A failed
solve has ``-`` in the last four places.  ``test_corpus.py`` re-solves
every config and compares each row exactly.  A change of numerics regenerates the table, and
the diff is its list of movers.

Run from the repository root:

    PYTHONPATH=src python tests/_corpus.py         # rewrite tests/corpus.csv
    PYTHONPATH=src python tests/_corpus.py --sha   # per-iterate SHA-1s to stdout

``--sha`` prints, for each config and for the diverging case of
``test_solver.py`` (sin 15, m1 = 0.5, lambda1 = 0.1 from the constant
state), one line per Picard iterate: the key, the iterate (0 is the state
the first step receives), the SHA-1 of the bytes of (rho, u, mu, c) and the
SHA-1 of the residual's and the damping's bits; then the outcome, with the
error message of a failed solve.  Two trees whose outputs are identical
take the same path to every result, bit for bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from chns1d import solver
from chns1d.config import parse_config_text
from chns1d.diagnostics import EI_SLACK_CONSTANT, energy_inequality

TABLE = Path(__file__).with_name("corpus.csv")
HEADER = "key,outcome,iterations,damping,rho_min_over_rho0,honest"

KINDS = ("sin", "cos", "bump")
GRID_AMPLITUDES = (0.05, 0.5, 2, 5, 10, 15, 20, 30)
GRID_M1 = (0.5, 1, 2)
GRID_LAMBDA1 = (1, 0.1, 0.02)
VACUUM_AMPLITUDES = (50, 100, 160, 200, 400)
VACUUM_N = (128, 256, 1024)

# test_solver.py's diverging case, which starts from the constant state
DIVERGING = ("diverging sin 15 m1=0.5 lambda1=0.1",
             "domain.n_cells = 128\nforcing.g1.kind = sin\nforcing.g1.amplitude = 15\n"
             "problem.m1 = 0.5\nproblem.m2 = 0.15\nfluid.lambda1 = 0.1\nsolver.max_picard = 300\n")


def configs() -> list[tuple[str, str]]:
    """(key, config text) of the 261 configs, the grid first."""
    out = []
    for kind in KINDS:
        for amp in GRID_AMPLITUDES:
            for m1 in GRID_M1:
                for lam in GRID_LAMBDA1:
                    out.append((f"grid {kind} {amp:g} m1={m1:g} lambda1={lam:g}",
                                f"domain.n_cells = 128\nsolver.max_picard = 300\n"
                                f"forcing.g1.kind = {kind}\nforcing.g1.amplitude = {amp:g}\n"
                                f"problem.m1 = {m1:g}\nproblem.m2 = {0.3 * m1:g}\n"
                                f"fluid.lambda1 = {lam:g}\n"))
    for kind in KINDS:
        for amp in VACUUM_AMPLITUDES:
            for n in VACUUM_N:
                out.append((f"vacuum {kind} {amp:g} n={n}",
                            f"domain.n_cells = {n}\n"
                            f"forcing.g1.kind = {kind}\nforcing.g1.amplitude = {amp:g}\n"))
    return out


def honest(state, log, spec, controls) -> bool:
    """The conditions of :func:`conftest.assert_honest_fixed_point`, with the
    one more Picard step undamped: exact mass at every iterate, rho >= 0,
    the energy inequality's floor, and an undamped next step that moves no
    field by more than tol_rel (1 + max|field|).  A step at damping d moves
    a field by about d times its distance to the proposal, so a damped step
    can pass where the proposal has not converged."""
    h = spec.grid.spacing_h
    if log.max_mass_error() > 1e-12 * spec.m1 or state.rho.values.min() < 0.0:
        return False
    if energy_inequality(state, spec)[2] < -EI_SLACK_CONSTANT * h**2:
        return False
    after, _ = solver.picard_step(state, log.stages[-1].eps, spec, 1.0)
    for name in ("rho", "u", "mu", "c"):
        old, new = getattr(state, name).values, getattr(after, name).values
        if np.abs(new - old).max() > controls.tol_rel * (1.0 + np.abs(old).max()):
            return False
    return True


def row(key: str, text: str) -> str:
    """The table row of one config."""
    cfg = parse_config_text(text)
    spec, controls = cfg.spec, cfg.controls
    try:
        state, log = solver.continuation_solve(spec, controls)
    except solver.SOLVER_ERRORS as err:
        return f"{key},{type(err).__name__},-,-,-,-"
    iterations = sum(stage.iterations for stage in log.stages)
    rho_min = state.rho.values.min() / spec.rho0
    mark = "yes" if honest(state, log, spec, controls) else "no"
    return f"{key},converged,{iterations},{log.stages[-1].dampings[-1]:g},{rho_min:.2e},{mark}"


def rows() -> list[str]:
    return [row(key, text) for key, text in configs()]


def _sha(*arrays) -> str:
    digest = hashlib.sha1()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def print_shas(out=sys.stdout) -> None:
    """Print the per-iterate SHA-1s of every config and of the diverging case."""
    real_step = solver.picard_step
    iterate = [0]

    def fields(state):
        return _sha(state.rho.values, state.u.values, state.mu.values, state.c.values)

    def step(state, eps, spec, damping):
        if iterate[0] == 0:
            print(f"{key} 0 {fields(state)} -", file=out)
        new, res = real_step(state, eps, spec, damping)
        iterate[0] += 1
        print(f"{key} {iterate[0]} {fields(new)} {_sha(np.array([res, damping]))}", file=out)
        return new, res

    solver.picard_step = step
    try:
        for key, text in [*configs(), DIVERGING]:
            iterate[0] = 0
            cfg = parse_config_text(text)
            start = solver.constant_state(cfg.spec, 1e-3) if key == DIVERGING[0] else None
            try:
                solver.continuation_solve(cfg.spec, cfg.controls, start)
                print(f"{key} end converged", file=out)
            except solver.SOLVER_ERRORS as err:
                print(f"{key} end {type(err).__name__}: {err}", file=out)
    finally:
        solver.picard_step = real_step


def main(argv: list[str]) -> int:
    if argv == ["--sha"]:
        print_shas()
        return 0
    if argv:
        print("usage: python tests/_corpus.py [--sha]", file=sys.stderr)
        return 2
    TABLE.write_text("\n".join([HEADER, *rows()]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
