"""Per-layer metrics of one traced command, computed from its span records.

A span's self time is its duration minus the time covered by its direct
child spans; Field checks are timed in total per process, not as spans.  Totals are summed over the command's processes (the parent and
any pool workers); counts are exact and repeat from run to run.
"""

from __future__ import annotations

from collections import defaultdict

from command import CommandResult

PER_LAYER = (
    ("solver.flow_coupled_s", "s"),
    ("solver.flow_coupled_calls", "count"),
    ("solver.iter_s", "s"),
    ("solver.cell_iters_per_s", "1/s"),
    ("solver.continuity_s", "s"),
    ("solver.continuity_calls", "count"),
    ("solver.continuity_calls_per_iter", "count"),
    ("solver.mu_s", "s"),
    ("solver.c_s", "s"),
    ("solver.picard_self_s", "s"),
    ("solver.picard_iters", "count"),
    ("solver.stages", "count"),
    ("solver.iters_sigma", "count"),
    ("solver.iters_eps", "count"),
    ("solver.bisections", "count"),
    ("mesh.gradient_s", "s"),
    ("mesh.gradient_calls", "count"),
    ("mesh.laplacian_solve_s", "s"),
    ("mesh.laplacian_solve_calls", "count"),
    ("mesh.field_checks", "count"),
    ("mesh.field_check_s", "s"),
    ("potential.dF_delta_s", "s"),
    ("potential.dF_delta_calls", "count"),
    ("potential.pressure_s", "s"),
    ("diagnostics.report_s", "s"),
    ("diagnostics.report_calls", "count"),
    ("cli.output_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("config.parse_s", "s"),
    ("process.import_s", "s"),
    ("trace.overhead_frac", "frac"),
)

# Layers that only some workloads exercise.  They are reported (results file
# and printed table) where their spans exist, but not declared, so that no
# declared time reads a constant 0 on the workloads that bypass the layer.
WORKLOAD_LAYERS = (
    ("solver.sweep_self_s", "s", "solver.delta_sweep"),
    ("cli.pool_s", "s", "cli.pool_map"),
    ("cli.pool_busy_frac", "frac", "cli.pool_map"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(result: CommandResult, n_cells: int, out_bytes: int) -> dict[str, float] | None:
    """The per-layer metrics of one command, except ``trace.overhead_frac``.

    Times are on the host clock of their process (``command.HostClock``), as
    the end-to-end ones are; the import time is scaled by the import
    calibration.  None when a process of the command made no calibration.
    """
    clocks = result.clocks()
    if clocks is None:
        return None
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    continuity_in_picard = 0
    field_check_s = 0.0
    for rec, clock in zip(result.records, clocks):
        spans = rec["spans"]
        durations = [clock(t1) - clock(t0) for _, t0, t1, _ in spans]
        covered = [0.0] * len(spans)
        for (_, _, _, parent), d in zip(spans, durations):
            if parent >= 0:
                covered[parent] += d
        for i, (name, _, _, parent) in enumerate(spans):
            total[name] += durations[i]
            self_s[name] += durations[i] - covered[i]
            calls[name] += 1
            if name == "solver.solve_continuity" and parent >= 0 \
                    and spans[parent][0] == "solver.picard_step":
                continuity_in_picard += 1
        field_check_s += rec["field_check_s"] * clock.mean_speed

    solves = result.solves
    stages = [st for s in solves for st in s.get("stages", [])]
    iters = sum(st[2] for st in stages)
    iters_eps = sum(st[2] for s in solves if s.get("eps_steps")
                    for st in s.get("stages", [])[-s["eps_steps"]:])
    pool_s = total["cli.pool_map"] + total["cli.pool_shutdown"]
    workers = result.parent.get("pool_workers", 0)
    metrics = {
        "solver.flow_coupled_s": total["solver.solve_flow_coupled"],
        "solver.flow_coupled_calls": calls["solver.solve_flow_coupled"],
        "solver.iter_s": _ratio(total["solver.picard_step"], calls["solver.picard_step"]),
        "solver.cell_iters_per_s": _ratio(n_cells * iters, total["solver.continuation_solve"]),
        "solver.continuity_s": total["solver.solve_continuity"],
        "solver.continuity_calls": calls["solver.solve_continuity"],
        "solver.continuity_calls_per_iter": _ratio(continuity_in_picard, calls["solver.picard_step"]),
        "solver.mu_s": total["solver.solve_mu"],
        "solver.c_s": total["solver.solve_c"],
        "solver.picard_self_s": self_s["solver.picard_step"],
        "solver.picard_iters": iters,
        "solver.stages": len(stages),
        "solver.iters_sigma": iters - iters_eps,
        "solver.iters_eps": iters_eps,
        "solver.bisections": sum(len(s["stages"]) - s["planned_stages"] for s in solves if "stages" in s),
        "mesh.gradient_s": total["mesh.gradient"],
        "mesh.gradient_calls": calls["mesh.gradient"],
        "mesh.laplacian_solve_s": total["mesh.laplacian_solve"],
        "mesh.laplacian_solve_calls": calls["mesh.laplacian_solve"],
        "mesh.field_checks": sum(rec["field_checks"] for rec in result.records),
        "mesh.field_check_s": field_check_s,
        "potential.dF_delta_s": total["potential.dF_delta"],
        "potential.dF_delta_calls": calls["potential.dF_delta"],
        "potential.pressure_s": total["potential.pressure"],
        "diagnostics.report_s": total["diagnostics.compute_report"],
        "diagnostics.report_calls": calls["diagnostics.compute_report"],
        "cli.output_s": self_s["cli.cmd_solve"] + self_s["cli.cmd_sweep"],
        "cli.output_bytes": out_bytes,
        "config.parse_s": total["config.load_config"],
        "process.import_s": result.parent.get("import_s", 0.0) * result.import_speed,
        "solver.sweep_self_s": self_s["solver.delta_sweep"],
        "cli.pool_s": pool_s,
        "cli.pool_busy_frac": _ratio(total["cli.sweep_value_cold"], workers * pool_s),
    }
    for name, _, span in WORKLOAD_LAYERS:
        if not calls[span]:
            del metrics[name]
    return metrics
