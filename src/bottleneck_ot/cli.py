"""Batch command-line front end.

Exit codes (scriptable):
  0  success: distances computed / decomposition valid / consistent / stable
  2  malformed input file or bad arguments
  3  measures on mismatched spaces
  4  infeasible decomposition instance (witness printed)
  5  sequence not convergent in the bottleneck metric (witness printed)
  6  inconclusive verdict (convergence or stability)
  7  unstable with witness

Code 2 is for bad input only.  A ``SolverInvariantError`` (a solver breaking
its own guarantee), or any exception that is not one of the package's errors,
is a bug: it propagates with its traceback instead of exiting with code 2.

Every distance prints with 12 significant digits; masses print as exact
rationals.  Identical inputs, seed and flags produce byte-identical output.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import cache

from . import fileio
from .convergence import CONSISTENT, NOT_CONVERGENT, d_convergence_verdict
from .decomposition import check_feasibility, decompose, verify_decomposition
from .errors import BottleneckOTError, InfeasibleInstance, MalformedInput, SolverInvariantError, SpaceMismatch
from .spaces import hausdorff
from .stability import (
    STABLE,
    UNSTABLE,
    MapSystem,
    probe_asymptotic,
    probe_attractor,
    probe_exponential,
    probe_lyapunov,
    probe_measure_lyapunov,
    scenario_sink_source,
    scenario_torus_shear,
)
from .transport import w_infinity, w_p

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_SPACE_MISMATCH = 3
EXIT_INFEASIBLE = 4
EXIT_NOT_CONVERGENT = 5
EXIT_INCONCLUSIVE = 6
EXIT_UNSTABLE = 7


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_dist(args) -> int:
    mu, nu = fileio.load_measure_pair(args.measure_a, args.measure_b)
    report = w_infinity(mu, nu)
    lines = [f"w_infinity {_fmt(report.value)}"]
    payload = {"w_infinity": _fmt(report.value)}
    for p in sorted(set(args.p or [])):
        value = w_p(mu, nu, p)
        lines.append(f"w_{p} {_fmt(value)}")
        payload[f"w_{p}"] = _fmt(value)
    if args.plan:
        payload["plan"] = _plan_rows(report.plan)
        lines.append("plan:")
        lines.extend(
            f"  {src} -> {dst}  mass {mass}  distance {dist}"
            for src, dst, mass, dist in payload["plan"]
        )
    if args.format == "json":
        sys.stdout.write(fileio.dumps_sorted(payload))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _plan_rows(plan):
    ids = plan.mu.space.point_ids
    return [
        (
            str(ids[i]),
            str(ids[j]),
            str(mass),
            _fmt(plan.mu.space.d(i, j)),
        )
        for i, j, mass in plan.entries
    ]


def cmd_plan(args) -> int:
    mu, nu = fileio.load_measure_pair(args.measure_a, args.measure_b)
    report = w_infinity(mu, nu)
    rows = _plan_rows(report.plan)
    if args.format == "json":
        sys.stdout.write(
            fileio.dumps_sorted(
                {"w_infinity": _fmt(report.value), "plan": rows}
            )
        )
    elif args.format == "csv":
        sys.stdout.write("source,target,mass,distance\n")
        sys.stdout.writelines(",".join(row) + "\n" for row in rows)
    else:
        sys.stdout.write(f"w_infinity {_fmt(report.value)}\n")
        sys.stdout.writelines(
            f"{src} -> {dst}  mass {mass}  distance {dist}\n"
            for src, dst, mass, dist in rows
        )
    return EXIT_OK


def cmd_decompose(args) -> int:
    instance = fileio.load_instance_file(args.instance)
    verdict = check_feasibility(instance)
    if not verdict.feasible:
        sys.stdout.write(f"infeasible {verdict}\n")
        return EXIT_INFEASIBLE
    result = decompose(instance, verdict=verdict)
    check = verify_decomposition(instance, result)
    payload = fileio.decomposition_to_obj(instance, result, check)
    if args.format == "json":
        sys.stdout.write(fileio.dumps_sorted(payload))
    else:
        ids = instance.xi.space.point_ids
        for k, nu in enumerate(result.components):
            parts = ", ".join(
                f"{ids[a]}: {w}" for a, w in sorted(nu.weights.items())
            )
            sys.stdout.write(f"nu_{k + 1} {{{parts}}}\n")
        sys.stdout.write(
            "trace " + " ".join(label for label, _ in result.trace) + "\n"
        )
        sys.stdout.write(f"verification {check}\n")
    return EXIT_OK if check.valid else EXIT_INFEASIBLE


def cmd_converge(args) -> int:
    sequence = fileio.load_sequence_file(args.sequence)
    report = d_convergence_verdict(sequence)
    payload = fileio.convergence_to_obj(report, sequence.space)
    if args.format == "json":
        sys.stdout.write(fileio.dumps_sorted(payload))
    else:
        sys.stdout.write(f"overall {report.overall}\n")
        sys.stdout.write(f"characterization {report.characterization_verdict}\n")
        sys.stdout.write(f"direct {report.direct_verdict}\n")
        for verdict in report.verdicts:
            status = "pass" if verdict.passed else "FAIL"
            extra = ""
            if verdict.stabilization_index is not None:
                extra = f" n0={verdict.stabilization_index}"
            if verdict.failure_index is not None:
                extra += f" at={verdict.failure_index}"
            sys.stdout.write(f"  {verdict.name}: {status}{extra}\n")
        if payload["witness"]:
            sys.stdout.write(f"witness {payload['witness']}\n")
    if report.overall == CONSISTENT:
        return EXIT_OK
    if report.overall == NOT_CONVERGENT:
        return EXIT_NOT_CONVERGENT
    return EXIT_INCONCLUSIVE


def cmd_compare(args) -> int:
    sequence = fileio.load_sequence_file(args.sequence)
    space = sequence.space
    limit = sequence.limit
    rows = []
    for n, term in enumerate(sequence.terms):
        rows.append(
            (
                str(n),
                _fmt(w_p(term, limit, 1)),
                _fmt(w_p(term, limit, 2)),
                _fmt(w_infinity(term, limit).value),
                _fmt(hausdorff(space, term.support(), limit.support())),
            )
        )
    header = ("n", "w_1", "w_2", "w_infinity", "hausdorff_support")
    if args.format == "json":
        sys.stdout.write(
            fileio.dumps_sorted([dict(zip(header, row)) for row in rows])
        )
    elif args.format == "csv":
        sys.stdout.write(",".join(header) + "\n")
        sys.stdout.writelines(",".join(row) + "\n" for row in rows)
    else:
        widths = [
            max(len(header[k]), max(len(row[k]) for row in rows))
            for k in range(len(header))
        ]
        def line(cells):
            return "  ".join(cell.ljust(widths[k]) for k, cell in enumerate(cells))
        sys.stdout.write(line(header).rstrip() + "\n")
        sys.stdout.writelines(line(row).rstrip() + "\n" for row in rows)
    return EXIT_OK


@dataclass(frozen=True)
class _SystemFile:
    """A ``--system`` file under the scenario protocol (see the ``stability``
    module): every measure name is a file, every set a list of point ids."""

    system: MapSystem
    default_delta_grid: tuple
    default_horizon: int

    def measure(self, name: str):
        return fileio.load_measure_file(name)

    def atom_set(self, token: str):
        return None

    def extra_probes(self, measure_name):
        return ()


def _resolve_scenario(args):
    if args.scenario == "sink_source":
        return scenario_sink_source(args.n_basin, args.d_xy)
    if args.scenario == "torus":
        return scenario_torus_shear(args.grid_n)
    if args.system:
        system = fileio.load_system_file(args.system)
        space = system.space
        return _SystemFile(system, (space.diameter() / 16, space.diameter() / 8), 2 * space.n_points)
    raise MalformedInput("need --scenario or --system")


def _check_stability_numbers(args) -> None:
    """Reject counts below zero and distances that are not finite and positive."""
    if args.horizon is not None and args.horizon < 0:
        raise MalformedInput(f"--horizon must be >= 0, got {args.horizon}")
    if args.probes < 0:
        raise MalformedInput(f"--probes must be >= 0, got {args.probes}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise MalformedInput(f"--tol must be finite and >= 0, got {args.tol}")
    for flag, values in (("--eps", args.eps), ("--delta", args.delta), ("--d-xy", [args.d_xy])):
        _check_radii(flag, values or ())


def _check_radii(flag: str, values) -> None:
    """Reject radii that are not finite and positive."""
    for value in values:
        if not (math.isfinite(value) and value > 0):
            raise MalformedInput(f"{flag} must be finite and > 0, got {value}")


def cmd_stability(args) -> int:
    _check_stability_numbers(args)
    scenario = _resolve_scenario(args)
    system = scenario.system
    space = system.space

    deltas = args.delta or list(scenario.default_delta_grid)
    epses = args.eps or list(deltas)
    horizon = scenario.default_horizon if args.horizon is None else args.horizon

    measure = None
    measure_name = None
    if args.measure:
        if "." in args.measure:  # a file, whatever the scenario
            measure = fileio.load_measure_file(args.measure)
        else:
            measure_name = args.measure
            measure = scenario.measure(args.measure)
            if measure is None:
                raise MalformedInput(f"unknown scenario measure {args.measure!r}")
    atoms = None
    if args.set:
        atoms = scenario.atom_set(args.set)
        if atoms is None:
            atoms = {space.index_of(part) for part in args.set.split(",")}

    notion = args.notion
    if notion == "lyapunov" and measure is not None and atoms is None:
        notion = "measure-lyapunov"
    if notion == "measure-lyapunov" and measure is None:
        raise MalformedInput("measure-lyapunov needs --measure")
    if notion != "measure-lyapunov" and atoms is None:
        raise MalformedInput(f"{notion} needs --set")
    # The radii in use, defaults included: a one-point space's default grid is (0, 0).
    if notion not in ("asymptotic", "attractor"):
        _check_radii("--delta", deltas)
    if notion != "measure-lyapunov":
        _check_radii("--eps", epses)
    eps = max(epses)
    if notion == "measure-lyapunov":
        report = probe_measure_lyapunov(
            system, measure, deltas, horizon, args.probes, args.seed,
            scenario.extra_probes(measure_name),
        )
    elif notion == "lyapunov":
        report = probe_lyapunov(
            system, atoms, epses, deltas, horizon, args.probes, args.seed
        )
    elif notion == "asymptotic":
        report = probe_asymptotic(
            system, atoms, eps, horizon, args.probes, args.seed, args.tol
        )
    elif notion == "attractor":
        flag, n_max = ("--horizon", horizon) if args.n_max is None else ("--n-max", args.n_max)
        if n_max < 1:
            raise MalformedInput(f"{flag} must be >= 1, got {n_max}")
        report = probe_attractor(system, atoms, eps, n_max)
    elif notion == "exponential":
        grid = [d for d in deltas if d < eps] or [eps / 2]
        report = probe_exponential(system, atoms, eps, grid, horizon)
    else:
        raise MalformedInput(f"unknown notion {notion!r}")

    payload = fileio.stability_to_obj(report, space)
    if args.format == "json":
        sys.stdout.write(fileio.dumps_sorted(payload))
    else:
        sys.stdout.write(f"notion {report.notion}\n")
        sys.stdout.write(f"verdict {report.verdict}\n")
        if report.witness is not None:
            w = report.witness
            sys.stdout.write(
                f"witness {w.label} sup={_fmt(w.sup_distance)} "
                f"at n={w.argmax_step}\n"
            )
        for note in report.notes:
            sys.stdout.write(f"note: {note}\n")
    if args.trace_csv:
        with open(args.trace_csv, "w") as fh:
            fh.write(report.trace_csv())
    if report.verdict == STABLE:
        return EXIT_OK
    if report.verdict == UNSTABLE:
        return EXIT_UNSTABLE
    return EXIT_INCONCLUSIVE


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bottleneck-ot",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="bottleneck distance between two measure files")
    p_dist.add_argument("measure_a")
    p_dist.add_argument("measure_b")
    p_dist.add_argument("--p", action="append", type=int, choices=(1, 2),
                        help="also print the p-Wasserstein comparison value")
    p_dist.add_argument("--plan", action="store_true", help="print the optimal plan")
    p_dist.add_argument("--format", choices=("table", "json"), default="table")
    p_dist.set_defaults(fn=cmd_dist)

    p_plan = sub.add_parser("plan", help="optimal bottleneck transport plan")
    p_plan.add_argument("measure_a")
    p_plan.add_argument("measure_b")
    p_plan.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_plan.set_defaults(fn=cmd_plan)

    p_dec = sub.add_parser("decompose", help="decompose a measure along a set family")
    p_dec.add_argument("instance")
    p_dec.add_argument("--format", choices=("table", "json"), default="table")
    p_dec.set_defaults(fn=cmd_decompose)

    p_conv = sub.add_parser("converge", help="convergence diagnostics for a sequence file")
    p_conv.add_argument("sequence")
    p_conv.add_argument("--format", choices=("table", "json"), default="table")
    p_conv.set_defaults(fn=cmd_converge)

    p_cmp = sub.add_parser("compare", help="per-term metric comparison table")
    p_cmp.add_argument("sequence")
    p_cmp.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_cmp.set_defaults(fn=cmd_compare)

    p_stab = sub.add_parser("stability", help="stability probes for a map system")
    p_stab.add_argument("--scenario", choices=("sink_source", "torus"))
    p_stab.add_argument("--system", help="system JSON file (alternative to --scenario)")
    p_stab.add_argument("--n-basin", type=int, default=6)
    p_stab.add_argument("--d-xy", type=float, default=1.0)
    p_stab.add_argument("--grid-n", type=int, default=32)
    p_stab.add_argument("--notion", required=True,
                        choices=("lyapunov", "measure-lyapunov", "asymptotic",
                                 "attractor", "exponential"))
    p_stab.add_argument("--measure", help="scenario measure name or measure file")
    p_stab.add_argument("--set", help="scenario set name or comma-separated point ids")
    p_stab.add_argument("--eps", action="append", type=float)
    p_stab.add_argument("--delta", action="append", type=float)
    p_stab.add_argument("--horizon", type=int)
    p_stab.add_argument("--probes", type=int, default=2)
    p_stab.add_argument("--seed", type=int, default=0)
    p_stab.add_argument("--tol", type=float, default=0.0)
    p_stab.add_argument("--n-max", type=int)
    p_stab.add_argument("--trace-csv", help="write the orbit trace to a CSV file")
    p_stab.add_argument("--format", choices=("table", "json"), default="table")
    p_stab.set_defaults(fn=cmd_stability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleInstance as exc:
        sys.stdout.write(f"infeasible {exc.verdict}\n")
        return EXIT_INFEASIBLE
    except SpaceMismatch as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SPACE_MISMATCH
    except SolverInvariantError:
        raise  # a solver bug, not bad input: keep the traceback, not exit 2
    except BottleneckOTError as exc:  # bad input; any other exception is a bug
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
