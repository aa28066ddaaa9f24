"""Command-line experiment runner.

Two subcommands: ``solve`` builds (or loads) a TT linear system, runs the
selected solver, and writes a CSV convergence log, a JSON summary, and the
solution in the TT file format; ``diag`` runs randomized checks of the
convergence theory and writes a JSON report.

Runs are deterministic for a fixed seed and thread count.  BLAS threading is
controlled by the usual environment variables (``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``); pin them for reproducible
timings.

Exit codes: 0 converged / check passed, 2 not converged / check failed,
3 invalid input, 4 I/O error, 5 numerical failure (a linear-algebra routine
failed inside a run).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .amen import SolverConfig, als_solve, amen_solve, dmrg_solve
from .diagnostics import (
    dense_oracle_solve,
    run_fom_check,
    run_kantorovich_check,
    run_rate_check,
)
from .io import tt_io_read, tt_io_write
from .problems import (
    CascadeCMESpec,
    PoissonSpec,
    TimeSystemSpec,
    build_cme_operator,
    build_initial_state,
    build_poisson,
    build_time_system,
)
from .tt import (
    DenseSizeError,
    TTMatrix,
    TTVector,
    _bits,
    _check_finite,
    _count_error,
    _real_error,
    qtt_quantize,
    to_dense,
    tt_add,
    tt_norm,
)

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INVALID = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5

CSV_HEADER = ["sweep", "wall_time_s", "rel_residual", "a_norm_error", "max_rank", "local_converged"]

# name -> (driver, enrichment)
SOLVERS = {
    "amen_svd": (amen_solve, "svd"),
    "amen_chol": (amen_solve, "chol"),
    "amen_als": (amen_solve, "als"),
    "als": (als_solve, "none"),
    "dmrg": (dmrg_solve, "none"),
}
PROBLEMS = ("poisson", "cme", "cme_time", "custom")

class SpecError(ValueError):
    """Invalid experiment specification; message lists the offending fields."""


@dataclass
class ExperimentSpec:
    """Validated description of one solver run."""

    problem: str = "poisson"
    solver: str = "amen_svd"
    d: int = 4
    n: int = 8
    tol: float = 1e-5
    kickrank: int = 4
    max_sweeps: int = 20
    max_rank: Optional[int] = None
    seed: int = 0
    out: str = "experiment"
    matrix: Optional[str] = None
    rhs: Optional[str] = None
    reference: str = "dense"
    # time-system knobs (cme_time), overridable through --spec; cme and
    # cme_time quantize the species modes where n is a power of two
    n_steps: int = 256
    t_final: float = 10.0
    scheme: str = "crank_nicolson"

    def validate(self):
        bad = []

        def check(name, allowed=lambda value: True, why=""):
            """A string first, then its value."""
            value = getattr(self, name)
            if not isinstance(value, str):
                bad.append(f"{name}={value!r} (must be a string)")
            elif not allowed(value):
                bad.append(f"{name}={value!r} ({why})")

        check("problem", lambda v: v in PROBLEMS, f"one of {PROBLEMS}")
        check("solver", lambda v: v in SOLVERS, f"one of {tuple(SOLVERS)}")
        # the counts and the least value each takes (see tt._count_error)
        ints = [("d", 1), ("n", 2), ("kickrank", 1), ("max_sweeps", 1), ("max_rank", 1),
                ("seed", 0), ("n_steps", 1)]
        for name, least in ints:
            if not (name == "max_rank" and self.max_rank is None):
                bad.append(_count_error(name, getattr(self, name), least))
        # the reals (see tt._real_error); tol must also be below 1
        tol_bad = _real_error("tol", self.tol)
        if tol_bad is None and self.tol >= 1:
            tol_bad = f"tol={self.tol!r} (must be < 1)"
        bad += [tol_bad, _real_error("t_final", self.t_final)]
        check("reference", lambda v: v in ("dense", "none"), "one of dense|none")
        check("out")
        for name in ("matrix", "rhs"):
            if getattr(self, name) is not None:
                check(name)
        if self.problem == "custom" and (self.matrix is None or self.rhs is None):
            bad.append("matrix/rhs (required for problem=custom)")
        check("scheme", lambda v: v in ("crank_nicolson", "implicit_euler"),
              "one of crank_nicolson|implicit_euler")
        bad = [complaint for complaint in bad if complaint]
        if bad:
            raise SpecError("invalid experiment fields: " + "; ".join(bad))


def build_problem(spec: ExperimentSpec):
    """Return (A, y) for the requested problem."""
    if spec.problem == "poisson":
        return build_poisson(PoissonSpec(dimension=spec.d, grid_points=spec.n))
    if spec.problem in ("cme", "cme_time"):
        cspec = CascadeCMESpec(species=spec.d, states=spec.n)
        A, psi0 = _quantized(spec, build_cme_operator(cspec), build_initial_state(cspec))
        if spec.problem == "cme":
            return A, psi0
        tspec = TimeSystemSpec(
            tau=spec.t_final / spec.n_steps, n_steps=spec.n_steps, scheme=spec.scheme
        )
        # binary time cores where A is binary and n_steps a power of two
        return build_time_system(A, psi0, tspec)
    # custom
    A = tt_io_read(spec.matrix)
    y = tt_io_read(spec.rhs)
    if not isinstance(A, TTMatrix) or not isinstance(y, TTVector):
        raise SpecError("custom problem needs a ttmatrix file and a ttvector file")
    for path, train in ((spec.matrix, A), (spec.rhs, y)):
        _check_finite(path, train)
    return A, y


def _quantized(spec: ExperimentSpec, *trains):
    """``trains`` in binary modes where ``spec.n`` is a power of two, else as
    they are."""
    if _bits(spec.n) is None:
        return trains
    return tuple(qtt_quantize(t, tol=1e-13) for t in trains)


def run_experiment(spec: ExperimentSpec):
    """Build, solve, measure the reference error, and write all artifacts."""
    spec.validate()
    A, y = build_problem(spec)
    driver, enrichment = SOLVERS[spec.solver]
    config = SolverConfig(
        tol=spec.tol,
        max_sweeps=spec.max_sweeps,
        kickrank=spec.kickrank,
        max_rank=spec.max_rank,
        seed=spec.seed,
        enrichment=enrichment,
    )
    x, log = driver(A, y, config=config)
    err = _reference_error(spec, A, y, x)
    _write_artifacts(spec, A, y, x, log, err)
    return x, log


def _reference_error(spec: ExperimentSpec, A, y, x) -> Optional[float]:
    """Relative error against the dense solution, or against a
    tighter-tolerance solve where the system is above tt.DEFAULT_DENSE_CAP."""
    if spec.reference == "none":
        return None
    try:
        xs = dense_oracle_solve(to_dense(A), to_dense(y))
    except DenseSizeError:
        return _tight_reference_error(spec, A, y, x)
    except np.linalg.LinAlgError:
        return None
    xd = to_dense(x)
    denom = np.linalg.norm(xs)
    return float(np.linalg.norm(xd - xs) / (denom if denom > 0 else 1.0))


def _tight_reference_error(spec: ExperimentSpec, A, y, x) -> Optional[float]:
    ref_config = SolverConfig(
        tol=spec.tol / 1000,
        max_sweeps=max(spec.max_sweeps, 30),
        kickrank=spec.kickrank,
        enrichment="svd",
        seed=spec.seed + 1,
    )
    xref, ref_log = amen_solve(A, y, config=ref_config)
    if ref_log.status != "converged":
        return None
    denom = tt_norm(xref)
    diff = tt_norm(tt_add(x, xref, 1.0, -1.0))
    return float(diff / (denom if denom > 0 else 1.0))


def write_log(log, path, err=None):
    """CSV convergence log, one row per sweep.  ``err``, the reference error
    of the returned iterate, fills the error field of ``log.best``'s row; the
    field is empty elsewhere."""
    best = log.best
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in log.records:
            writer.writerow(
                [
                    rec.sweep,
                    repr(float(rec.wall_time)),
                    repr(float(rec.rel_residual)),
                    "" if err is None or rec is not best else repr(float(err)),
                    rec.max_rank,
                    int(rec.local_converged),
                ]
            )


def _write_artifacts(spec, A, y, x, log, err):
    write_log(log, spec.out + ".csv", err)
    summary = {
        "status": log.status,
        "stop_reason": log.stop_reason,
        "final_residual": log.final_residual,
        "final_error": err,
        "ranks": list(x.ranks),
        "sweeps": len(log.records),
        "config": asdict(spec),
        "notes": [s["note"] for rec in log.records for s in rec.steps if "note" in s],
    }
    with open(spec.out + ".json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tt_io_write(x, spec.out + ".tt")


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SpecError(message)


def make_parser() -> _Parser:
    parser = _Parser(prog="ttamen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag not given is absent from the namespace: ExperimentSpec holds the defaults
    ps = sub.add_parser(
        "solve",
        help="build and solve a TT linear system",
        argument_default=argparse.SUPPRESS,
    )
    ps.add_argument("--problem", choices=PROBLEMS)
    ps.add_argument("--d", type=int, help="number of modes / species")
    ps.add_argument("--n", type=int, help="points or states per mode")
    ps.add_argument("--solver", choices=SOLVERS)
    ps.add_argument("--tol", type=float)
    ps.add_argument("--kickrank", type=int)
    ps.add_argument("--max-sweeps", type=int)
    ps.add_argument("--max-rank", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--out", help="artifact path prefix")
    ps.add_argument("--matrix", help="TT operator file (custom)")
    ps.add_argument("--rhs", help="TT right-hand side file (custom)")
    ps.add_argument("--reference", choices=("dense", "none"))
    ps.add_argument("--spec", help="JSON experiment object overriding flags")

    pd = sub.add_parser("diag", help="randomized convergence-theory checks")
    pd.add_argument("--check", choices=("kantorovich", "rate", "fom"), required=True)
    pd.add_argument("--trials", type=int, default=100)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--out", default=None, help="JSON report path (default stdout)")
    return parser


_SPEC_KEYS = {f for f in ExperimentSpec.__dataclass_fields__}


def _spec_from_args(args) -> ExperimentSpec:
    fields = {key: value for key, value in vars(args).items() if key in _SPEC_KEYS}
    if "spec" in vars(args):
        with open(args.spec) as fh:
            entry = json.load(fh)
        if not isinstance(entry, dict):
            raise SpecError("a spec file holds one JSON object")
        unknown = sorted(set(entry) - _SPEC_KEYS)
        if unknown:
            raise SpecError(f"unknown spec fields: {', '.join(unknown)}")
        fields.update(entry)
    return ExperimentSpec(**fields)


def _run_solve(args) -> int:
    spec = _spec_from_args(args)
    x, log = run_experiment(spec)
    print(
        f"{spec.problem} {spec.solver}: {log.status} after "
        f"{len(log.records)} sweeps, residual {log.final_residual:.3e}, "
        f"artifacts at {spec.out}.{{csv,json,tt}}"
    )
    return EXIT_OK if log.status == "converged" else EXIT_NOT_CONVERGED


def _run_diag(args) -> int:
    counts = [_count_error("trials", args.trials, 1), _count_error("seed", args.seed, 0)]
    if bad := "; ".join(filter(None, counts)):
        raise SpecError(bad)
    if args.check == "kantorovich":
        report = run_kantorovich_check(trials=args.trials, seed=args.seed)
    elif args.check == "rate":
        report = run_rate_check(trials=min(args.trials, 10), seed=args.seed)
    else:
        report = run_fom_check(trials=args.trials, seed=args.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report["passed"] else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _run_solve(args)
        return _run_diag(args)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, so it must be caught before invalid input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # SpecError, TTFormatError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
