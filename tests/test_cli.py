"""Experiment runner: exit codes, CSV schema, spec validation, determinism."""

import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import ttamen.amen
import ttamen.cli
import ttamen.tt
from ttamen import (
    ConvergenceLog,
    PoissonSpec,
    SolverConfig,
    TTVector,
    amen_solve,
    build_poisson,
    tt_add,
    tt_io_read,
    tt_io_write,
    tt_random,
    ttmat_identity,
)
from ttamen.cli import (
    CSV_HEADER,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NOT_CONVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    ExperimentSpec,
    SOLVERS,
    SpecError,
    _spec_from_args,
    build_problem,
    main,
    make_parser,
    run_experiment,
    write_log,
)

from conftest import ttmat_random


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestSpecValidation:
    def test_defaults_valid(self):
        ExperimentSpec().validate()

    def test_messages_list_offending_fields(self):
        spec = ExperimentSpec(
            problem="heat", solver="cg", d=0, n=1, tol=2.0, kickrank=0,
            max_sweeps=0, max_rank=0, reference="exact", n_steps=0,
            t_final=0.0,
        )
        with pytest.raises(SpecError) as exc:
            spec.validate()
        msg = str(exc.value)
        for frag in (
            "problem=", "solver=", "d=0", "n=1", "tol=2.0", "kickrank=0",
            "max_sweeps=0", "max_rank=0", "reference='exact'", "n_steps=0",
            "t_final=0.0",
        ):
            assert frag in msg

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_t_final_must_be_finite(self, value):
        with pytest.raises(SpecError, match=re.escape(f"t_final={value!r} (must be positive")):
            ExperimentSpec(problem="cme_time", t_final=value).validate()
        ExperimentSpec(problem="cme_time", tol=np.float64(1e-6), t_final=np.float32(1)).validate()

    def test_custom_requires_files(self):
        with pytest.raises(SpecError):
            ExperimentSpec(problem="custom").validate()


class TestWriteLog:
    def test_header_only_for_empty_run(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(ConvergenceLog(), path)
        rows = read_csv(path)
        assert rows == [CSV_HEADER]

    def test_rows_and_empty_error_field(self, tmp_path):
        from ttamen import SweepRecord
        log = ConvergenceLog()
        log.records.append(SweepRecord(1, 0.5, 1e-3, False, ranks=[1, 4, 1]))
        log.records.append(SweepRecord(2, 1.0, 1e-6, True, ranks=[1, 6, 1]))
        path = tmp_path / "log.csv"
        write_log(log, path)
        assert [row[3] for row in read_csv(path)[1:]] == ["", ""]  # no error given
        write_log(log, path, 2.5e-7)
        rows = read_csv(path)
        assert rows[0] == CSV_HEADER
        assert rows[1][3] == ""  # only the returned iterate's row holds the error
        assert float(rows[2][3]) == 2.5e-7
        assert float(rows[1][1]) <= float(rows[2][1])  # monotone wall time
        assert [row[4] for row in rows[1:]] == ["4", "6"]  # the largest rank


class TestRunExperiment:
    def test_poisson_artifacts(self, tmp_path):
        spec = ExperimentSpec(d=3, n=4, tol=1e-7, out=str(tmp_path / "run"))
        x, log = run_experiment(spec)
        assert log.status == "converged"
        rows = read_csv(tmp_path / "run.csv")
        assert rows[0] == CSV_HEADER
        assert len(rows) == len(log.records) + 1
        walls = [float(r[1]) for r in rows[1:]]
        assert walls == sorted(walls)
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["status"] == "converged"
        assert summary["final_error"] is not None and summary["final_error"] < 1e-6
        sol = tt_io_read(str(tmp_path / "run.tt"))
        assert sol.mode_sizes == (4, 4, 4)

    def test_custom_problem_via_files(self, tmp_path, rng):
        A = ttmat_identity([3, 3])
        y = tt_random([3, 3], 2, rng=rng)
        tt_io_write(A, tmp_path / "A.tt")
        tt_io_write(y, tmp_path / "y.tt")
        spec = ExperimentSpec(
            problem="custom",
            matrix=str(tmp_path / "A.tt"),
            rhs=str(tmp_path / "y.tt"),
            out=str(tmp_path / "run"),
        )
        x, log = run_experiment(spec)
        assert log.status == "converged"

    def test_error_goes_to_the_returned_iterate(self, tmp_path):
        # a shift of 8 does not dominate this rank-2 noise: the run stalls
        # far above its best check, whose iterate it returns
        rng = np.random.default_rng(1234)
        noise = ttmat_random([4] * 4, [4] * 4, 2, rng=rng)
        tt_io_write(tt_add(ttmat_identity([4] * 4), noise, 8.0, 1.0), tmp_path / "A.tt")
        tt_io_write(tt_random([4] * 4, 2, rng=rng), tmp_path / "y.tt")
        spec = ExperimentSpec(
            problem="custom",
            matrix=str(tmp_path / "A.tt"),
            rhs=str(tmp_path / "y.tt"),
            kickrank=2,
            tol=1e-10,
            out=str(tmp_path / "run"),
        )
        x, log = run_experiment(spec)
        assert log.status == "stalled" and log.best is not log.records[-1]
        rows = read_csv(tmp_path / "run.csv")
        assert [row[3] != "" for row in rows[1:]] == [r is log.best for r in log.records]
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["final_residual"] == log.best.rel_residual
        assert summary["final_error"] is not None
        assert [float(row[3]) for row in rows[1:] if row[3]] == [summary["final_error"]]
        assert summary["ranks"] == log.best.ranks

    @pytest.mark.parametrize("above", [False, True])
    def test_dense_reference_above_the_cap_takes_the_tight_one(
        self, tmp_path, monkeypatch, above
    ):
        # the dense A of d = 3, n = 4 has 4096 entries; the cap is to_dense's
        monkeypatch.setattr(ttamen.tt, "DEFAULT_DENSE_CAP", 4096 - above)
        tight_calls, tight = [], ttamen.cli._tight_reference_error

        def counted(*args):
            tight_calls.append(args)
            return tight(*args)

        monkeypatch.setattr(ttamen.cli, "_tight_reference_error", counted)
        spec = ExperimentSpec(d=3, n=4, tol=1e-7, out=str(tmp_path / "run"))
        run_experiment(spec)
        err = json.loads((tmp_path / "run.json").read_text())["final_error"]
        assert err is not None and err < 1e-6
        assert len(tight_calls) == above

    def test_custom_rejects_swapped_files(self, tmp_path, rng):
        y = tt_random([3, 3], 2, rng=rng)
        tt_io_write(y, tmp_path / "y.tt")
        spec = ExperimentSpec(
            problem="custom",
            matrix=str(tmp_path / "y.tt"),
            rhs=str(tmp_path / "y.tt"),
            out=str(tmp_path / "run"),
        )
        with pytest.raises(SpecError):
            run_experiment(spec)

    def test_cme_problem_builds_in_qtt(self):
        A, y = build_problem(ExperimentSpec(problem="cme", d=2, n=8))
        assert A.row_sizes == (2,) * 6

    def test_cme_time_problem_shape(self):
        A, b = build_problem(
            ExperimentSpec(problem="cme_time", d=2, n=4, n_steps=8)
        )
        # 2 species of 4 states -> 2 qtt bits each, plus 3 time bits
        assert A.row_sizes == (2,) * 7
        assert b.mode_sizes == (2,) * 7

    def test_cme_time_on_a_non_binary_space_stays_unquantized(self, tmp_path):
        # 3 states cannot be quantized, so the time axis stays one mode too
        fields = {"problem": "cme_time", "d": 2, "n": 3, "n_steps": 8}
        A, b = build_problem(ExperimentSpec(**fields))
        assert A.row_sizes == A.col_sizes == (3, 3, 8)
        assert b.mode_sizes == (3, 3, 8)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(fields))
        assert main(["solve", "--spec", str(spec), "--out", str(tmp_path / "run")]) == EXIT_OK


class TestMain:
    def test_converged_run_exit_zero(self, tmp_path):
        code = main(
            [
                "solve", "--problem", "poisson", "--d", "3", "--n", "4",
                "--tol", "1e-7", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_OK

    def test_solver_notes_reach_the_json(self, tmp_path):
        # ALS enrichment redraws its residual approximant on a zero rhs
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=4))
        tt_io_write(A, tmp_path / "A.tt")
        tt_io_write(TTVector([np.zeros_like(c) for c in y.cores]), tmp_path / "y.tt")
        code = main(
            [
                "solve", "--problem", "custom", "--matrix", str(tmp_path / "A.tt"),
                "--rhs", str(tmp_path / "y.tt"), "--solver", "amen_als",
                "--kickrank", "2", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["notes"] == [
            f"residual approximant core {k} degenerated; reinitialized" for k in (1, 2, 3)
        ]

    def test_not_converged_exit_two(self, tmp_path):
        code = main(
            [
                "solve", "--problem", "poisson", "--d", "3", "--n", "4",
                "--tol", "1e-9", "--max-sweeps", "1", "--max-rank", "1",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_NOT_CONVERGED

    def test_als_route_runs_amen_without_enrichment(self, tmp_path):
        # the run stalls, so its bytes and ranks tell the route, not its exit
        args = ["--problem", "poisson", "--d", "3", "--n", "4", "--solver", "als"]
        main(["solve", *args, "--out", str(tmp_path / "run")])
        spec = ExperimentSpec()
        config = SolverConfig(
            tol=spec.tol, max_sweeps=spec.max_sweeps, kickrank=spec.kickrank,
            max_rank=spec.max_rank, seed=spec.seed, enrichment="none",
        )
        A, y = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        x, _ = amen_solve(A, y, config=config)
        tt_io_write(x, tmp_path / "ref.tt")
        assert (tmp_path / "run.tt").read_bytes() == (tmp_path / "ref.tt").read_bytes()
        assert tt_io_read(tmp_path / "run.tt").ranks == (1, 1, 1, 1)

    def test_invalid_arguments_exit_three(self, tmp_path, capsys):
        assert main(["solve", "--solver", "bogus"]) == EXIT_INVALID
        assert main(["solve", "--d", "0", "--out", str(tmp_path / "x")]) == EXIT_INVALID
        capsys.readouterr()

    def test_numerical_failure_exit_five(self, tmp_path, monkeypatch, capsys):
        # LinAlgError is a ValueError, but it is not invalid input
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(ttamen.amen._BACK_ENDS, "svd", failing_svd)
        code = main(
            [
                "solve", "--problem", "poisson", "--d", "3", "--n", "4",
                "--solver", "amen_svd", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert main(["solve", "--solver", "bogus"]) == EXIT_INVALID

    def test_residual_sweep_failure_exit_five(self, tmp_path, monkeypatch, capsys):
        # the QR sweep that checks the residual and builds the svd tail factors
        def failing_qr(*args, **kwargs):
            raise np.linalg.LinAlgError("QR did not converge")

        real_sweep = ttamen.amen._residual_sweep

        def residual_sweep(A, y, x):
            monkeypatch.setattr(ttamen.amen, "_qr", failing_qr)
            return real_sweep(A, y, x)

        monkeypatch.setattr(ttamen.amen, "_residual_sweep", residual_sweep)
        code = main(
            [
                "solve", "--problem", "poisson", "--d", "3", "--n", "4",
                "--solver", "amen_svd", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_missing_input_file_exit_four(self, tmp_path, capsys):
        code = main(
            [
                "solve", "--problem", "custom",
                "--matrix", str(tmp_path / "missing.tt"),
                "--rhs", str(tmp_path / "missing.tt"),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_IO
        capsys.readouterr()

    def test_float_size_in_manifest_exit_three(self, tmp_path, capsys):
        A, y = build_poisson(PoissonSpec(dimension=2, grid_points=3))
        tt_io_write(A, tmp_path / "A.tt")
        tt_io_write(y, tmp_path / "y.tt")
        header, _, blob = (tmp_path / "y.tt").read_bytes().partition(b"\n")
        manifest = json.loads(header)
        manifest["mode_sizes"] = [3.0, 3]
        (tmp_path / "y.tt").write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        code = main(
            [
                "solve", "--problem", "custom", "--matrix", str(tmp_path / "A.tt"),
                "--rhs", str(tmp_path / "y.tt"), "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_INVALID
        assert "mode_sizes must be" in capsys.readouterr().err

    def test_manifest_not_an_object_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.tt"
        fields = ["type", "mode_sizes", "ranks", "dtype", "core_order"]
        bad.write_bytes(json.dumps(fields).encode() + b"\n")
        code = main(
            [
                "solve", "--problem", "custom", "--matrix", str(bad),
                "--rhs", str(bad), "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_INVALID
        assert "manifest must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("rhs_sizes", [[4, 4], [4, 4, 5]], ids=["two_cores", "mode_of_5"])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_mismatched_rhs_exit_three(self, tmp_path, capsys, solver, rhs_sizes):
        # refused before any sweep, whatever the solver
        A, _ = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        tt_io_write(A, tmp_path / "A.tt")
        tt_io_write(tt_random(rhs_sizes, 2, rng=np.random.default_rng(0)), tmp_path / "y.tt")
        code = main(
            [
                "solve", "--problem", "custom", "--matrix", str(tmp_path / "A.tt"),
                "--rhs", str(tmp_path / "y.tt"), "--solver", solver,
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_INVALID
        assert "operator / vector sizes are inconsistent" in capsys.readouterr().err

    @pytest.mark.parametrize("which, value", [("matrix", np.nan), ("rhs", np.inf)])
    def test_non_finite_custom_input_exit_three(self, tmp_path, capsys, which, value):
        # invalid input, not a numerical failure inside the run
        A, y = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        trains = {"matrix": A, "rhs": y}
        trains[which].cores[1] = trains[which].cores[1].copy()
        trains[which].cores[1].flat[0] = value
        for name, train in trains.items():
            tt_io_write(train, tmp_path / f"{name}.tt")
        code = main(
            [
                "solve", "--problem", "custom", "--matrix", str(tmp_path / "matrix.tt"),
                "--rhs", str(tmp_path / "rhs.tt"), "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_INVALID
        assert f"{tmp_path / f'{which}.tt'} holds a non-finite entry" in capsys.readouterr().err

    def test_unwritable_output_exit_four(self, tmp_path, capsys):
        code = main(
            [
                "solve", "--problem", "poisson", "--d", "2", "--n", "3",
                "--out", str(tmp_path / "no_such_dir" / "run"),
            ]
        )
        assert code == EXIT_IO
        capsys.readouterr()

    @pytest.mark.parametrize(
        "problem, field, value",
        [
            ("poisson", "kickrank", 2.5),
            ("poisson", "max_sweeps", 2.5),
            ("poisson", "max_rank", 1.5),
            ("poisson", "d", 2.5),
            ("poisson", "n", 4.0),
            ("poisson", "seed", 1.5),
            ("poisson", "max_sweeps", True),
            ("poisson", "kickrank", "2"),
            ("cme_time", "n_steps", 2.5),
        ],
    )
    def test_spec_file_with_non_integer_count_exit_three(
        self, tmp_path, capsys, problem, field, value
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({field: value}))
        code = main(
            [
                "solve", "--spec", str(spec), "--problem", problem, "--d", "3",
                "--n", "4", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_INVALID
        assert f"{field}={value!r} (must be an int)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem, fields, complaints",
        [
            # n alone decides quantization: an input naming qtt fails rather
            # than run a route it did not ask for
            ("poisson", {"qtt": True}, ["unknown spec fields: qtt"]),
            ("cme_time", {"qtt": False}, ["unknown spec fields: qtt"]),
            ("poisson", {"tol": "1e-5"}, ["tol='1e-5' (must be a real number)"]),
            ("poisson", {"tol": True}, ["tol=True (must be a real number)"]),
            ("cme_time", {"t_final": "1"}, ["t_final='1' (must be a real number)"]),
            ("poisson", {"solver": ["amen_svd"]}, ["solver=['amen_svd'] (must be a string)"]),
            ("poisson", {"out": 5}, ["out=5 (must be a string)"]),
            # Crank-Nicolson is the one time scheme
            ("cme_time", {"scheme": "crank_nicolson"}, ["unknown spec fields: scheme"]),
            ("poisson", {"reference": None}, ["reference=None (must be a string)"]),
            ("custom", {"matrix": 3, "rhs": "y.tt"}, ["matrix=3 (must be a string)"]),
            (
                "poisson",
                {"tol": "1e-5", "out": 5},
                ["tol='1e-5' (must be a real number)", "out=5 (must be a string)"],
            ),
        ],
    )
    def test_spec_file_with_wrong_type_exit_three(
        self, tmp_path, capsys, problem, fields, complaints
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(fields))
        code = main(
            [
                "solve", "--spec", str(spec), "--problem", problem, "--d", "3",
                "--n", "4", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_INVALID
        (line,) = capsys.readouterr().err.splitlines()  # one message names them all
        assert all(complaint in line for complaint in complaints)
        assert not list(tmp_path.glob("run*"))

    def test_spec_file_with_unknown_field(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"problem": "poisson", "stepsize": 2}))
        assert main(["solve", "--spec", str(spec)]) == EXIT_INVALID
        capsys.readouterr()

    @pytest.mark.parametrize(
        "entries",
        [[], [{"problem": "poisson", "d": 2, "n": 4}, {"problem": "poisson", "d": 3, "n": 4}]],
        ids=["empty", "two_entries"],
    )
    def test_spec_file_holding_a_list_exit_three(self, tmp_path, capsys, entries):
        # a run takes one spec; an empty list must not pass having run nothing
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(entries))
        assert main(["solve", "--spec", str(spec), "--out", str(tmp_path / "run")]) == EXIT_INVALID
        assert "a spec file holds one JSON object" in capsys.readouterr().err
        assert not list(tmp_path.glob("run*"))

    def test_diag_subcommand(self, tmp_path):
        out = tmp_path / "diag.json"
        code = main(
            ["diag", "--check", "kantorovich", "--trials", "20", "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"] is True

    def test_diag_fom(self, tmp_path):
        out = tmp_path / "fom.json"
        code = main(["diag", "--check", "fom", "--trials", "50", "--out", str(out)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("trials", [0, -3])
    @pytest.mark.parametrize("check", ["kantorovich", "rate", "fom"])
    def test_diag_without_trials_exit_three(self, capsys, check, trials):
        # a check of no trials has checked nothing, so it cannot pass
        assert main(["diag", "--check", check, "--trials", str(trials)]) == EXIT_INVALID
        assert f"trials={trials} (must be >= 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["kantorovich", "rate", "fom"])
    def test_diag_with_a_negative_seed_exit_three(self, capsys, check):
        assert main(["diag", "--check", check, "--seed", "-1"]) == EXIT_INVALID
        assert "seed=-1 (must be >= 0)" in capsys.readouterr().err


class TestParser:
    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Command line:\n\n```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("ttamen ")]
        assert len(lines) == 4
        for line in lines:
            make_parser().parse_args(shlex.split(line)[1:])

    def test_solve_without_flags_is_the_default_spec(self):
        assert _spec_from_args(make_parser().parse_args(["solve"])) == ExperimentSpec()

    def test_removed_solver_lists_the_table(self, capsys):
        assert main(["solve", "--solver", "amen_sym"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert all(name in err for name in SOLVERS)

    def test_normal_equations_option_is_refused(self, tmp_path, capsys):
        # an old input must fail, not silently run the system it was given
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"symmetrize": False}))
        args = [
            "solve", "--problem", "poisson", "--d", "2", "--n", "4",
            "--out", str(tmp_path / "run"),
        ]
        for extra in (["--symmetrize"], ["--spec", str(spec)]):
            assert main(args + extra) == EXIT_INVALID
            assert "symmetrize" in capsys.readouterr().err
        assert not list(tmp_path.glob("run*"))

    def test_tight_reference_is_refused(self, tmp_path, capsys):
        # below the dense cap the dense reference is exact; above it, it
        # already takes the tighter solve
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"reference": "tight"}))
        args = [
            "solve", "--problem", "poisson", "--d", "2", "--n", "4",
            "--out", str(tmp_path / "run"),
        ]
        for extra in (["--reference", "tight"], ["--spec", str(spec)]):
            assert main(args + extra) == EXIT_INVALID
            assert "'tight'" in capsys.readouterr().err
        assert not list(tmp_path.glob("run*"))


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tmp_path):
        args = [
            "solve", "--problem", "poisson", "--d", "3", "--n", "4",
            "--tol", "1e-7", "--seed", "11",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        ra = read_csv(tmp_path / "a.csv")
        rb = read_csv(tmp_path / "b.csv")
        assert len(ra) == len(rb)
        for rowa, rowb in zip(ra[1:], rb[1:]):
            # numeric columns except wall time must match to full precision
            assert rowa[0] == rowb[0]
            assert abs(float(rowa[2]) - float(rowb[2])) <= 1e-12 * max(
                float(rowa[2]), 1e-30
            )
            assert rowa[4] == rowb[4] and rowa[5] == rowb[5]

    def test_solution_files_byte_identical(self, tmp_path):
        args = [
            "solve", "--problem", "poisson", "--d", "3", "--n", "4",
            "--tol", "1e-7", "--seed", "11",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a.tt").read_bytes() == (tmp_path / "b.tt").read_bytes()
