"""Command-line surface: parsing, CSV contract, exit codes, determinism."""

import ast
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfnorm

from selfnorm import mc
from selfnorm.cli import (COMMANDS, CSV_COLUMNS, ConfigError, RunConfig,
                          _curves, _gls_family, _make_parser, build_config,
                          main, run)
from selfnorm.distributions import DistributionModel, Rademacher, parse_distribution

UNIFORM = "uniform:a=1.7320508075688772"  # unit variance: a = sqrt(3)


def make_config(command="bound-exp", distribution="rademacher", family="",
                **over):
    base = dict(
        command=command, distribution=parse_distribution(distribution),
        n_grid=[1, 4], B_grid=[0.5, 1.0, 2.0], n_sup_range=None, trials=2000,
        seed=1, kr_constant=0.6379, confidence=0.999, output_path=None,
        family=_gls_family(family))
    base.update(over)
    return RunConfig(**base)


def spy_on_simulation(monkeypatch) -> list:
    """Record the sample size of every simulation pass."""
    calls, simulate = [], mc.empirical_tail

    def spy(dist, cfg, B_grid):
        calls.append(cfg.n)
        return simulate(dist, cfg, B_grid)

    monkeypatch.setattr(mc, "empirical_tail", spy)
    return calls


def modules_after(runs: list[list[str]], prelude: str = "") -> set[str]:
    """The modules loaded in a fresh interpreter on this package's sources
    once it has imported the CLI, run ``prelude`` and passed each argv of
    ``runs`` to ``main`` (each must exit with status 0)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(selfnorm.__file__)))
    code = ("import contextlib, io, sys\n"
            "from selfnorm.cli import main\n"
            "from selfnorm.distributions import parse_distribution\n"
            f"{prelude}\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            main(argv)\n"
            "        except SystemExit as exc:\n"
            "            assert exc.code == 0, (argv, exc.code)\n"
            "print(sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    return set(ast.literal_eval(out.stdout))


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == list(CSV_COLUMNS)
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config("bound-exp", {"dist": "gaussian"})
        assert cfg.n_grid == [1, 4, 16, 64]
        assert math.e in cfg.B_grid
        assert cfg.trials == 100000
        assert cfg.kr_constant == 0.6379

    def test_missing_dist_rejected(self):
        with pytest.raises(ConfigError, match="dist"):
            build_config("bound-exp", {})

    def test_grid_parsing(self):
        cfg = build_config("mc", {"dist": "gaussian", "n": "8,2,8", "B": "5,1,e,1"})
        assert cfg.n_grid == [2, 8]
        assert cfg.B_grid == [1.0, math.e, 5.0]

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            build_config("mc", {"dist": "gaussian", "n": "0,4"})
        with pytest.raises(ConfigError):
            build_config("mc", {"dist": "gaussian", "B": "1,zap"})

    def test_n_sup_range(self):
        cfg = build_config("verify", {"dist": "gaussian", "n_sup": "1:4096"})
        assert cfg.n_sup_range == (1, 4096)
        with pytest.raises(ConfigError):
            build_config("verify", {"dist": "gaussian", "n_sup": "9:2"})



class TestCommands:
    def test_verify_pass_exit_zero(self, tmp_path):
        out = tmp_path / "v.csv"
        cfg = make_config("verify", trials=20000, output_path=str(out))
        assert run(cfg) == 0
        rows = read_rows(out)
        statuses = {r["status"] for r in rows}
        assert "PASS" in statuses and "FAIL" not in statuses
        assert any(r["family"] == "LowerCLT" and r["status"] == "REPORT"
                   for r in rows)

    def test_power_skip_below_e(self, tmp_path):
        out = tmp_path / "p.csv"
        cfg = make_config("bound-power", distribution="gaussian", n_grid=[16],
                          B_grid=[1.0], output_path=str(out))
        assert run(cfg) == 0
        (row,) = read_rows(out)
        assert row["status"] == "SKIP"
        assert row["value"] == ""

    def test_bound_exp_rows(self, tmp_path):
        out = tmp_path / "e.csv"
        cfg = make_config("bound-exp", n_sup_range=(1, 64), output_path=str(out))
        assert run(cfg) == 0
        rows = read_rows(out)
        sup_rows = [r for r in rows if r["n"] == "sup(1..64)"]
        assert len(sup_rows) == 3
        assert all(r["n_star"] for r in sup_rows)

    def test_bound_lower_rows(self, tmp_path):
        out = tmp_path / "l.csv"
        cfg = make_config("bound-lower", distribution="gaussian",
                          output_path=str(out))
        assert run(cfg) == 0
        rows = read_rows(out)
        assert {r["family"] for r in rows} == {"LowerQ1", "LowerCLT"}

    def test_mc_rows(self, tmp_path):
        out = tmp_path / "m.csv"
        cfg = make_config("mc", n_grid=[2], trials=5000, output_path=str(out))
        assert run(cfg) == 0
        rows = read_rows(out)
        assert all(r["family"] == "MC" and r["mc_point"] != "" for r in rows)

    def test_mc_prints_the_referee_estimate(self, capsys, monkeypatch):
        calls = spy_on_simulation(monkeypatch)

        def out(command, dist="rademacher", *extra):
            with pytest.raises(SystemExit) as exc:
                main([command, "--dist", dist, "--n", "4", "--B", "0.5,1", *extra])
            assert exc.value.code == 0
            return capsys.readouterr().out

        def cells(text):
            return {tuple(r[c] for c in ("B", "mc_point", "mc_ci_lo", "mc_ci_hi"))
                    for r in csv.DictReader(io.StringIO(text))
                    if r["family"] in ("MC", "ExpLevel") and r["n"] == "4"}

        # an enumerable atomic law: the exact tail, whatever the seed or
        # trial count, and the cells verify checks against
        text = out("mc")
        assert out("mc", "rademacher", "--seed", "5", "--trials", "17") == text
        assert len(cells(text)) == 2
        assert cells(text) == cells(out("verify"))
        assert calls == []
        # a density law is simulated, in the same pass for mc and verify
        text = out("mc", "gaussian", "--trials", "1000")
        assert calls == [4]
        assert len(cells(text)) == 2
        assert cells(text) == cells(out("verify", "gaussian", "--trials", "1000"))
        assert calls == [4, 4]

    def test_gls_families(self, tmp_path):
        for family, norm_fam, tail_fam in [
                ("psi:degenerate:r=4", "GlsNorm", "GlsTail"),
                ("psi:power:m=2", "GlsNorm", "GlsTail"),
                ("phi:power:m=2", "BphiNorm", "BphiTail"),
                ("phi:natural", "BphiNorm", "BphiTail")]:
            out = tmp_path / "g.csv"
            cfg = make_config("gls", distribution="rademacher",
                              B_grid=[5.0, 10.0], family=family,
                              output_path=str(out))
            assert run(cfg) == 0
            rows = read_rows(out)
            assert rows[0]["family"] == norm_fam
            assert {r["family"] for r in rows[1:]} == {tail_fam}

    def test_gls_single_point_support_is_the_first_moment(self, capsys):
        # r = 1 leaves the norm's p grid one point: GlsNorm is E|xi|, and
        # the tail is Markov's norm/B at every B, e*norm included
        status = run(make_config("gls", distribution="gaussian",
                                 B_grid=[2.0, 3.0, 10.0],
                                 family="psi:degenerate:r=1"))
        assert status == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (rows[0]["family"], rows[0]["value"]) == ("GlsNorm",
                                                        "0.797884560802865")
        norm = math.sqrt(2.0 / math.pi)
        tails = [float(r["value"]) for r in rows[1:]]
        assert tails == pytest.approx([norm / 2.0, norm / 3.0, norm / 10.0],
                                      rel=1e-14)

    def test_bphi_norm_scales_with_sigma(self, capsys):
        # the norm of xi/sigma against lam^2/2, times sigma: the same
        # ratio for every half width, the widest included, and never
        # below the supremum 1, the ratio's limit as lambda -> 0
        ratios = []
        for a in (0.01, math.sqrt(3.0), 50.0, 100.0):
            spec = f"uniform:a={a!r}"
            with pytest.raises(SystemExit) as exc:
                main(["gls", "--dist", spec, "--family", "phi:power:m=2",
                      "--B", "3"])
            assert exc.value.code == 0
            rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert rows[0]["family"] == "BphiNorm"
            sigma = math.sqrt(parse_distribution(spec).sigma2)
            ratios.append(float(rows[0]["value"]) / sigma)
        assert ratios == pytest.approx([ratios[0]] * 4, rel=1e-9)
        assert all(1.0 <= r <= 1.0 + 1e-6 for r in ratios)

    def test_natural_family_reads_its_norm(self, monkeypatch, capsys):
        # the norm is 1 by construction, so only the tails call the
        # log-MGF; a lambda scan of this law makes 51,750 calls
        calls = []
        log_mgf2 = DistributionModel.log_mgf2

        def counted(self, l1, l2):
            calls.append(l1)
            return log_mgf2(self, l1, l2)

        monkeypatch.setattr(DistributionModel, "log_mgf2", counted)
        with pytest.raises(SystemExit) as exc:
            main(["gls", "--family", "phi:natural",
                  "--dist", "discrete:-1:0.6666666666666666,2:0.3333333333333334"])
        assert exc.value.code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (rows[0]["family"], rows[0]["value"]) == ("BphiNorm", "1.000000001")
        assert len(calls) <= 2000

    def test_verify_n_sup_unified_table(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = make_config("verify", B_grid=[0.5, 1.0, 3.0], trials=5000,
                          n_sup_range=(1, 16), output_path=str(out))
        assert run(cfg) == 0
        rows = read_rows(out)
        families = {r["family"] for r in rows}
        assert {"ExpLevel", "PowerLevel", "LowerQ1", "LowerCLT"} <= families
        assert any(r["n"] == "sup(1..16)" for r in rows)
        assert any(r["mc_point"] != "" for r in rows if r["family"] == "ExpLevel")

    def test_bad_distribution_raises_config_error(self):
        with pytest.raises(ConfigError, match="dist"):
            build_config("bound-exp", {"dist": "uniform:a=bogus"})


class TestCsvContract:
    def test_round_trip_15_digits(self, tmp_path):
        out = tmp_path / "rt.csv"
        cfg = make_config("bound-exp", distribution="gaussian",
                          B_grid=[0.5, math.e, 7.3], output_path=str(out))
        run(cfg)
        from selfnorm.bounds import _exp_tail_point
        from selfnorm.distributions import StandardGaussian
        law = StandardGaussian()
        for row in read_rows(out):
            got = float(row["value"])
            exact = _exp_tail_point(law, int(row["n"]), float(row["B"])).value
            assert got == pytest.approx(exact, rel=1e-14)

    def test_infinity_encoding(self, tmp_path):
        out = tmp_path / "inf.csv"
        cfg = make_config("bound-exp", B_grid=[3.0], n_grid=[4],
                          output_path=str(out))
        run(cfg)
        (row,) = read_rows(out)
        assert row["value"] == "0"
        assert row["optimizer"] == "inf"

    @pytest.mark.parametrize("spec, objective", [
        ("gaussian", 754.297358392037), (UNIFORM, 986.065083511733)])
    def test_underflowed_bound_reads_above_zero(self, spec, objective, capsys):
        # exp(-objective) is below the least double: a finite exponent
        # still reads a positive bound, and only an impossible event 0
        with pytest.raises(SystemExit) as exc:
            main(["bound-exp", "--dist", spec, "--n", "1024", "--B", "50"])
        assert exc.value.code == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert float(row["optimizer"]) == pytest.approx(objective, rel=1e-9)
        assert 0.0 < float(row["value"]) <= 1e-320

    def test_readme_columns_block_is_the_header(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("Columns, in order:", 1)[1].split("```")[1]
        assert block.strip() == ",".join(CSV_COLUMNS)

    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        # a density law is always simulated: 30000 trials are 1 chunk at
        # n = 1 and 2 at n = 16
        calls = spy_on_simulation(monkeypatch)
        cfg_a = make_config("verify", distribution=UNIFORM, trials=30000,
                            n_grid=[1, 16], output_path=str(tmp_path / "a.csv"))
        cfg_b = make_config("verify", distribution=UNIFORM, trials=30000,
                            n_grid=[1, 16], output_path=str(tmp_path / "b.csv"))
        monkeypatch.setenv("SELFNORM_THREADS", "1")
        run(cfg_a)
        monkeypatch.setenv("SELFNORM_THREADS", "5")
        run(cfg_b)
        assert calls == [1, 16, 1, 16]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


    @pytest.mark.parametrize("source", ["discrete", "empirical"])
    def test_dist_holding_a_comma_is_one_field(self, source, tmp_path, capsys):
        if source == "discrete":
            spec = "discrete:-1:0.6666666666666666,2:0.3333333333333334"
        else:
            sample = tmp_path / "draws,300.txt"
            sample.write_text("-1\n0.5\n2\n")
            spec = f"empirical:{sample}"
        with pytest.raises(SystemExit) as exc:
            main(["bound-exp", "--dist", spec, "--n", "1,4", "--n-sup", "1:8",
                  "--B", "2"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(len(r) == len(CSV_COLUMNS) for r in csv.reader(io.StringIO(out)))
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["dist"], r["n"], r["B"], r["family"]) for r in rows] == [
            (spec, n, "2", "ExpLevel") for n in ("1", "4", "sup(1..8)")]

    def test_other_fields_unquoted(self, capsys):
        with pytest.raises(SystemExit):
            main(["bound-exp", "--dist", UNIFORM, "--n", "4", "--B", "2"])
        assert '"' not in capsys.readouterr().out


class TestSharedCurvePath:
    """bound-exp, bound-power and verify print the curves of one builder."""

    ARGS = ["--dist", "rademacher", "--n", "1,4", "--n-sup", "1:4",
            "--B", "0.5,1,2,e,3,10", "--trials", "2000"]
    LABELS = ("1", "4", "sup(1..4)")
    BOUND_COLS = ("value", "optimizer", "theta_or_p_star", "n_star")

    def rows(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.ARGS])
        assert exc.value.code == 0
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_verify_rows_match_bound_commands(self, capsys):
        def keyed(rows):
            return {(r["n"], r["B"], r["family"]):
                    tuple(r[c] for c in self.BOUND_COLS)
                    for r in rows if r["family"] in ("ExpLevel", "PowerLevel")}

        bound = keyed(self.rows(capsys, "bound-exp")
                      + self.rows(capsys, "bound-power"))
        verify = keyed(self.rows(capsys, "verify"))
        assert {k[0] for k in bound} == set(self.LABELS)
        assert verify == bound

    @pytest.mark.parametrize("command", ["bound-power", "verify"])
    def test_one_skip_row_per_small_B_on_every_power_curve(self, command,
                                                           capsys):
        skips = [(r["n"], r["B"]) for r in self.rows(capsys, command)
                 if r["family"] == "PowerLevel" and r["status"] == "SKIP"]
        assert sorted(skips) == sorted(
            (label, B) for label in self.LABELS for B in ("0.5", "1", "2"))

    def test_every_emitted_family_has_a_side(self):
        # the referee reads each curve's side, so a family the commands
        # print but no side names would stop verify
        sides = {}
        for command in ("bound-exp", "bound-power", "bound-lower", "verify"):
            cfg = make_config(command, n_grid=[1], n_sup_range=(1, 4),
                              B_grid=[0.5, 3.0])
            sides.update((c.family, c.side)
                         for c in _curves(cfg, cfg.distribution))
        assert sides == {"ExpLevel": "upper", "PowerLevel": "upper",
                         "LowerQ1": "lower", "LowerCLT": "report"}


class TestMain:
    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound-exp", "--dist", "uniform:a=bogus"])
        assert exc.value.code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_overflowing_quadratic_moments_print_nothing(self, capsys):
        # atoms of +-1e100 at B = 1e-120 print value 1, with no
        # RuntimeWarning (an error under the test policy)
        with pytest.raises(SystemExit) as exc:
            main(["bound-exp", "--dist", "discrete:-1e100:0.3,1e100:0.3,0:0.4",
                  "--n", "4", "--B", "1e-120"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1].endswith(",4,1e-120,ExpLevel,1,0,0,,,,,")

    def test_verify_through_main(self, tmp_path, capsys):
        out = tmp_path / "ok.csv"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dist", "rademacher", "--n", "1,4",
                  "--B", "0.5,1", "--trials", "5000", "--seed", "7",
                  "--output", str(out)])
        assert exc.value.code == 0
        assert out.exists()
        assert capsys.readouterr().err == ""

    def test_verify_fail_names_its_cell_on_stderr(self, capsys):
        # kr = 0.01 makes the PowerLevel cell at n = 16, B = 3 fall below
        # the exact tail of the sign law; the CSV is unchanged by the line
        argv = ["verify", "--dist", "rademacher", "--n", "1,4,16", "--B", "3,5"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--kr", "0.01"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("selfnorm: FAIL PowerLevel n=16 B=3: bound ")
        assert "exact tail at n=16 in [" in line and "margin -" in line
        (fail,) = [r for r in csv.DictReader(io.StringIO(captured.out))
                   if r["status"] == "FAIL"]
        assert (fail["family"], fail["n"], fail["B"]) == ("PowerLevel", "16", "3")

    @pytest.mark.parametrize("flag, value, key", [
        ("--confidence", "2", "confidence"),
        ("--kr", "-1", "kr"),
    ])
    def test_bad_numeric_flag_exit_two(self, flag, value, key, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound-power", "--dist", "rademacher", "--n", "4",
                  "--B", "3", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"selfnorm: configuration error: {key}:")

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_thread_count_exit_two(self, value, capsys, monkeypatch):
        import selfnorm.mc as mcmod

        def no_simulation(*args):
            raise AssertionError("simulation started")

        monkeypatch.setattr(mcmod, "empirical_tail", no_simulation)
        monkeypatch.setenv("SELFNORM_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dist", "rademacher", "--n", "4", "--B", "1",
                  "--trials", "100"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("selfnorm: configuration error: env:")
        assert "SELFNORM_THREADS" in line

    def test_sup_range_outside_grid_refereed_at_its_lo(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dist", "rademacher", "--n", "1,4",
                  "--n-sup", "16:64", "--B", "0.5", "--trials", "100"])
        assert exc.value.code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        (est,) = mc._exact_tail(Rademacher(), 16, [0.5])
        sup_rows = [r for r in rows if r["n"] == "sup(16..64)"]
        assert [r["family"] for r in sup_rows] == ["ExpLevel", "PowerLevel"]
        (row, _) = sup_rows
        assert row["status"] == "PASS"
        assert [row[c] for c in ("mc_point", "mc_ci_lo", "mc_ci_hi")] == \
            [f"{v:.15g}" for v in (est.point, est.ci_lo, est.ci_hi)]

    @pytest.mark.parametrize("argv", [
        ["bound-exp", "--n", "1,4"],
        ["bound-power", "--n", "4"],
        ["verify", "--n", "1,4", "--n-sup", "1:4", "--trials", "3000"],
    ])
    def test_repeated_B_prints_each_row_once(self, argv, capsys):
        outputs = []
        for B in ("3,0.5,e,1,0.5,3,3", "0.5,1,e,3"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--dist", "rademacher", "--B", B])
            assert exc.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_import_leaves_scipy_stats_unloaded(self):
        assert "scipy.stats" not in modules_after([])

    def test_atomic_law_leaves_quadrature_unloaded(self):
        loaded = modules_after([], "parse_distribution('rademacher')")
        assert loaded & {"scipy.integrate", "scipy.optimize"} == set()

    def test_builtin_laws_leave_scipy_unloaded(self):
        # building, bounding and verifying a built-in law loads no SciPy
        # module at all, scipy.special included; the atomic laws' exact sums
        # run without it
        runs = [["verify", "--dist", "rademacher", "--n", "1,4,16"],
                ["bound-power", "--n", "16", "--dist",
                 "discrete:-1:0.6666666666666666,2:0.3333333333333334"]]
        for spec in ("rademacher", "gaussian", "uniform:a=2"):
            runs += [["bound-exp", "--n", "16", "--n-sup", "1:64", "--dist", spec],
                     ["bound-power", "--n", "16", "--dist", spec]]
        loaded = modules_after(runs, "for spec in ('rademacher', 'gaussian', "
                                     "'uniform:a=2'):\n"
                                     "    parse_distribution(spec)")
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_density_law_bounds_leave_quadrature_unloaded(self):
        # density-law moments come from the package's own Gauss-Legendre
        # rule: bounding a density law loads no SciPy quadrature or optimizer
        loaded = modules_after([[cmd, "--dist", "gaussian"]
                                for cmd in ("bound-exp", "bound-power")])
        assert loaded & {"scipy.integrate", "scipy.optimize"} == set()

    @pytest.mark.parametrize("runs, expected", [
        ([], set()),
        ([["bound-exp", "--dist", "gaussian", "--n", "16", "--n-sup", "1:64"],
          ["bound-power", "--dist", "uniform:a=2", "--n", "16"],
          ["bound-lower", "--dist", "rademacher"],
          ["gls", "--dist", "gaussian", "--family", "psi:power:m=2"]], set()),
        # an exact verdict on signs simulates nothing: no thread pool
        ([["verify", "--dist", "rademacher", "--n", "1,4,16"]], {"selfnorm.mc"}),
        ([["verify", "--dist", "uniform:a=2", "--n", "1,4", "--trials", "2000"]],
         {"selfnorm.mc", "concurrent.futures", "logging", "queue"}),
    ], ids=["import", "bounds", "exact-verify", "simulating-verify"])
    def test_referee_and_thread_pool_load_on_first_use(self, runs, expected):
        # the referee module and the pool's concurrent.futures (with its
        # logging and queue) are imported only by a command that uses them
        watched = {"selfnorm.mc", "concurrent.futures", "logging", "queue"}
        assert modules_after(runs) & watched == expected

    def test_generator_overflow_is_silent(self):
        # psi(p) = p^(1e300) overflows at every p > 1: a barrier of the
        # search, with no warning on stderr
        src = os.path.dirname(os.path.dirname(os.path.abspath(selfnorm.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "selfnorm.cli", "gls", "--dist", "gaussian",
             "--family", "psi:power:m=1e-300", "--B", "5"],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert out.stderr == ""
        # the norm is E|xi| = sqrt(2/pi) = 0.79788456080286536
        assert out.stdout.splitlines()[1:] == [
            f"gaussian,,,GlsNorm,{math.sqrt(2.0 / math.pi):.15g},,,,,,,",
            "gaussian,,5,GlsTail,0.159576912160573,,,,,,,"]

    @pytest.mark.parametrize("spec", ["discrete:-1e200:0.5,1e200:0.5",
                                      "empirical"])
    def test_overflowing_atoms_one_line(self, spec, tmp_path):
        # the atoms' squares overflow: one line, and no NumPy warning
        if spec == "empirical":
            path = tmp_path / "huge.txt"
            path.write_text("1e308\n-1e308\n")
            spec = f"empirical:{path}"
        src = os.path.dirname(os.path.dirname(os.path.abspath(selfnorm.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "selfnorm.cli", "bound-exp", "--dist", spec],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert line.startswith("selfnorm: configuration error: dist: variance "
                               "must be finite")

    @pytest.mark.parametrize("argv", [
        ["bound-exp", "--dist", "rademacher", "--B", "-1"],
        ["bound-lower", "--dist", "gaussian", "--B", "0"],
        ["bound-exp", "--dist", "gaussian", "--B", "1,nan"],
        ["bound-power", "--dist", "gaussian", "--n", "4", "--B", "inf"],
    ])
    def test_bad_threshold_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("selfnorm: configuration error: B:")

    @pytest.mark.parametrize("argv", [
        ["bound-power", "--dist", "gaussian", "--n", "4", "--B", "1e300"],
        ["gls", "--dist", "gaussian", "--family", "psi:power:m=1e-300",
         "--B", "5"],
    ])
    def test_divergent_moments_give_a_table(self, argv, capsys):
        # every summand moment (or generator value) past p = 1 overflows:
        # each such p is a barrier of the tail search, not an error
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(0.0 <= float(r["value"]) <= 1.0 for r in rows
                            if r["family"] in ("PowerLevel", "GlsTail"))

    def test_unwritable_output_rejected_before_any_work(self, tmp_path,
                                                        capsys, monkeypatch):
        import selfnorm.bounds as bdmod
        import selfnorm.mc as mcmod

        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(mcmod, "empirical_tail", no_work)
        monkeypatch.setattr(bdmod, "_exp_tail_point", no_work)
        # a missing folder and a directory
        cases = [(["--output", str(tmp_path / "missing" / "x.csv")], "output"),
                 (["--output", str(tmp_path)], "output")]
        for extra, key in cases:
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--dist", "rademacher", "--n", "1,4", "--B", "1",
                      *extra])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"selfnorm: configuration error: {key}:")

    def test_chunk_size_removed(self, capsys):
        # simulation chunks are sized from n: the flag does not exist
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--dist", "gaussian", "--chunk-size", "8192"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chunk-size" in captured.err

    def test_config_removed(self, tmp_path, capsys):
        # options come from flags only: no file is read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist=gaussian\n")
        with pytest.raises(SystemExit) as exc:
            main(["bound-exp", "--dist", "gaussian", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--config" in captured.err

    @pytest.mark.parametrize("value", ["csv", "pretty"])
    def test_format_removed(self, value, capsys):
        # output is CSV only: no flag selects another format
        with pytest.raises(SystemExit) as exc:
            main(["bound-lower", "--dist", "gaussian", "--format", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format" in captured.err

    def test_sweep_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dist", "rademacher"])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_run_rejects_a_command_outside_the_list(self):
        with pytest.raises(ConfigError) as exc:
            run(make_config("bound-bogus"))
        assert exc.value.key == "command"

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_seed_exit_two(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--dist", "gaussian", "--n", "4", "--B", "1",
                  "--trials", "100", "--seed", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("selfnorm: configuration error: seed:")

    @pytest.mark.parametrize("family", [
        "psi:power:m=-1",
        "psi:degenerate:r=0.5",
        "psi:power:m=4",
        "phi:power:m=1",
        "psi:degenerate:r=inf",
        "psi:power:m=nan",
        "phi:power:m=3",
    ])
    def test_bad_gls_family_exit_two(self, family, capsys):
        # bad parameters and families whose norm is unbounded on the law
        with pytest.raises(SystemExit) as exc:
            main(["gls", "--dist", "gaussian", "--B", "3", "--family", family])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("selfnorm: configuration error: family:")

    @pytest.mark.parametrize("argv, message", [
        (["gls", "--dist", "gaussian"],
         "family: the gls command needs --family"),
        (["bound-exp", "--dist", "gaussian", "--n-sup", "5"],
         "n-sup: expected lo:hi, got '5'"),
        (["gls", "--dist", "gaussian", "--family", "psi:power:r=2"],
         "family: expected 'm=<real>' in 'psi:power:r=2'"),
        (["bound-exp", "--dist", "gaussian", "--B", ","], "B: grid is empty"),
        (["bound-exp", "--dist", "gaussian", "--n", "1,x"],
         "n: cannot parse 'x' as int"),
        (["bound-exp", "--dist", "gaussian", "--kr", "0"],
         "kr: must be positive and finite, got '0'"),
        (["bound-exp", "--dist", "discrete:1:0.5:3"],
         "dist: bad atom '1:0.5:3' in 'discrete:1:0.5:3'"),
        (["bound-exp", "--dist", "uniform:a=-1"],
         "dist: half width must be positive and finite, got -1.0"),
        (["bound-exp", "--dist", "discrete:0:1"],
         "dist: discrete law is degenerate at 0"),
        (["gls", "--dist", "gaussian", "--family", "phi:power:m=0"],
         "family: power majorant needs m > 0, got 0.0"),
        (["bound-exp", "--dist", "uniform:a=inf"],
         "dist: half width must be positive and finite, got inf"),
        (["bound-exp", "--dist", "empirical:{tmp}/bad.txt"],
         "dist: sample file '{tmp}/bad.txt', line 4: expected a number, got 'abc'"),
        (["bound-exp", "--dist", "empirical:{tmp}/nan.txt"],
         "dist: sample file '{tmp}/nan.txt', line 3: expected a finite number, "
         "got 'nan'"),
        pytest.param(
            ["bound-lower", "--dist", "gaussian", "--B", "1", "--output", "/dev/full"],
            "output: cannot write '/dev/full': No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="needs /dev/full")),
        (["bound-exp", "--dist", "discrete:-1e-300:0.5,1e-300:0.5"],
         "dist: variance of discrete:-1e-300:0.5,1e-300:0.5 underflows to 0"),
        (["bound-exp", "--dist", "uniform:a=1e-300"],
         "dist: variance of uniform:a=1e-300 underflows to 0"),
    ])
    def test_input_check_one_stderr_line(self, argv, message, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("0.5\n\n-1.25\nabc\n2\n")
        (tmp_path / "nan.txt").write_text("1\n\nnan\n2\n")
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("selfnorm: configuration error: "
                               + message.format(tmp=tmp_path))

    # one bad value per option key, accepted by argparse as a plain string
    BAD_VALUES = {
        "dist": "uniform:a=bogus", "n": "0", "B": "-1", "n-sup": "9:2",
        "trials": "abc", "seed": "abc", "kr": "abc", "confidence": "abc",
        "output": "{tmp}/missing/x.csv", "family": "psi:bogus:r=1",
    }

    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    def test_bad_value_same_line_from_flag_and_file(self, key, tmp_path, capsys):
        value = self.BAD_VALUES[key].format(tmp=tmp_path)
        base = {"dist": "rademacher", "B": "3", "family": "phi:power:m=2"}
        base.pop(key, None)
        argv = ["gls"] + [a for k, v in base.items() for a in (f"--{k}", v)]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--{key}", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"selfnorm: configuration error: {key}:")

    def test_flags_per_command(self, capsys):
        # one parser: the command is a positional choice, each option a flag
        # of every command; --family on a command other than gls is a
        # configuration error
        parser = _make_parser()
        (positional,) = [a for a in parser._actions if not a.option_strings]
        assert positional.dest == "command"
        assert tuple(positional.choices) == COMMANDS
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags == {"-h", "--help", "--dist", "--n", "--B", "--n-sup",
                         "--trials", "--seed", "--kr", "--confidence", "--output",
                         "--family"}
        for command in COMMANDS:
            if command == "gls":
                continue
            with pytest.raises(SystemExit) as exc:
                main([command, "--dist", "rademacher", "--family", "phi:natural"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "selfnorm: configuration error: family: --family is for the "
                f"gls command only, not {command}"]
