import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from oracles import scan_mit_momenta
from rotsphere import cli, mit
from rotsphere.boundary import shell_rows
from rotsphere.cli import (ConfigError, RunConfig, main, parse_config, run,
                           config_from_args, build_parser)


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config("Omega=0.5\nR=1\nbeta=2\nM=1\nbc=spectral\n")
        assert cfg.Omega == 0.5 and cfg.bc == "spectral" and cfg.beta == 2.0

    def test_chiral_mit(self):
        cfg = parse_config("bc=mit\nvarsigma=-1\nM=1\nbeta=1\n")
        assert cfg.boundary.is_mit and cfg.boundary.varsigma == -1

    def test_round_trip(self):
        cfg = parse_config(
            "mode=condensate\nbc=mit\nvarsigma=-1\nM=1.5\nR=2.0\nOmega=0.25\n"
            "beta=0.5\nmu=-0.3\njmax=21/2\nimax=25\nr_grid=0:2:9\n"
            "theta_grid=0.3,1.1\nout=data.csv\nformat=json\npreset=\norder=3\n"
            "count=7\n")
        assert parse_config(cfg.to_text()) == cfg

    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse_config(cfg.to_text()) == cfg

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'omega'"):
            parse_config("omega=0.5\n")
        with pytest.raises(ConfigError, match="unknown key 'threads'"):
            parse_config("threads=2\n")

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="'beta'"):
            parse_config("beta=fast\n")

    def test_faster_than_light(self):
        with pytest.raises(ConfigError, match="faster-than-light"):
            parse_config("Omega=1.2\nR=1\n")

    def test_nonpositive_beta(self):
        with pytest.raises(ConfigError, match="'beta'"):
            parse_config("beta=-2\n")

    def test_jmax_forms(self):
        assert parse_config("jmax=41/2\n").two_j_max == 41
        assert parse_config("jmax=10.5\n").two_j_max == 21
        with pytest.raises(ConfigError, match="'jmax'"):
            parse_config("jmax=3\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nM=2.0  # trailing\n")
        assert cfg.M == 2.0


class TestZerosCommand:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "zeros.csv"
        rc = main(["zeros", "--order", "1", "--count", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "order,i,zero"
        first = float(lines[1].split(",")[2])
        assert first == pytest.approx(4.493409457909064, abs=1e-12)
        assert len(lines) == 4

    def test_json_output(self, tmp_path):
        out = tmp_path / "zeros.json"
        rc = main(["zeros", "--order", "0", "--count", "2", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["zeros"][0] == pytest.approx(math.pi, abs=1e-13)


class TestSpectrumCommand:
    def test_csv_deterministic(self, tmp_path):
        args = ["spectrum", "--bc", "mit", "--varsigma", "1", "--M", "1",
                "--R", "1", "--Omega", "0.4", "--beta", "1", "--jmax", "3/2",
                "--imax", "2"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        text = out1.read_text()
        assert text == out2.read_text()
        assert text.startswith("esign,two_j,two_mj,kappa,i,pR,E,Etilde,C\n")
        # (2+4) m_j slots x 2 kappa x 2 i x 2 esign = 48 modes
        assert len(text.strip().split("\n")) == 1 + 48

    def test_mit_at_largest_imax(self, tmp_path):
        # the root scan asks for more zeros than i_max; they must stay in range
        for vs in ("1", "-1"):
            out = tmp_path / f"m{vs}.csv"
            assert main(["spectrum", "--bc", "mit", "--varsigma", vs, "--M", "1",
                         "--jmax", "1/2", "--imax", "500", "--out", str(out)]) == 0
            # 2 m_j x 2 kappa x 500 i x 2 esign = 4000 modes
            assert len(out.read_text().strip().split("\n")) == 1 + 4000

    def test_mit_minus_at_largest_imax_heavier(self, tmp_path):
        # at M R = 2 the 500th root of varsigma = -1 lies past the 500th zero
        # of its Bessel orders, so the root scan reads further zeros
        out = tmp_path / "m.csv"
        assert main(["spectrum", "--bc", "mit", "--varsigma", "-1", "--M", "2",
                     "--jmax", "1/2", "--imax", "500", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 4000

    def test_subnormal_r_grid(self, capsys):
        # r whose p r is subnormal get the r = 0 value, not nan
        assert main(["condensate", "--M", "1", "--Omega", "0.5", "--r-grid",
                     "0,1e-300,1e-310,5e-324", "--jmax", "3/2", "--imax", "2"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[-4:]
        assert len({row.split(",")[-1] for row in rows}) == 1 and "nan" not in rows[0]

    def test_solver_error_exit_code(self, capsys):
        # at M R = 1.9e13 the E < 0 root of shell (27, 14) lies so close to a
        # zero of j_14 that the MIT norm's |j_14(p R)| rounds to 0, the defect
        # kept as the strict xfail test_domain.py::TestCommandLine::
        # test_mit_spectrum_at_large_mass; once it is mended, take another
        assert main(["spectrum", "--bc", "mit", "--varsigma", "1", "--M", "767.5", "--R",
                     "1.9e13", "--jmax", "29/2", "--imax", "3"]) == 3
        assert capsys.readouterr().err.startswith(
            "solver error: inconsistent momentum/energy pair for MIT norm (two_j=27, kappa=14")
        # at M R = 1e200, (M R)^2 would overflow in the E < 0 momentum
        # equation, so the run exits 2 naming the limit before it scans
        args = ["spectrum", "--bc", "mit", "--varsigma", "1", "--Omega", "0.5",
                "--jmax", "3/2", "--imax", "20"]
        assert main([*args, "--M", "1e200"]) == 2
        assert capsys.readouterr().err == ("error: M*R = 1e+200 exceeds 1.3407807929942596e+154: "
                                           "the E < 0 momentum scan overflows\n")
        # M R = 1e7 solves: its E < 0 roots pass the scaled residual check
        assert main([*args, "--M", "1e7"]) == 0
        assert capsys.readouterr().err == ""

    def test_imax_above_limit(self, capsys):
        for bc in ("spectral", "mit"):
            assert main(["spectrum", "--bc", bc, "--jmax", "1/2", "--imax", "501"]) == 2
            assert "'imax'" in capsys.readouterr().err


class TestCondensateCommand:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["condensate", "--bc", "spectral", "--M", "1", "--R", "1",
                   "--Omega", "0.5", "--beta", "1", "--jmax", "5/2", "--imax", "4",
                   "--r-grid", "0:1:3", "--theta-grid", "1.5707963267948966",
                   "--out", str(out)])
        assert rc == 0
        body = [ln for ln in out.read_text().strip().split("\n")
                if not ln.startswith("#")]
        assert body[0] == "r,theta,value"
        assert len(body) == 4

    def test_preset_writes_files(self, tmp_path, capsys):
        stem = tmp_path / "fig"
        rc = main(["condensate", "--preset", "fig1a", "--jmax", "5/2",
                   "--imax", "3", "--out", str(stem)])
        assert rc == 0
        made = sorted(tmp_path.glob("fig_Omega*.csv"))
        assert len(made) == 3

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mode=condensate\nbc=mit\nvarsigma=1\nM=1\nbeta=1\n"
                           "jmax=5/2\nimax=3\nr_grid=0:1:2\ntheta_grid=1.0\n")
        out = tmp_path / "o.json"
        rc = main(["condensate", "--config", str(cfgfile), "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["boundary"] == "mit" and doc["varsigma"] == 1

    def test_error_exit_code(self, capsys):
        rc = main(["condensate", "--Omega", "2.0", "--R", "1"])
        assert rc == 2
        assert "faster-than-light" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        # an OSError exits 2, never 1, which is verify's FAILED
        path = tmp_path / "missing.cfg"
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(path) in err

    def test_unwritable_out_path(self, tmp_path, capsys):
        path = tmp_path / "missing" / "run.csv"
        assert main(["condensate", "--jmax", "3/2", "--imax", "2", "--r-grid", "0.5",
                     "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(path) in err

    def test_infinite_jmax(self, capsys):
        for value in ("inf", "nan", "1e308", "1" + "0" * 400 + "1/2"):
            assert main(["condensate", "--jmax", value]) == 2
            assert "'jmax'" in capsys.readouterr().err

    def test_removed_threads_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["condensate", "--threads", "2"])
        assert exc.value.code == 2


# every physical input that PhysicalParams rejects, and what the error must name
_BAD_PHYSICAL = [({"M": "-1"}, ["'M'"]), ({"R": "0"}, ["'R'"]), ({"R": "-2"}, ["'R'"]),
                 ({"Omega": "-0.5"}, ["'Omega'"]), ({"beta": "0"}, ["'beta'"]),
                 ({"beta": "-2"}, ["'beta'"]),
                 ({"Omega": "0.8", "R": "2"}, ["faster-than-light", "'Omega'", "'R'"])]


class TestPhysicalInputErrors:
    @pytest.mark.parametrize("values, named", _BAD_PHYSICAL)
    def test_config_file(self, tmp_path, capsys, values, named):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        assert main(["verify", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(s in err for s in named)

    @pytest.mark.parametrize("values, named", _BAD_PHYSICAL)
    def test_flags(self, capsys, values, named):
        argv = ["condensate"] + [a for key, value in values.items() for a in (f"--{key}", value)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(s in err for s in named)


class TestNegativeValues:
    """A negative value in exponent form passes as '--key value' too, which
    argparse before Python 3.13.1 took for an option."""

    def test_spaced_value_matches_equals_form(self, capsys):
        argv = ["condensate", "--jmax", "3/2", "--imax", "2", "--r-grid", "0.5"]
        for value in ("-2.5e-3", "-1e-5", "-3e2"):
            assert main([*argv, "--mu", value]) == 0
            spaced = capsys.readouterr().out
            assert main([*argv, f"--mu={value}"]) == 0
            assert spaced == capsys.readouterr().out and spaced

    def test_negative_omega_names_the_key(self, capsys):
        assert main(["condensate", "--Omega", "-1e-3", "--jmax", "3/2", "--imax", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Omega must be >= 0") and "'Omega'" in err


class TestTinyRadius:
    """A radius whose momenta, energies or |C|^2 overflow exits 2 naming R and
    M; the tiny radii printed nan or inf with exit 0 before, the large ones
    ended in an OverflowError traceback (spectral) or exit 3 (MIT)."""

    @pytest.mark.parametrize("argv", [
        ["condensate", "--R", "1e-200", "--r-grid", "0", "--jmax", "3/2", "--imax", "2"],
        ["condensate", "--bc", "mit", "--R", "1e-120", "--r-grid", "0", "--jmax", "3/2",
         "--imax", "2"],
        ["spectrum", "--R", "1e-300", "--jmax", "1/2", "--imax", "1"],
        ["spectrum", "--bc", "mit", "--varsigma", "-1", "--M", "1", "--R", "1e-200",
         "--jmax", "1/2", "--imax", "1"],
        ["verify", "--bc", "mit", "--M", "1", "--R", "1e-200", "--jmax", "1/2", "--imax", "1"],
        ["spectrum", "--R", "6e102", "--jmax", "1/2", "--imax", "1"],
        ["condensate", "--R", "1e110", "--r-grid", "0", "--jmax", "3/2", "--imax", "2"],
        ["verify", "--R", "1e300", "--jmax", "1/2", "--imax", "1"],
        ["spectrum", "--bc", "mit", "--M", "1", "--R", "1e108", "--jmax", "1/2", "--imax", "1"],
        ["spectrum", "--bc", "mit", "--varsigma", "-1", "--M", "1", "--R", "1e150",
         "--jmax", "1/2", "--imax", "1"],
        ["verify", "--bc", "mit", "--M", "1", "--R", "1e120", "--jmax", "1/2", "--imax", "1"],
    ], ids=["condensate-spectral", "condensate-mit", "spectrum-spectral", "spectrum-mit",
            "verify-mit", "spectrum-spectral-large", "condensate-spectral-large",
            "verify-spectral-large", "spectrum-mit-large", "spectrum-mit-vs-1-large",
            "verify-mit-large"])
    def test_exit_2(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        R, M = argv[argv.index("--R") + 1], argv[argv.index("--M") + 1] if "--M" in argv else "0"
        assert out == "" and err == (f"error: non-finite momentum, energy or |C|^2 at "
                                     f"R={float(R)!r}, M={float(M)!r}\n")


class TestHugeMassRadius:
    """Above M*R = sqrt(largest double) the E < 0 momentum equation overflows:
    a run that reads E < 0 modes exits 2 naming M*R and that limit (exit 3,
    "non-finite values in momentum equation scan", before).  E > 0 modes
    solve there, their coefficient rounding to 0 (the infinite-mass limit
    j_lf = 0), so the condensate keeps its exit 0 and its bytes."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--bc", "mit", "--M", "1", "--R", "1e160", "--jmax", "1/2", "--imax", "1"],
        ["spectrum", "--bc", "mit", "--varsigma", "-1", "--M", "3", "--R", "1e154",
         "--jmax", "1/2", "--imax", "1"],
        ["verify", "--bc", "mit", "--M", "1", "--R", "1e160", "--jmax", "1/2", "--imax", "1"],
    ])
    def test_exit_2(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        MR = float(argv[argv.index("--M") + 1]) * float(argv[argv.index("--R") + 1])
        assert out == "" and err == (f"error: M*R = {MR!r} exceeds 1.3407807929942596e+154: "
                                     "the E < 0 momentum scan overflows\n")

    def test_condensate_keeps_its_bytes(self, capsys):
        assert main(["condensate", "--bc", "mit", "--M", "1", "--R", "1e160", "--Omega", "0",
                     "--jmax", "3/2", "--imax", "1", "--r-grid", "0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4a68c707185d6778e313147dbcf9f388f232c19ab3a6046a43db88336e4931ae")


class TestMitHighJ:
    """MIT varsigma = -1 at j = 81/2: the shells whose E and kappa have
    opposite signs have no root below the first break once M R >= n + 3/2.
    Rounding of subnormal terms gave their equation a spurious root near x =
    1.5e-6 there, and these runs exited 2, 3 and 3."""

    def test_condensate(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["condensate", "--bc", "mit", "--varsigma", "-1", "--M", "50", "--R", "1",
                         "--Omega", "0.5", "--beta", "1", "--jmax", "81/2", "--imax", "5",
                         "--r-grid", "0.5"]) == 0
        assert math.isfinite(float(capsys.readouterr().out.strip().rsplit(",", 1)[1]))
        p, _, _ = shell_rows(mit(-1), 1, 50.0, 1.0, 5, 81)[-1]  # the condensate reads E > 0
        assert np.allclose(p[:5], scan_mit_momenta(81, -41, 1, 1.0, 50.0, -1, 5), rtol=1e-12)

    def test_spectrum(self, capsys):
        assert main(["spectrum", "--bc", "mit", "--varsigma", "-1", "--M", "1000", "--R", "1",
                     "--jmax", "81/2", "--imax", "2"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.strip().split("\n")[1:]]
        for kappa, esign in ((-41, 1), (41, -1)):
            pR = [float(row[5]) for row in rows
                  if row[1:4] == ["81", "81", str(kappa)] and row[0] == str(esign)]
            assert np.allclose(pR, scan_mit_momenta(81, kappa, esign, 1.0, 1000.0, -1, 2),
                               rtol=1e-12), kappa

    def test_verify(self, capsys):
        assert main(["verify", "--bc", "mit", "--varsigma", "-1", "--M", "1000", "--R", "1",
                     "--jmax", "81/2", "--imax", "2"]) == 0
        assert capsys.readouterr().out.endswith("verify: OK\n")


class TestHugeBeta:
    """At beta = 1e308, beta (E_tilde -+ mu) passes the largest double: the
    weights take their exact limits, 0 here, with no RuntimeWarning."""

    def test_no_overflow_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["condensate", "--M", "1", "--Omega", "0.5", "--beta", "1e308",
                         "--jmax", "3/2", "--imax", "2", "--r-grid", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "# tail_estimate=0.0\n" in out and out.endswith("\n0.5,1.5707963267948966,-0.0\n")


class TestParserReuse:
    """main builds its parser once per process; no flag of one call may reach
    the next."""

    ARGVS = [
        ["verify", "--bc", "mit", "--varsigma", "-1", "--M", "0.5", "--Omega", "0.8",
         "--jmax", "3/2", "--imax", "2"],
        ["verify", "--jmax", "3/2", "--imax", "2"],
        ["zeros", "--order", "2", "--count", "3", "--format", "json"],
        ["zeros", "--count", "2"],
        ["spectrum", "--bc", "mit", "--M", "1", "--R", "2", "--jmax", "1/2", "--imax", "1",
         "--format", "json"],
        ["spectrum", "--jmax", "1/2", "--imax", "1"],
        ["condensate", "--M", "1", "--Omega", "0.3", "--beta", "2", "--mu", "0.1",
         "--jmax", "3/2", "--imax", "2", "--r-grid", "0.5", "--theta-grid", "1.0"],
        ["condensate", "--jmax", "3/2", "--imax", "2", "--r-grid", "0.25"],
        ["verify", "--Omega", "2"],
        ["verify", "--bc", "neither"],
        ["verify", "--jmax", "1/2", "--imax", "1"],
    ]

    @staticmethod
    def _outcomes(argvs, capsys):
        outcomes = []
        for argv in argvs:
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse rejects the flag
                status = f"exit {exc.code}"
            outcomes.append((status, *capsys.readouterr()))
        return outcomes

    def test_calls_in_a_row_match_a_fresh_parser(self, capsys, monkeypatch, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("bc=mit\nM=2\nOmega=0.1\n")
        argvs = [*self.ARGVS, ["verify", "--config", str(cfgfile), "--jmax", "1/2",
                               "--imax", "1"], self.ARGVS[-1]]
        got = self._outcomes(argvs, capsys)
        assert cli._parser() is cli._parser() and build_parser() is not build_parser()
        monkeypatch.setattr(cli, "_parser", build_parser)  # a fresh parser per call
        assert got == self._outcomes(argvs, capsys)
        statuses = [g[0] for g in got]
        assert statuses == [0] * 8 + [2, "exit 2", 0, 0, 0]
        assert "MIT condition" in got[0][1] and "MIT condition" not in got[1][1]
        assert got[-1] == got[-3] != got[-2]


class TestVerifyCommand:
    def test_high_rotation_passes(self, capsys):
        rc = main(["verify", "--bc", "spectral", "--M", "1", "--R", "1",
                   "--Omega", "0.99", "--beta", "1", "--jmax", "9/2",
                   "--imax", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "violations=0" in out and "verify: OK" in out

    def test_mit_verify(self, capsys):
        rc = main(["verify", "--bc", "mit", "--varsigma", "-1", "--M", "0.5",
                   "--R", "1", "--Omega", "0.8", "--beta", "1", "--jmax", "5/2",
                   "--imax", "3"])
        assert rc == 0
        assert "verify: OK" in capsys.readouterr().out


class TestArgsToConfig:
    def test_namespace_merge(self):
        ap = build_parser()
        args = ap.parse_args(["condensate", "--M", "2.5", "--jmax", "7/2"])
        cfg = config_from_args(args)
        assert cfg.M == 2.5 and cfg.two_j_max == 7 and cfg.mode == "condensate"

    def test_flags_applied_by_one_replace(self, monkeypatch):
        calls, real = [], cli.replace
        monkeypatch.setattr(cli, "replace", lambda cfg, **kw: calls.append(kw) or real(cfg, **kw))
        args = build_parser().parse_args(["verify", "--M", "1", "--Omega", "0.5", "--jmax",
                                          "9/2", "--imax", "4", "--bc", "mit", "--varsigma",
                                          "-1"])
        cfg = config_from_args(args)
        assert [list(kw) for kw in calls] == [
            ["mode", "bc", "varsigma", "M", "Omega", "two_j_max", "i_max"]]
        assert (cfg.mode, cfg.bc, cfg.varsigma, cfg.M, cfg.Omega, cfg.two_j_max, cfg.i_max) == (
            "verify", "mit", -1, 1.0, 0.5, 9, 4)

    def test_first_bad_flag_in_key_order(self):
        # the flags are parsed in the config's key order, whatever their order
        # on the command line: the first bad one names its key, and a value that
        # parses but is out of range is named by the validation after
        flags = ["--imax", "0", "--jmax", "7/3", "--beta", "inf", "--M", "nan"]
        messages = []
        for n in range(len(flags), 0, -2):
            with pytest.raises(ConfigError) as got:
                config_from_args(build_parser().parse_args(["condensate", *flags[:n]]))
            messages.append(str(got.value))
        assert messages == ["non-finite value for key 'M'", "non-finite value for key 'beta'",
                            "malformed half-integer '7/3' for key 'jmax'",
                            "imax must be in [1, 500] for key 'imax'"]

    def test_run_dispatch_unknown_blocked_by_validation(self):
        with pytest.raises(ConfigError):
            parse_config("mode=render\n")
