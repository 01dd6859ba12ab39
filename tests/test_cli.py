import json
import math

import pytest

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

    def test_solver_error_exit_code(self, capsys):
        # at M R = 1e200, (M R)^2 overflows in the momentum equation
        args = ["spectrum", "--bc", "mit", "--varsigma", "1", "--Omega", "0.5",
                "--jmax", "3/2", "--imax", "20"]
        assert main([*args, "--M", "1e200"]) == 3
        assert capsys.readouterr().err == (
            "solver error: non-finite values in momentum equation scan\n")
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

    def test_infinite_jmax(self, capsys):
        for value in ("inf", "nan"):
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

    def test_run_dispatch_unknown_blocked_by_validation(self):
        with pytest.raises(ConfigError):
            parse_config("mode=render\n")
