"""Command-line front end: spectrum/condensate runs, zero tables and the
verification suite.

Configuration can come from a flat key=value file (--config) and from flags;
flags win.  All quantities are in natural units with R setting the length
scale.  Subcommands:

    zeros       first zeros of a spherical Bessel order
    spectrum    enumerate quantized modes, export CSV/JSON
    condensate  condensate grid or figure-preset datasets
    verify      vacuum-equivalence and boundary-residual checks
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import boundary as bnd
from . import condensate as cnd
from .specfun import I_MAX_DEFAULT, bessel_zeros


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


_MODES = ("spectrum", "condensate", "verify", "zeros")
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; round-trips through to_text/parse_config."""

    mode: str = "condensate"
    bc: str = "spectral"
    varsigma: int = 1
    M: float = 0.0
    R: float = 1.0
    Omega: float = 0.0
    beta: float = 1.0
    mu: float = 0.0
    two_j_max: int = 41
    i_max: int = 60
    r_grid: str = ""
    theta_grid: str = ""
    out: str = ""
    format: str = "csv"
    preset: str = ""
    order: int = 0
    count: int = 10

    @property
    def boundary(self) -> bnd.BoundaryKind:
        return bnd.mit(self.varsigma) if self.bc == "mit" else bnd.SPECTRAL

    @property
    def params(self) -> cnd.PhysicalParams:
        return cnd.PhysicalParams(self.M, self.R, self.Omega, self.beta, self.mu)

    def to_text(self) -> str:
        vals = {key: getattr(self, field) for key, (field, _) in _CONFIG.items()}
        vals["jmax"] = f"{self.two_j_max}/2"
        return "".join(f"{key}={value}\n" for key, value in vals.items())


def _parse_number(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"malformed number {value!r} for key '{key}'") from None
    if not math.isfinite(out):
        raise ConfigError(f"non-finite value for key '{key}'")
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"malformed integer {value!r} for key '{key}'") from None


def _parse_jmax(key: str, value: str) -> int:
    value = value.strip()
    try:
        if "/" in value:
            num, den = value.split("/")
            if int(den) != 2:
                raise ValueError
            two_j = int(num)
        else:
            two_j = bnd.two_j_from(float(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"malformed half-integer {value!r} for key '{key}'") from None
    if two_j < 1 or two_j % 2 == 0:
        raise ConfigError(f"{key} must be a positive half-integer, got {value!r}")
    return two_j


def _parse_text(key: str, value: str) -> str:
    return value.strip()


# config key -> (RunConfig field, parser(key, value)); to_text writes this order
_CONFIG = {
    "mode": ("mode", _parse_text), "bc": ("bc", _parse_text),
    "varsigma": ("varsigma", _parse_int), "M": ("M", _parse_number),
    "R": ("R", _parse_number), "Omega": ("Omega", _parse_number),
    "beta": ("beta", _parse_number), "mu": ("mu", _parse_number),
    "jmax": ("two_j_max", _parse_jmax), "imax": ("i_max", _parse_int),
    "r_grid": ("r_grid", _parse_text), "theta_grid": ("theta_grid", _parse_text),
    "out": ("out", _parse_text), "format": ("format", _parse_text),
    "preset": ("preset", _parse_text), "order": ("order", _parse_int),
    "count": ("count", _parse_int),
}


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.mode not in _MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r} for key 'mode'")
    if cfg.bc not in ("spectral", "mit"):
        raise ConfigError(f"unknown boundary {cfg.bc!r} for key 'bc'")
    if cfg.varsigma not in (-1, 1):
        raise ConfigError("varsigma must be 1 or -1 for key 'varsigma'")
    try:
        cfg.params  # PhysicalParams owns the physical-input checks
    except bnd.FasterThanLightError as exc:
        raise ConfigError(f"faster-than-light boundary: {exc} (keys 'Omega', 'R')") from None
    except ValueError as exc:  # its messages start with the field name
        raise ConfigError(f"{exc} for key '{str(exc).split()[0]}'") from None
    if not 1 <= cfg.i_max <= I_MAX_DEFAULT:
        raise ConfigError(f"imax must be in [1, {I_MAX_DEFAULT}] for key 'imax'")
    if cfg.format not in _FORMATS:
        raise ConfigError(f"format must be one of {_FORMATS} for key 'format'")
    if cfg.preset and cfg.preset not in PRESETS:
        raise ConfigError(f"unknown preset {cfg.preset!r} for key 'preset'")
    if cfg.count < 1:
        raise ConfigError("count must be >= 1 for key 'count'")
    if cfg.order < 0:
        raise ConfigError("order must be >= 0 for key 'order'")
    return cfg


def _apply(cfg: RunConfig, key: str, value) -> RunConfig:
    if key not in _CONFIG:
        raise ConfigError(f"unknown key '{key}'")
    field, parse = _CONFIG[key]
    return replace(cfg, **{field: parse(key, str(value))})


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from flat key=value lines; '#' starts a comment."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        cfg = _apply(cfg, key, value)
    return _validate(cfg)


def _parse_grid(spec: str, key: str) -> np.ndarray:
    """Grid spec 'a:b:n' (n equally spaced points) or comma-separated values."""
    spec = spec.strip()
    try:
        if ":" in spec:
            a, b, n = spec.split(":")
            pts = np.linspace(float(a), float(b), int(n))
        else:
            pts = np.array([float(s) for s in spec.split(",") if s.strip()])
    except ValueError:
        raise ConfigError(f"malformed grid spec {spec!r} for key '{key}'") from None
    if pts.size == 0:
        raise ConfigError(f"empty grid for key '{key}'")
    return pts


def _grids(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    r = (_parse_grid(cfg.r_grid, "r_grid") if cfg.r_grid
         else np.linspace(0.0, cfg.R, 21))
    th = (_parse_grid(cfg.theta_grid, "theta_grid") if cfg.theta_grid
          else np.array([math.pi / 2]))
    return r, th


# ---------------------------------------------------------------------------
# Figure presets: one dataset per curve, parameters from the panel captions.
# Exact curve values are not golden; the acceptance suite asserts only the
# qualitative properties.
# ---------------------------------------------------------------------------

_OMEGAS = (0.0, 0.4, 0.8)
_BETAS = (2.0, 1.0, 0.5)
_MASSES = (0.0, 1.0, 2.0)
_THETAS = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


def _panel_curves(panel: str, mit_case: bool):
    base = {"M": 1.0, "R": 1.0, "Omega": 0.0, "beta": 1.0, "mu": 0.0}
    theta = math.pi / 2
    curves = []
    if panel in ("a", "b"):
        base["beta"] = 2.0 if panel == "a" else 0.5
        for om in _OMEGAS:
            curves.append((f"Omega{om:g}", {**base, "Omega": om}, theta, None))
    elif panel == "c":
        base["Omega"] = 0.5
        for be in _BETAS:
            curves.append((f"beta{be:g}", {**base, "beta": be}, theta, None))
    elif panel == "d":
        base["Omega"] = 0.5
        for mass in _MASSES:
            if mit_case:
                for vs in (1, -1):
                    curves.append((f"M{mass:g}_vs{vs:+d}",
                                   {**base, "M": mass}, theta, vs))
            else:
                curves.append((f"M{mass:g}", {**base, "M": mass}, theta, None))
    elif panel in ("e", "f"):
        base["beta"] = 2.0 if panel == "e" else 0.5
        base["Omega"] = 0.8
        for th in _THETAS:
            curves.append((f"theta{th:.4f}", dict(base), th, None))
    return curves


# fig1* presets are spectral, fig2* MIT; bare fig1/fig2 emit all six panels
PRESETS = {f"fig{fig}{panel}": (fig == 2, panel)
           for fig in (1, 2) for panel in "abcdef"}
PRESETS["fig1"] = (False, "abcdef")
PRESETS["fig2"] = (True, "abcdef")


def _write(path: str, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_zeros(cfg: RunConfig) -> int:
    zs = bessel_zeros(cfg.order, cfg.count)
    if cfg.format == "json":
        import json
        text = json.dumps({"order": cfg.order,
                           "zeros": [float(z) for z in zs]}, indent=1) + "\n"
    else:
        lines = ["order,i,zero"]
        lines += [f"{cfg.order},{i + 1},{float(z)!r}" for i, z in enumerate(zs)]
        text = "\n".join(lines) + "\n"
    _write(cfg.out, text)
    return 0


def _run_spectrum(cfg: RunConfig) -> int:
    spectrum = bnd.enumerate_spectrum(cfg.boundary, cfg.params, cfg.two_j_max / 2.0,
                                      cfg.i_max)
    text = (bnd.spectrum_to_json(spectrum, cfg.R) if cfg.format == "json"
            else bnd.spectrum_to_csv(spectrum, cfg.R))
    _write(cfg.out, text)
    return 0


def _run_condensate(cfg: RunConfig) -> int:
    to_text = cnd.grid_to_json if cfg.format == "json" else cnd.grid_to_csv
    if cfg.preset:
        mit_case, panels = PRESETS[cfg.preset]
        stem = cfg.out or cfg.preset
        for panel in panels:
            for label, pdict, theta, vs in _panel_curves(panel, mit_case):
                bc = bnd.mit(vs if vs is not None else 1) if mit_case else bnd.SPECTRAL
                params = cnd.PhysicalParams(**pdict)
                r_grid = (_parse_grid(cfg.r_grid, "r_grid") if cfg.r_grid
                          else np.linspace(0.0, params.R, 41))
                grid = cnd.condensate_grid(bc, params, r_grid, [theta],
                                           cfg.two_j_max / 2.0, cfg.i_max)
                tag = f"{panel}_{label}" if len(panels) > 1 else label
                path = f"{stem}_{tag}.{cfg.format}"
                _write(path, to_text(grid))
                print(path)
        return 0
    r_grid, th_grid = _grids(cfg)
    grid = cnd.condensate_grid(cfg.boundary, cfg.params, r_grid, th_grid,
                               cfg.two_j_max / 2.0, cfg.i_max)
    _write(cfg.out, to_text(grid))
    return 0


def _run_verify(cfg: RunConfig) -> int:
    bc = cfg.boundary
    spectrum = bnd.enumerate_spectrum(bc, cfg.params, cfg.two_j_max / 2.0, cfg.i_max)
    vac = bnd.verify_vacuum_equivalence(spectrum, cfg.Omega, cfg.R)
    print(f"vacuum equivalence: {vac.n_modes} modes, Omega*R={vac.omega_r:g}, "
          f"min|E_tilde|={vac.min_abs_corotating:.6g}, "
          f"violations={len(vac.violations)}")
    for mo in vac.violations[:20]:
        print(f"  E*E_tilde<=0: {mo.qn} E={mo.E!r} E_tilde={mo.E_tilde!r}")

    # wall residuals on the subset j <= 9/2, i <= 6
    sub = spectrum[(spectrum.two_j <= 9) & (spectrum.i <= 6)]
    rep = bnd.verify_boundary_residuals(bc, sub, cfg.R, cfg.M)
    detail = (f"max|MIT condition|={rep.max_condition:.3e} (tol {rep.tol_condition:g}), "
              f"max|A+B|(R)={rep.max_density:.3e} (tol {rep.tol_density:g})" if bc.is_mit
              else f"max|component|(R)={rep.max_component:.3e} (tol {rep.tol_component:g})")
    print(f"boundary residuals ({rep.n_modes} modes): {detail}")
    quant = float(np.max(bnd.quantization_residual(bc, spectrum, cfg.R, cfg.M)))
    print(f"quantization residual: max={quant:.3e} (tol {bnd.QUANT_TOL:g})")
    ok = vac.ok and rep.ok and quant <= bnd.QUANT_TOL
    print("verify: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rotsphere",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--bc", choices=("spectral", "mit"))
    common.add_argument("--varsigma", type=int, choices=(1, -1))
    common.add_argument("--M", type=float)
    common.add_argument("--R", type=float)
    common.add_argument("--Omega", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--mu", type=float)
    common.add_argument("--jmax", help="half-integer, e.g. 21/2 or 10.5")
    common.add_argument("--imax", type=int)
    common.add_argument("--r-grid", dest="r_grid", help="a:b:n or comma list")
    common.add_argument("--theta-grid", dest="theta_grid", help="a:b:n or comma list")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=_FORMATS)

    sub.add_parser("spectrum", parents=[common])
    pc = sub.add_parser("condensate", parents=[common])
    pc.add_argument("--preset", choices=sorted(PRESETS))
    sub.add_parser("verify", parents=[common])
    pz = sub.add_parser("zeros", parents=[common])
    pz.add_argument("--order", type=int)
    pz.add_argument("--count", type=int)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = RunConfig()
    cfg = _apply(cfg, "mode", args.mode)
    for key in _CONFIG:
        if key == "mode":
            continue
        val = getattr(args, key, None)
        if val is not None:
            cfg = _apply(cfg, key, val)
    return _validate(cfg)


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns a process exit status."""
    dispatch = {"zeros": _run_zeros, "spectrum": _run_spectrum,
                "condensate": _run_condensate, "verify": _run_verify}
    return dispatch[cfg.mode](cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except (ConfigError, bnd.FasterThanLightError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except bnd.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
