"""Command-line front end: scenario configs in, CSV/JSON reports out.

Subcommands
-----------
density   sample |psi|^2 on a grid for each requested time -> density_t*.csv
verify    residual/normalization/variance report            -> residuals.json
fock      factorization and vacuum-column diagnostics       -> fock_report.json
entropy   summed vs closed-form entanglement entropy        -> entropy.csv

Exit codes: 0 success, 1 usage/config error, 2 tolerance violation,
3 I/O failure.  Output is deterministic: fixed float formatting, sorted
JSON keys, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fockalg, spectral, verify
from .closedform import (
    GridSpec2D,
    Scenario,
    auto_grid,
    sample_bohm,
    sample_density,
    sample_external,
)
from .fockalg import N_MAX_LIMIT, ConvergenceError, FockSpaceSpec
from .timefns import finite_number
from .verify import V_SOURCES, VSource

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "run_density",
    "run_verify",
    "run_fock",
    "run_entropy",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_IO = 3

ENTROPY_TERMS = 600  # Schmidt eigenvalues summed per entropy value

DEFAULT_TOLERANCES = {
    "residual_max": 1e-4,       # stencil residuals (schrodinger, continuity, bohm)
    "hj_max": 1e-9,             # analytic Hamilton-Jacobi closure
    "normalization": 1e-6,
    "variance": 1e-8,           # var(v) against exp(2(r-1) nu)/2, relative
    "variance_product": 1e-8,   # var(u) var(v) against exp(4 r nu)/4, relative
    "fock_interior": 1e-8,      # factorization distance flag threshold
}


# Flags a subcommand has no use for: passing one is an error, not ignored.
UNUSED_FLAGS = {
    "density": ("tol",),
    "verify": ("grid_n",),
    "fock": ("grid_n",),
    "entropy": ("grid_n", "tol"),
}


class ConfigError(ValueError):
    """Invalid or unusable run configuration."""


# grid fields the density subcommand can emit, and their samplers
FIELD_SAMPLERS = {
    "density": sample_density,
    "bohm_potential": sample_bohm,
    "external_potential": sample_external,
}


@dataclass
class RunConfig:
    """One batch run: scenario, grid choice, times, outputs, tolerances."""

    scenario: Scenario
    grid: GridSpec2D | None  # None = adaptive per-time grid
    times: tuple[float, ...]
    out_dir: Path
    outputs: tuple[str, ...] = ("density",)
    v_source: VSource = "hj_closure"
    tolerances: dict = field(default_factory=dict)
    grid_n: int | None = None  # overrides sample count, keeps extent

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def grid_for(self, t: float) -> GridSpec2D:
        g = self.grid if self.grid is not None else auto_grid(self.scenario, t)
        if self.grid_n is not None and (g.nx, g.ny) != (self.grid_n, self.grid_n):
            g = GridSpec2D(g.x_min, g.x_max, g.y_min, g.y_max, self.grid_n, self.grid_n)
        return g


def _read_json_object(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _positive_tolerance(value: object, what: str) -> float:
    try:
        tol = finite_number(value, what)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if tol <= 0.0:
        raise ConfigError(f"{what} must be positive, got {value!r}")
    return tol


def _number_list(raw: dict, key: str) -> list[float]:
    """The non-empty list of finite numbers under ``key``."""
    values = raw.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"config must list finite numbers in '{key}'")
    try:
        return [finite_number(v, f"'{key}' entry") for v in values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path, *, out_override: str | None = None, grid_n: int | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    raw = _read_json_object(path)
    try:
        scenario = Scenario.from_json(raw.get("scenario", {}))
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc

    grid_raw = raw.get("grid", "auto")
    if grid_raw == "auto":
        grid = None
    else:
        try:
            grid = GridSpec2D.from_json(grid_raw)
        except ValueError as exc:
            raise ConfigError(f"bad grid: {exc}") from exc
    if grid_n is not None and (grid_n < 3 or grid_n % 2 == 0):
        raise ConfigError("--grid-n must be an odd integer >= 3")

    times = _number_list(raw, "times")
    if len(set(times)) != len(times):
        raise ConfigError("'times' lists a time more than once")

    outputs = raw.get("outputs", ["density"])
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("'outputs' must be a non-empty list")
    unknown_fields = set(outputs) - set(FIELD_SAMPLERS)
    if unknown_fields:
        raise ConfigError(
            f"unknown outputs {sorted(unknown_fields)}; supported: {sorted(FIELD_SAMPLERS)}"
        )

    v_source = raw.get("v_source", "hj_closure")
    if v_source not in V_SOURCES:
        raise ConfigError(f"v_source must be one of {V_SOURCES}, got {v_source!r}")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object")
    unknown = set(tolerances) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    tolerances = {key: _positive_tolerance(value, f"tolerance '{key}'") for key, value in tolerances.items()}

    out_dir = Path(out_override) if out_override else Path(raw.get("out_dir", "out"))
    return RunConfig(
        scenario=scenario,
        grid=grid,
        times=tuple(times),
        out_dir=out_dir,
        outputs=tuple(outputs),
        v_source=v_source,
        tolerances=tolerances,
        grid_n=grid_n,
    )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _time_tag(t: float) -> str:
    """Short tag for file names, distinct for distinct times: ``:g`` if it reads back as t."""
    short = f"{t:g}"
    return short if float(short) == t else repr(t)


def _write_field_csv(fh, field2d) -> None:
    """Write x,y,value rows to a text stream, x varying fastest within each y block.

    Each x is formatted once per grid and each y once per block, and a
    block goes out in one write.
    """
    xs = [_fmt(x) + "," for x in field2d.grid.xs().tolist()]
    fh.write("x,y,value\n")
    for yv, col in zip(field2d.grid.ys().tolist(), field2d.values.T.tolist()):
        y = _fmt(yv) + ","
        fh.write("".join([f"{x}{y}{v:.17g}\n" for x, v in zip(xs, col)]))  # _fmt's format, inline per value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def run_density(cfg: RunConfig) -> list[Path]:
    """Sample the configured fields for every time into <field>_t<t>.csv.

    Emits |psi|^2 by default; the config's ``outputs`` list can add the
    Bohm and external potentials on the same grids.  Every field is
    sampled before the first write, so a failing time leaves no file, and
    a failing write removes the files this run has written.
    """
    tasks = [(name, t) for name in cfg.outputs for t in cfg.times]
    fields = [FIELD_SAMPLERS[name](cfg.scenario, cfg.grid_for(t), t) for name, t in tasks]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    paths = [cfg.out_dir / f"{name}_t{_time_tag(t)}.csv" for name, t in tasks]
    written = []
    try:
        for path, field2d in zip(paths, fields):
            with path.open("w", newline="\n") as fh:
                written.append(path)
                _write_field_csv(fh, field2d)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return paths


def run_verify(cfg: RunConfig) -> tuple[Path, list[str]]:
    """Residual, normalization and relative variance report, and one line per failing check.

    Each line names the check, the time, the value and its limit; the
    list is empty when every check passes.
    """
    s = cfg.scenario
    res_tol = cfg.tolerance("residual_max")
    hj_tol = cfg.tolerance("hj_max")

    entries = []
    failures = []

    def check(name: str, t: float, value: float, limit: float) -> None:
        if value > limit:
            failures.append(f"tolerance violation: {name} at t = {_time_tag(t)}: {value:.3e} > {limit:.3e}")

    for t in cfg.times:
        grid = cfg.grid if cfg.grid is not None else verify.residual_grid(s, t)
        reports = [
            verify.schrodinger_residual(s, t, grid, v_source=cfg.v_source),
            verify.continuity_residual(s, t, grid),
            verify.hamilton_jacobi_residual(s, t, grid, v_source=cfg.v_source),
            verify.bohm_definition_residual(s, t, grid),
        ]
        norm, var_plus, var_minus = verify.diagonal_moments(s, t)
        nu = s.nu_at(t)
        var_minus_expected = math.exp(2.0 * (s.r - 1.0) * nu) / 2.0
        product_expected = math.exp(4.0 * s.r * nu) / 4.0
        for rep in reports:
            limit = hj_tol if rep.equation == "hamilton_jacobi" else res_tol
            check(rep.equation, t, rep.max_abs_residual, limit)
        check("normalization", t, abs(norm - 1.0), cfg.tolerance("normalization"))
        check("variance", t, abs(var_minus - var_minus_expected) / var_minus_expected, cfg.tolerance("variance"))
        check(
            "variance_product",
            t,
            abs(var_plus * var_minus - product_expected) / product_expected,
            cfg.tolerance("variance_product"),
        )
        entries.append(
            {
                "t": t,
                "reports": [r.to_json() for r in reports],
                "normalization": norm,
                "var_plus": var_plus,
                "var_minus": var_minus,
                "var_minus_expected": var_minus_expected,
                "variance_product_expected": product_expected,
            }
        )

    payload = {
        "scenario": s.to_json(),
        "v_source": cfg.v_source,
        "tolerances": {k: cfg.tolerance(k) for k in DEFAULT_TOLERANCES},
        "results": entries,
        "pass": not failures,
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.out_dir / "residuals.json"
    _write_json(out, payload)
    return out, failures


def run_fock(
    nu_values: Sequence[float],
    n_max: int,
    out_dir: Path,
    *,
    tolerance: float = DEFAULT_TOLERANCES["fock_interior"],
) -> Path:
    """Factorization distances, vacuum-column errors and function-system
    deviations per squeeze value, on the interior block of level n_max // 2.

    Entries whose interior distance exceeds ``tolerance`` are flagged, not
    failed: at fixed truncation the distance is dominated by reflection off
    the truncation edge and grows steeply with nu (see fockalg docstring).
    A squeeze value whose exponentials do not converge gets an ``error``
    message instead of their measurements; one whose ODE oracle does not
    converge gets an ``ode_error`` message instead of ``ode_max_dev``.
    """
    spec = FockSpaceSpec(n_max)
    out_dir.mkdir(parents=True, exist_ok=True)
    half = n_max // 2

    entries = []
    for nu in nu_values:
        entry: dict = {"nu": nu, "interior_level": half}
        try:
            entry.update(_fock_measurements(nu, spec, half, tolerance))
        except ConvergenceError as exc:
            entry["error"] = str(exc)
        try:
            ode = fockalg.disentangle_ode_oracle(nu, fockalg.ode_steps(nu))
        except ConvergenceError as exc:
            entry["ode_error"] = str(exc)
        else:
            closed = fockalg.disentangle_closed_form(nu)
            entry["ode_max_dev"] = max(abs(ode.f1 - closed.f1), abs(ode.f2 - closed.f2), abs(ode.f3 - closed.f3))
        entries.append(entry)

    out = out_dir / "fock_report.json"
    _write_json(out, {"n_max": n_max, "tolerance": tolerance, "entries": entries})
    return out


def _fock_measurements(nu: float, spec: FockSpaceSpec, half: int, tolerance: float) -> dict:
    direct = fockalg.two_mode_squeeze_direct(nu, spec)
    factored = fockalg.two_mode_squeeze_factored(nu, spec)
    d_int = fockalg.interior_block(direct, half)
    f_int = fockalg.interior_block(factored, half)
    denom = float(np.linalg.norm(d_int))
    distance = float(np.linalg.norm(d_int - f_int)) / denom
    col = fockalg.vacuum_column(direct)
    ns = np.arange(half + 1)
    with np.errstate(over="ignore"):  # cosh is inf past |nu| ~ 710, where the column tends to 0
        exact = np.tanh(nu) ** ns / np.cosh(nu)
    vac_err = float(np.max(np.abs(col[ns, ns] - exact)))
    off = col.copy()
    off[ns, ns] = 0.0
    return {
        "factorization_interior_rel": distance,
        "vacuum_column_max_err": vac_err,
        "vacuum_offdiag_max": float(np.abs(off[: half + 1, : half + 1]).max()),
        "flagged": bool(distance > tolerance or vac_err > tolerance),
    }


def run_entropy(nu_values: Sequence[float], out_dir: Path) -> Path:
    """entropy.csv with summed and closed-form entropies per squeeze value; no file if one fails."""
    rows = ["nu,entropy_sum,entropy_closed,schmidt_lambda0\n"]
    for nu in nu_values:
        spec = spectral.schmidt_spectrum(nu, ENTROPY_TERMS)
        rows.append(
            f"{_fmt(nu)},{_fmt(spectral.entanglement_entropy(spec))},"
            f"{_fmt(spectral.entropy_closed_form(nu))},{_fmt(float(spec.lambdas[0]))}\n"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "entropy.csv"
    with out.open("w", newline="\n") as fh:
        fh.write("".join(rows))
    return out


# ---------------------------------------------------------------------------
# argument parsing / entry point


class _UsageError(Exception):
    """A command-line argument error, reported by ``main`` as exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser that hands errors to ``main`` instead of exiting with status 2."""

    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bohm-squeeze",
        description="Sample and verify engineered two-mode squeezed vacuum-like states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("density", "write |psi|^2 grids as CSV"),
        ("verify", "write residual/normalization report"),
        ("fock", "write truncated-space factorization report"),
        ("entropy", "write entanglement-entropy table"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--grid-n", type=int, default=None, help="override grid sample count per axis")
        p.add_argument("--tol", type=float, default=None, help="override the stencil-residual tolerance")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        unused = [
            f"--{flag.replace('_', '-')}" for flag in UNUSED_FLAGS[args.command] if getattr(args, flag) is not None
        ]
        if unused:
            raise ConfigError(f"{' and '.join(unused)} does not apply to {args.command}")
        tol = None if args.tol is None else _positive_tolerance(args.tol, "--tol")
        if args.command in ("density", "verify"):
            cfg = load_config(args.config, out_override=args.out, grid_n=args.grid_n)
            if tol is not None:
                cfg.tolerances["residual_max"] = tol
            if args.command == "density":
                paths = run_density(cfg)
                for p in paths:
                    print(p)
                return EXIT_OK
            out, failures = run_verify(cfg)
            print(out)
            for line in failures:
                print(line, file=sys.stderr)
            return EXIT_TOLERANCE if failures else EXIT_OK

        raw = _read_json_object(args.config)
        out_dir = Path(args.out) if args.out else Path(raw.get("out_dir", "out"))
        nu_values = _number_list(raw, "nu_values")
        if args.command == "fock":
            n_max = raw.get("n_max", 24)
            if isinstance(n_max, bool) or not isinstance(n_max, int) or not 1 <= n_max <= N_MAX_LIMIT:
                raise ConfigError(f"'n_max' must be an integer from 1 to {N_MAX_LIMIT}")
            print(run_fock(nu_values, n_max, out_dir, tolerance=tol or DEFAULT_TOLERANCES["fock_interior"]))
        else:
            print(run_entropy(nu_values, out_dir))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
