"""Command-line front end: scenario configs in, CSV/JSON reports out.

Subcommands
-----------
density   sample |psi|^2 on a grid for each requested time -> density_t*.csv
verify    residual/normalization/variance report            -> residuals.json
fock      factorization and vacuum-column diagnostics       -> fock_report.json
entropy   summed vs closed-form entanglement entropy        -> entropy.csv

Both formats are this module's: it parses every config and writes every
report.  Each subcommand's config takes its own top-level keys
(``CONFIG_KEYS``), and each object nested in it (``scenario``, its ``nu``
and ``mu``, ``grid``, ``tolerances``) takes its own; one check refuses an
unknown key at every level.  A report writes a record (a ``Scenario``, a
``verify.ResidualReport``) as its dataclass fields.

Exit codes: 0 success, 1 usage/config error (a grid too large for memory
included), 2 tolerance violation, 3 I/O failure.  Output is deterministic:
fixed float formatting, sorted JSON keys, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
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
from .timefns import TimePolynomial
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
}
FOCK_TOLERANCE = 1e-8  # fock's flag threshold for the factorization distance

# Top-level keys of each subcommand's config.  configs/fig*.json hold only
# keys that density and verify share, so they feed both.
CONFIG_KEYS = {
    "density": ("scenario", "grid", "times", "outputs", "out_dir"),
    "verify": ("scenario", "grid", "times", "v_source", "tolerances", "out_dir"),
    "fock": ("nu_values", "n_max", "out_dir"),
    "entropy": ("nu_values", "out_dir"),
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


def _object(raw: object, what: str, keys: Sequence[str]) -> dict:
    """``raw``, a JSON object holding only ``keys``; ``what`` names it in errors."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for key in raw:
        if key not in keys:
            fock_tol = (what, key) == ("fock config", "tolerances")
            hint = "set its flag threshold with --tol" if fock_tol else f"it takes {', '.join(keys)}"
            raise ConfigError(f"{what} has unknown key {key!r}; {hint}")
    return raw


def _read_json_object(path: str | Path, command: str) -> dict:
    """The JSON object in ``path``, holding only keys that ``command``'s config takes."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _object(raw, f"{command} config", CONFIG_KEYS[command])


def _number(value: object, what: str) -> float:
    """A JSON number as a float; refuses true/false, strings and non-finite values."""
    try:
        # JSON true/false load as bool, a subclass of int
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _positive_tolerance(value: object, what: str) -> float:
    tol = _number(value, what)
    if tol <= 0.0:
        raise ConfigError(f"{what} must be positive, got {value!r}")
    return tol


def _number_list(raw: dict, key: str) -> list[float]:
    """The non-empty list of finite numbers under ``key``."""
    values = raw.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"config must list finite numbers in '{key}'")
    return [_number(v, f"'{key}' entry") for v in values]


def _polynomial(raw: object, what: str) -> TimePolynomial:
    """A ``{"coeffs": [c0, c1, ...]}`` object as a polynomial."""
    coeffs = _object(raw, what, ("coeffs",)).get("coeffs")
    if not isinstance(coeffs, list):
        raise ConfigError(f"{what} must be given as {{'coeffs': [c0, c1, ...]}}")
    return TimePolynomial([_number(c, f"{what} coefficient") for c in coeffs])


def _scenario(raw: object) -> Scenario:
    """A scenario object; ``mu`` defaults to zero."""
    raw = _object(raw, "scenario", ("m", "r", "nu", "mu"))
    try:
        return Scenario(
            m=_number(raw["m"], "m"),
            r=_number(raw["r"], "r"),
            nu=_polynomial(raw["nu"], "nu"),
            mu=_polynomial(raw.get("mu", {"coeffs": [0.0]}), "mu"),
        )
    except KeyError as exc:
        raise ConfigError(f"scenario is missing required key {exc}") from None


def _grid(raw: object) -> GridSpec2D:
    """An explicit grid object: four finite extents and two integer counts."""
    extents = ("x_min", "x_max", "y_min", "y_max")
    raw = _object(raw, "grid", (*extents, "nx", "ny"))

    def count(key: str) -> int:
        n = _number(raw[key], key)
        if n != int(n):
            raise ConfigError(f"{key} must be an integer, got {raw[key]!r}")
        return int(n)

    try:
        return GridSpec2D(*(_number(raw[key], key) for key in extents), nx=count("nx"), ny=count("ny"))
    except KeyError as exc:
        raise ConfigError(f"grid is missing required key {exc}") from None


def load_config(path: str | Path, *, out_override: str | None = None, grid_n: int | None = None) -> RunConfig:
    """Parse and validate a JSON density configuration."""
    return _run_config(_read_json_object(path, "density"), out_override, grid_n)


def _run_config(raw: dict, out_override: str | None, grid_n: int | None) -> RunConfig:
    """A density or verify config whose top-level keys are already checked."""
    try:
        scenario = _scenario(raw.get("scenario", {}))
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc

    grid_raw = raw.get("grid", "auto")
    if grid_raw == "auto":
        grid = None
    else:
        try:
            grid = _grid(grid_raw)
        except ValueError as exc:
            raise ConfigError(f"bad grid: {exc}") from exc
    if grid_n is not None and (grid_n < 3 or grid_n % 2 == 0):
        raise ConfigError("--grid-n must be an odd integer >= 3")

    times = _number_list(raw, "times")
    if len(set(times)) != len(times):
        raise ConfigError("'times' lists a time more than once")

    outputs = raw.get("outputs", ["density"])
    if not isinstance(outputs, list) or not outputs or not all(isinstance(name, str) for name in outputs):
        raise ConfigError("'outputs' must be a non-empty list of field names")
    unknown_fields = set(outputs) - set(FIELD_SAMPLERS)
    if unknown_fields:
        raise ConfigError(
            f"unknown outputs {sorted(unknown_fields)}; supported: {sorted(FIELD_SAMPLERS)}"
        )

    v_source = raw.get("v_source", "hj_closure")
    if v_source not in V_SOURCES:
        raise ConfigError(f"v_source must be one of {V_SOURCES}, got {v_source!r}")

    tolerances = _object(raw.get("tolerances", {}), "tolerances", tuple(DEFAULT_TOLERANCES))
    tolerances = {key: _positive_tolerance(value, f"tolerance '{key}'") for key, value in tolerances.items()}

    return RunConfig(
        scenario=scenario,
        grid=grid,
        times=tuple(times),
        out_dir=_out_dir(raw, out_override),
        outputs=tuple(outputs),
        v_source=v_source,
        tolerances=tolerances,
        grid_n=grid_n,
    )


def _out_dir(raw: dict, out_override: str | None) -> Path:
    """``--out`` if given, else the config's ``out_dir``; either must be a non-empty path."""
    what, out_dir = ("'out_dir'", raw.get("out_dir", "out")) if out_override is None else ("--out", out_override)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"{what} must be a non-empty path string, got {out_dir!r}")
    return Path(out_dir)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _time_tag(t: float) -> str:
    """Short tag for file names, distinct for distinct times: ``:g`` if it reads back as t."""
    short = f"{t:g}"
    return short if float(short) == t else repr(t)


def _write_field_csv(fh, field2d) -> None:
    """Write x,y,value rows to a text stream, x varying fastest within each y block.

    Each distinct value is formatted once, values told apart by their bits
    so that 0 and -0 keep their own text; each x is formatted once per
    grid and each y once per block, and a block goes out in one write.
    """
    xs = [_fmt(x) + "," for x in field2d.grid.xs().tolist()]
    bits, inverse = np.unique(field2d.values.T.ravel().view(np.int64), return_inverse=True)
    text = np.array([_fmt(v) + "\n" for v in bits.view(np.float64).tolist()], dtype=object)
    fh.write("x,y,value\n")
    for yv, col in zip(field2d.grid.ys().tolist(), text[inverse.reshape(field2d.grid.ny, -1)].tolist()):
        y = _fmt(yv) + ","
        fh.write("".join([x + y + v for x, v in zip(xs, col)]))


def _write_json(path: Path, payload: dict) -> None:
    # one line: without indent, json's C encoder writes it.  A record (a
    # dataclass) is written as its fields: its __dict__ holds exactly those
    path.write_text(json.dumps(payload, sort_keys=True, default=vars) + "\n")


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

    grids = [cfg.grid] * len(cfg.times) if cfg.grid is not None else verify.residual_grid(s, cfg.times)
    for t, grid in zip(cfg.times, grids):
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
                "reports": reports,
                "normalization": norm,
                "var_plus": var_plus,
                "var_minus": var_minus,
                "var_minus_expected": var_minus_expected,
                "variance_product_expected": product_expected,
            }
        )

    payload = {
        "scenario": s,
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
    tolerance: float = FOCK_TOLERANCE,
) -> Path:
    """Factorization distances, vacuum-column errors and function-system
    deviations per squeeze value, on the interior block of level n_max // 2.

    Both Fock routes compute only that block of the truncation's operator
    (their ``level``), so no array the size of a whole operator is built
    per squeeze value.

    Entries whose interior distance exceeds ``tolerance`` are flagged, not
    failed: at fixed truncation the distance is dominated by reflection off
    the truncation edge and grows steeply with nu (see fockalg docstring).
    A squeeze value whose exponentials do not converge gets an ``error``
    message instead of their measurements; one whose ODE oracle does not
    converge gets an ``ode_error`` message instead of ``ode_max_dev``.
    Squeeze values that share an oracle step are integrated in one call
    (see ``fockalg.disentangle_ode_oracle``).
    """
    spec = FockSpaceSpec(n_max)
    out_dir.mkdir(parents=True, exist_ok=True)
    half = n_max // 2

    steps = [fockalg.ode_steps(nu) for nu in nu_values]
    groups: dict[str, list[int]] = {}
    for i, nu in enumerate(nu_values):
        groups.setdefault((nu / steps[i]).hex(), []).append(i)
    odes = {}
    for members in groups.values():
        longest = max(members, key=steps.__getitem__)
        results = fockalg.disentangle_ode_oracle(nu_values[longest], [steps[i] for i in members])
        odes.update(zip(members, results))

    entries = []
    for i, nu in enumerate(nu_values):
        entry: dict = {"nu": nu, "interior_level": half}
        try:
            entry.update(_fock_measurements(nu, spec, half, tolerance))
        except ConvergenceError as exc:
            entry["error"] = str(exc)
        ode = odes[i]
        if isinstance(ode, ConvergenceError):
            entry["ode_error"] = str(ode)
        else:
            closed = fockalg.disentangle_closed_form(nu)
            entry["ode_max_dev"] = max(abs(ode.f1 - closed.f1), abs(ode.f2 - closed.f2), abs(ode.f3 - closed.f3))
        entries.append(entry)

    out = out_dir / "fock_report.json"
    _write_json(out, {"n_max": n_max, "tolerance": tolerance, "entries": entries})
    return out


def _fock_measurements(nu: float, spec: FockSpaceSpec, half: int, tolerance: float) -> dict:
    """One entry's measurements, from both routes compressed to the interior of level ``half``."""
    direct = fockalg.two_mode_squeeze_direct(nu, spec, level=half)
    # both routes pad with the identity: the difference is zero off the block
    diff = fockalg.two_mode_squeeze_factored(nu, spec, level=half).entries
    diff -= direct.entries
    # in place, not a copy as large as the result; sector 0 has no padding
    distance = float(np.linalg.norm(diff)) / float(np.linalg.norm(fockalg.zero_padding(direct)))
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
        "vacuum_offdiag_max": float(np.abs(off).max()),
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


# built once per process: argparse keeps no state between parse_args calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bohm-squeeze",
        description="Sample and verify engineered two-mode squeezed vacuum-like states.",
    )
    # each subcommand takes only the flags it honours; argparse rejects the rest
    parser.set_defaults(grid_n=None, tol=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in [
        ("density", "write |psi|^2 grids as CSV", [("--grid-n", int, "override grid sample count per axis")]),
        (
            "verify",
            "write residual/normalization report",
            [("--tol", float, "override the stencil-residual tolerance (1e-4)")],
        ),
        (
            "fock",
            "write truncated-space factorization report",
            [("--tol", float, "flag threshold for the interior distance (1e-8)")],
        ),
        ("entropy", "write entanglement-entropy table", []),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        for flag, kind, flag_help in flags:
            p.add_argument(flag, type=kind, default=None, help=flag_help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tol = None if args.tol is None else _positive_tolerance(args.tol, "--tol")
        raw = _read_json_object(args.config, args.command)
        if args.command in ("density", "verify"):
            cfg = _run_config(raw, args.out, args.grid_n)
            if tol is not None:
                cfg.tolerances["residual_max"] = tol
            # on a huge extent a field overflows: the amplitude to its limit 0,
            # a potential or residual to inf or NaN, which their checks refuse
            with np.errstate(over="ignore", invalid="ignore"):
                if args.command == "density":
                    for p in run_density(cfg):
                        print(p)
                    return EXIT_OK
                out, failures = run_verify(cfg)
            print(out)
            for line in failures:
                print(line, file=sys.stderr)
            return EXIT_TOLERANCE if failures else EXIT_OK

        out_dir = _out_dir(raw, args.out)
        nu_values = _number_list(raw, "nu_values")
        if args.command == "fock":
            n_max = raw.get("n_max", 24)
            if isinstance(n_max, bool) or not isinstance(n_max, int) or not 1 <= n_max <= N_MAX_LIMIT:
                raise ConfigError(f"'n_max' must be an integer from 1 to {N_MAX_LIMIT}")
            print(run_fock(nu_values, n_max, out_dir, tolerance=tol or FOCK_TOLERANCE))
        else:
            print(run_entropy(nu_values, out_dir))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a grid too large to sample: nothing is written
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
