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
``verify.ResidualReport``) as its dataclass fields.  The checks are the
layers': ``verify.check_times`` runs a run's times and
``fockalg.check_squeezes`` every squeeze value's, each giving report
entries and (check, value, tolerance key) rows.  One rule here,
``_exceeding``, holds rows to a tolerance table: ``run_verify`` picks each
time's grid and turns the rows that exceed theirs into failure lines,
``run_fock`` into each entry's flag.

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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .closedform import (
    GridSpec2D,
    Scenario,
    auto_grid,
    sample_bohm,
    sample_density,
    sample_external,
)
from .timefns import TimePolynomial

# Each subcommand imports the layer it runs (verify, fockalg, spectral)
# when it runs, so a fresh process neither compiles nor executes the others.
if TYPE_CHECKING:
    from .verify import VSource

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

DEFAULT_TOLERANCES = {
    "residual_max": 1e-4,       # stencil residuals (schrodinger, continuity, bohm)
    "hj_max": 1e-9,             # analytic Hamilton-Jacobi closure
    "normalization": 1e-6,
    "variance": 1e-8,           # var(v) against exp(2(r-1) nu)/2, relative
    "variance_product": 1e-8,   # var(u) var(v) against exp(4 r nu)/4, relative
}
FOCK_TOLERANCE = 1e-8  # fock's flag threshold for either measurement of an entry

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


@dataclass(frozen=True)
class RunConfig:
    """One batch run, as ``_run_config`` parses it: scenario, grid choice, times, outputs, tolerances."""

    scenario: Scenario
    grid: GridSpec2D | None  # None = adaptive per-time grid
    times: tuple[float, ...]
    out_dir: Path
    outputs: tuple[str, ...]
    v_source: VSource
    tolerances: dict  # every key, defaults and --tol filled in
    grid_n: int | None  # overrides sample count, keeps extent

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
    """The JSON object in ``path``, holding only keys that ``command``'s config takes.

    The file is read as UTF-8; bytes that do not decode, malformed JSON and
    arrays or objects nested past the parser's recursion limit are refused.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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


def _integer(value: object, what: str) -> int:
    """A JSON number with an integral value (``24`` or ``24.0``) as an int; refuses 2.5, true and strings."""
    n = _number(value, what)
    if n != int(n):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(n)


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
    try:
        return GridSpec2D(
            *(_number(raw[key], key) for key in extents), nx=_integer(raw["nx"], "nx"), ny=_integer(raw["ny"], "ny")
        )
    except KeyError as exc:
        raise ConfigError(f"grid is missing required key {exc}") from None


def load_config(path: str | Path, *, out_override: str | None = None, grid_n: int | None = None) -> RunConfig:
    """Parse and validate a JSON density configuration."""
    return _run_config(_read_json_object(path, "density"), out_override, grid_n, None)


def _run_config(raw: dict, out_override: str | None, grid_n: int | None, tol: float | None) -> RunConfig:
    """A density or verify config whose top-level keys are already checked; ``tol`` is ``--tol``'s residual_max."""
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
    if len(set(outputs)) != len(outputs):
        raise ConfigError("'outputs' lists a field more than once")
    unknown_fields = set(outputs) - set(FIELD_SAMPLERS)
    if unknown_fields:
        raise ConfigError(
            f"unknown outputs {sorted(unknown_fields)}; supported: {sorted(FIELD_SAMPLERS)}"
        )

    v_source = raw.get("v_source", "closed_form")
    if "v_source" in raw:  # only a verify config takes one
        from . import verify

        if v_source not in verify.V_SOURCES:
            raise ConfigError(f"v_source must be one of {verify.V_SOURCES}, got {v_source!r}")

    tolerances = _object(raw.get("tolerances", {}), "tolerances", tuple(DEFAULT_TOLERANCES))
    tolerances = {key: _positive_tolerance(value, f"tolerance '{key}'") for key, value in tolerances.items()}
    if tol is not None:
        tolerances["residual_max"] = tol

    return RunConfig(
        scenario=scenario,
        grid=grid,
        times=tuple(times),
        out_dir=_out_dir(raw, out_override),
        outputs=tuple(outputs),
        v_source=v_source,
        tolerances={**DEFAULT_TOLERANCES, **tolerances},
        grid_n=grid_n,
    )


def _out_dir(raw: dict, out_override: str | None) -> Path:
    """``--out`` if given, else the config's ``out_dir``; either must be a non-empty path with no NUL character."""
    what, out_dir = ("'out_dir'", raw.get("out_dir", "out")) if out_override is None else ("--out", out_override)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"{what} must be a non-empty path string, got {out_dir!r}")
    if "\0" in out_dir:  # no file system takes one; refused before anything runs
        raise ConfigError(f"{what} holds a NUL character: {out_dir!r}")
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


def _write_report(path: Path, text: str) -> Path:
    """Write a whole report to ``path``, creating its directory; lines end in \\n on every platform."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="\n")
    return path


def _write_json(path: Path, payload: dict) -> Path:
    # one line: without indent, json's C encoder writes it.  A record (a
    # dataclass) is written as its fields: its __dict__ holds exactly those
    return _write_report(path, json.dumps(payload, sort_keys=True, default=vars) + "\n")


def _exceeding(rows: Sequence[tuple[str, float, str]], tolerances: dict) -> list[tuple[str, float, float]]:
    """(check, value, tolerance) of each (check, value, tolerance key) row whose value exceeds its tolerance."""
    return [(name, value, tolerances[key]) for name, value, key in rows if value > tolerances[key]]


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
    list is empty when every check passes.  The run is one record of the
    config's times: one ``verify.residual_grid`` call sizes every time's
    grid for residual_max (an explicit grid serves every time), and one
    ``verify.check_times`` call runs every check.  A run that fails does
    so at its first failing time in config order: the times are then run
    one at a time, and the first that fails alone names the error.
    """
    from . import verify

    tol = cfg.tolerances

    def check(times: Sequence[float]) -> list:
        now = cfg.scenario.at(np.array(times))
        grids = cfg.grid if cfg.grid is not None else verify.residual_grid(now, tol["residual_max"])
        return verify.check_times(now, grids, cfg.v_source)

    try:
        checked = check(cfg.times)
    except ValueError:
        for t in cfg.times:
            check([t])
        raise
    entries, failures = [], []
    for t, (entry, rows) in zip(cfg.times, checked):
        entries.append(entry)
        failures += [
            f"tolerance violation: {name} at t = {_time_tag(t)}: {value:.3e} > {limit:.3e}"
            for name, value, limit in _exceeding(rows, tol)
        ]

    payload = {
        "scenario": cfg.scenario,
        "v_source": cfg.v_source,
        "tolerances": tol,
        "results": entries,
        "pass": not failures,
    }
    return _write_json(cfg.out_dir / "residuals.json", payload), failures


def run_fock(
    nu_values: Sequence[float],
    n_max: int,
    out_dir: Path,
    *,
    tolerance: float = FOCK_TOLERANCE,
) -> Path:
    """Each squeeze value's ``fockalg.check_squeezes`` entry, flagged where a row exceeds ``tolerance``.

    An entry is flagged, not failed, where its interior distance or its
    vacuum-column error exceeds ``tolerance``: at fixed truncation the
    distance is dominated by reflection off the truncation edge and grows
    steeply with nu (see fockalg docstring).  An entry whose routes did
    not converge has no rows and no flag.
    """
    from . import fockalg

    checks = fockalg.check_squeezes(nu_values, n_max)
    for entry, rows in checks:
        if rows:
            entry["flagged"] = bool(_exceeding(rows, {"tolerance": tolerance}))
    payload = {"n_max": n_max, "tolerance": tolerance, "entries": [entry for entry, _ in checks]}
    return _write_json(out_dir / "fock_report.json", payload)


def run_entropy(nu_values: Sequence[float], out_dir: Path) -> Path:
    """entropy.csv with summed and closed-form entropies per squeeze value; no file if one fails.

    Each value sums the Schmidt terms ``spectral.entropy_terms`` counts,
    which holds the entropy they leave out to its tolerance; past its cap
    it refuses the value, naming the cap's reach.
    """
    from . import spectral

    rows = ["nu,entropy_sum,entropy_closed,schmidt_lambda0\n"]
    for nu in nu_values:
        spec = spectral.schmidt_spectrum(nu, spectral.entropy_terms(nu))
        rows.append(
            f"{_fmt(nu)},{_fmt(spectral.entanglement_entropy(spec))},"
            f"{_fmt(spectral.entropy_closed_form(nu))},{_fmt(float(spec.lambdas[0]))}\n"
        )
    return _write_report(out_dir / "entropy.csv", "".join(rows))


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
            [("--tol", float, f"override the stencil-residual tolerance ({DEFAULT_TOLERANCES['residual_max']:g})")],
        ),
        (
            "fock",
            "write truncated-space factorization report",
            [("--tol", float, f"flag threshold for either measurement, distance or vacuum error ({FOCK_TOLERANCE:g})")],
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
            cfg = _run_config(raw, args.out, args.grid_n, tol)
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
            from . import fockalg

            n_max = _integer(raw.get("n_max", 24), "'n_max'")
            if not 1 <= n_max <= fockalg.N_MAX_LIMIT:
                raise ConfigError(f"'n_max' must be an integer from 1 to {fockalg.N_MAX_LIMIT}")
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
