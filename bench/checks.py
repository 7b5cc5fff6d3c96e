"""Reference checks for what one benchmark op wrote.

Each check reads the files an op reported, compares them with references
that do not go through the code path under test, and raises CheckFailed on
a mismatch.  Tolerances admit rounding-level reordering of the arithmetic;
a wrong formula (for example the ``variant`` external potential) fails
them.  A check returns the op's deterministic counts, which the harness
requires to repeat exactly from op to op.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from bohm_squeeze import spectral


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value: float, ref: float, *, rtol: float, atol: float, what: str) -> None:
    _require(
        math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref),
        f"{what}: {value!r} against reference {ref!r}",
    )


def _nu(scenario: dict, t: float) -> float:
    return sum(c * t**k for k, c in enumerate(scenario["nu"]["coeffs"]))


# ---------------------------------------------------------------------------
# density: |psi|^2 on the configured grid against the Mehler kernel


def check_density(config: dict, paths: list[Path]) -> dict:
    """One CSV per configured time, each |mehler_closed(x, y, tanh nu)|^2.

    The Mehler kernel is the spectral route to the r = 0 amplitude, so the
    reference holds only for r = 0 and a zero mu schedule.
    """
    scenario, grid, times = config["scenario"], config["grid"], config["times"]
    _require(
        scenario["r"] == 0.0 and not any(scenario.get("mu", {"coeffs": [0.0]})["coeffs"]),
        "density reference needs r = 0 and mu = 0",
    )
    _require(len(paths) == len(times), f"{len(paths)} files for {len(times)} times")
    nx, ny = grid["nx"], grid["ny"]
    xs = np.linspace(grid["x_min"], grid["x_max"], nx)
    ys = np.linspace(grid["y_min"], grid["y_max"], ny)
    x_ref, y_ref = np.tile(xs, ny), np.repeat(ys, nx)  # x varies fastest
    spacing_tol = 1e-12 * max(grid["x_max"] - grid["x_min"], grid["y_max"] - grid["y_min"])
    for path, t in zip(paths, times):
        with path.open() as fh:
            _require(fh.readline().strip() == "x,y,value", f"{path.name}: bad header")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        _require(table.shape == (nx * ny, 3), f"{path.name}: shape {table.shape}, want {(nx * ny, 3)}")
        x, y, value = table.T
        _require(np.max(np.abs(x - x_ref)) <= spacing_tol, f"{path.name}: x column off the grid")
        _require(np.max(np.abs(y - y_ref)) <= spacing_tol, f"{path.name}: y column off the grid")
        ref = spectral.mehler_closed(x, y, math.tanh(_nu(scenario, t))) ** 2
        err = np.abs(value - ref)
        bound = 1e-12 * float(ref.max()) + 1e-9 * np.abs(ref)
        worst = int(np.argmax(err - bound))
        _require(
            bool(np.all(err <= bound)),
            f"{path.name}: value {float(value[worst])!r} against kernel {float(ref[worst])!r}"
            f" at ({x[worst]}, {y[worst]})",
        )
    return {}


# ---------------------------------------------------------------------------
# verify: residuals.json against the exact moments


# The program's default tolerances, restated so a changed default shows.
RESIDUAL_MAX = 1e-4
HJ_MAX = 1e-9
MOMENT_RTOL = 1e-9


def check_verify(config: dict, paths: list[Path]) -> dict:
    """``pass`` true, unit norm, exact squeezed variance; counts violations."""
    _require(len(paths) == 1, f"expected one report, got {len(paths)}")
    report = json.loads(paths[0].read_text())
    scenario, r = config["scenario"], config["scenario"]["r"]
    tol = report["tolerances"]
    results = report["results"]
    _require([e["t"] for e in results] == config["times"], "report times differ from the config")
    violations = 0
    for entry in results:
        t = entry["t"]
        nu = _nu(scenario, t)
        _require(len(entry["reports"]) == 4, f"t={t}: {len(entry['reports'])} residual reports, want 4")
        for rep in entry["reports"]:
            limit = HJ_MAX if rep["equation"] == "hamilton_jacobi" else RESIDUAL_MAX
            residual = rep["max_abs_residual"]
            _require(residual <= limit, f"t={t}: {rep['equation']} residual {residual!r}")
            own = tol["hj_max"] if rep["equation"] == "hamilton_jacobi" else tol["residual_max"]
            violations += residual > own
        _close(entry["normalization"], 1.0, rtol=0.0, atol=MOMENT_RTOL, what=f"t={t}: normalization")
        var_minus = math.exp(2.0 * (r - 1.0) * nu) / 2.0
        _close(entry["var_minus"], var_minus, rtol=MOMENT_RTOL, atol=0.0, what=f"t={t}: var_minus")
        product = entry["var_plus"] * entry["var_minus"]
        _close(product, math.exp(4.0 * r * nu) / 4.0, rtol=MOMENT_RTOL, atol=0.0, what=f"t={t}: variance product")
        violations += abs(entry["normalization"] - 1.0) > tol["normalization"]
        violations += abs(entry["var_minus"] - entry["var_minus_expected"]) > tol["variance"]
        violations += abs(product - entry["variance_product_expected"]) > tol["variance_product"]
    _require(report["pass"] is True, "report says pass = false")
    return {"verify.violations": violations}


# ---------------------------------------------------------------------------
# fock: fock_report.json against the exact vacuum column and recorded distances


# Criterion-1 interior factorization distances at n_max = 24, recorded from
# the seed program.  They are truncation artefacts, not physics, so a
# change of algorithm must reproduce them, not improve them silently.
SEED_DISTANCES = {
    0.1: 1.4431192011246804e-15,
    0.25: 2.7975255040289645e-11,
    0.5: 0.00018004671805797932,
    0.75: 0.09806394923842636,
    1.0: 0.4900019795797111,
}


def check_fock(config: dict, paths: list[Path]) -> dict:
    """Vacuum column, ODE oracle and recorded distances; counts flags."""
    _require(len(paths) == 1, f"expected one report, got {len(paths)}")
    report = json.loads(paths[0].read_text())
    _require(report["n_max"] == config["n_max"], "report n_max differs from the config")
    entries = report["entries"]
    _require([e["nu"] for e in entries] == config["nu_values"], "report nu values differ from the config")
    flagged = 0
    for e in entries:
        nu = e["nu"]
        _require("error" not in e, f"nu={nu}: {e.get('error')}")
        # max |<n,n|U|0,0> - tanh^n nu / cosh nu| on the interior block;
        # truncation puts it at 1.4e-6 for nu = 1.
        vac_err = e["vacuum_column_max_err"]
        _require(vac_err <= 1e-5, f"nu={nu}: vacuum column off tanh^n/cosh by {vac_err!r}")
        _require(e["vacuum_offdiag_max"] <= 1e-12, f"nu={nu}: vacuum column has off-diagonal weight")
        _require(e["ode_max_dev"] <= 1e-12, f"nu={nu}: ODE oracle off the closed form by {e['ode_max_dev']!r}")
        if nu in SEED_DISTANCES:
            _close(
                e["factorization_interior_rel"],
                SEED_DISTANCES[nu],
                rtol=1e-6,
                atol=1e-12,
                what=f"nu={nu}: factorization distance",
            )
        flagged += bool(e["flagged"])
    return {"fockalg.flagged": flagged}


def check_entropy(config: dict, paths: list[Path]) -> dict:
    """Summed entropy against the closed form, lambda_0 against 1/cosh^2."""
    _require(len(paths) == 1, f"expected one table, got {len(paths)}")
    lines = paths[0].read_text().splitlines()
    _require(lines[0] == "nu,entropy_sum,entropy_closed,schmidt_lambda0", "entropy.csv: bad header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    _require([row[0] for row in rows] == config["nu_values"], "entropy.csv: nu values differ from the config")
    for nu, summed, closed, lam0 in rows:
        exact = spectral.entropy_closed_form(nu)
        _close(summed, exact, rtol=1e-12, atol=1e-14, what=f"nu={nu}: summed entropy")
        _close(closed, exact, rtol=1e-12, atol=1e-14, what=f"nu={nu}: closed entropy")
        _close(lam0, 1.0 / math.cosh(nu) ** 2, rtol=1e-12, atol=0.0, what=f"nu={nu}: schmidt_lambda0")
    return {}


CHECKS = {
    "density": check_density,
    "verify": check_verify,
    "fock": check_fock,
    "entropy": check_entropy,
}
