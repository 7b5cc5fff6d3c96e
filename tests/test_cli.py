import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bohm_squeeze import cli, fockalg, verify
from bohm_squeeze import closedform as cf
from bohm_squeeze import Scenario, TimePolynomial
from bohm_squeeze.closedform import GridSpec2D, ScalarField2D

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def small_density_config(tmp_path: Path, **overrides) -> Path:
    payload = {
        "scenario": {"m": 1.0, "r": 0.0, "nu": {"coeffs": [0, 1]}, "mu": {"coeffs": [0]}},
        "grid": {"x_min": -3.0, "x_max": 3.0, "y_min": -3.0, "y_max": 3.0, "nx": 41, "ny": 41},
        "times": [0.0, 0.5],
        "out_dir": str(tmp_path / "out"),
    }
    payload.update(overrides)
    return write_config(tmp_path, "cfg.json", payload)


def load_verify_config(path: Path) -> cli.RunConfig:
    """A verify config, read as ``main`` reads it."""
    return cli._run_config(cli._read_json_object(path, "verify"), None, None)


def read_field_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    vals = data[:, 2].reshape(len(ys), len(xs)).T  # file iterates x fastest
    return xs, ys, vals


# ---------------------------------------------------------------------------
# config loading


def test_load_shipped_configs():
    for name in ["fig1.json", "fig2.json", "verify_example1.json"]:
        cfg = cli.load_config(CONFIG_DIR / name)
        assert cfg.times
        assert cfg.scenario.m == 1.0


def test_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError, match="cannot read"):
        cli.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cli.ConfigError, match="valid JSON"):
        cli.load_config(bad)
    with pytest.raises(cli.ConfigError, match="times"):
        cli.load_config(small_density_config(tmp_path, times=[]))
    with pytest.raises(cli.ConfigError, match="scenario"):
        cli.load_config(small_density_config(tmp_path, scenario={"m": -1}))
    with pytest.raises(cli.ConfigError, match="v_source must be one of"):
        load_verify_config(small_density_config(tmp_path, v_source="bogus"))
    with pytest.raises(cli.ConfigError, match="tolerances has unknown key 'nope'"):
        load_verify_config(small_density_config(tmp_path, tolerances={"nope": 1.0}))
    with pytest.raises(cli.ConfigError, match="out_dir"):
        cli.load_config(small_density_config(tmp_path, out_dir=5))
    with pytest.raises(cli.ConfigError, match="outputs"):
        cli.load_config(small_density_config(tmp_path, outputs=[["density"]]))


def test_grid_n_override(tmp_path):
    cfg = cli.load_config(small_density_config(tmp_path), grid_n=21)
    g = cfg.grid_for(0.5)
    assert g.nx == 21 and g.ny == 21
    assert g.x_min == -3.0 and g.x_max == 3.0  # extent untouched
    auto_cfg = cli.load_config(small_density_config(tmp_path, grid="auto"), grid_n=101)
    assert auto_cfg.grid_for(0.5).nx == 101
    with pytest.raises(cli.ConfigError, match="odd"):
        cli.load_config(small_density_config(tmp_path), grid_n=20)


# ---------------------------------------------------------------------------
# density


def test_density_initial_slice_is_isotropic_gaussian(tmp_path):
    cfg = cli.load_config(small_density_config(tmp_path))
    paths = cli.run_density(cfg)
    assert [p.name for p in paths] == ["density_t0.csv", "density_t0.5.csv"]
    xs, ys, vals = read_field_csv(paths[0])
    x, y = np.meshgrid(xs, ys, indexing="ij")
    np.testing.assert_allclose(vals, np.exp(-(x**2 + y**2)) / math.pi, rtol=1e-12, atol=1e-300)


def test_density_output_is_deterministic(tmp_path):
    cfg = cli.load_config(small_density_config(tmp_path))
    first = cli.run_density(cfg)[0].read_bytes()
    second = cli.run_density(cfg)[0].read_bytes()
    assert first == second


def test_field_csv_bytes_match_per_value_format():
    # nx != ny, so a transposed loop would reorder or reshape the rows
    grid = GridSpec2D(-1.0, 1.0, 0.0, 0.3, 3, 4)
    values = np.arange(12.0).reshape(3, 4) / 3.0 - 1e-300 * np.arange(12).reshape(3, 4)
    field2d = ScalarField2D(grid, 0.0, values)
    out = io.StringIO()
    cli._write_field_csv(out, field2d)
    expected = "x,y,value\n" + "".join(
        f"{x:.17g},{y:.17g},{values[ix, iy]:.17g}\n"
        for iy, y in enumerate(grid.ys())
        for ix, x in enumerate(grid.xs())
    )
    assert out.getvalue() == expected
    assert out.getvalue().splitlines()[1:3] == ["-1,0,0", "0,0,1.3333333333333333"]


def test_field_csv_formats_repeated_values_and_signed_zeros_apart():
    # each distinct value is formatted once: repeats share its text, and
    # 0 and -0, equal as numbers, keep their own
    grid = GridSpec2D(-1.0, 1.0, 0.0, 1.0, 3, 3)
    values = np.array([[0.0, -0.0, 0.1], [-0.0, 0.1, 0.0], [0.1, 0.0, -0.0]])
    out = io.StringIO()
    cli._write_field_csv(out, ScalarField2D(grid, 0.0, values))
    column = [row.rsplit(",", 1)[1] for row in out.getvalue().splitlines()[1:]]
    assert column == [f"{values[ix, iy]:.17g}" for iy in range(3) for ix in range(3)]
    assert column.count("-0") == 3 and column.count("0") == 3


def test_density_auto_grid_normalizes(tmp_path):
    cfg = cli.load_config(small_density_config(tmp_path, grid="auto", times=[0.0, 0.5, 1.0]))
    for path in cli.run_density(cfg):
        xs, ys, vals = read_field_csv(path)
        grid = GridSpec2D(xs[0], xs[-1], ys[0], ys[-1], len(xs), len(ys))
        assert verify.simpson2d(vals, grid) == pytest.approx(1.0, abs=1e-4)


def test_potential_field_outputs(tmp_path):
    cfg = cli.load_config(
        small_density_config(
            tmp_path,
            times=[0.5],
            outputs=["density", "bohm_potential", "external_potential"],
        )
    )
    paths = cli.run_density(cfg)
    names = sorted(p.name for p in paths)
    assert names == ["bohm_potential_t0.5.csv", "density_t0.5.csv", "external_potential_t0.5.csv"]
    xs, ys, vb = read_field_csv([p for p in paths if p.name.startswith("bohm")][0])
    from bohm_squeeze import bohm_potential

    x, y = np.meshgrid(xs, ys, indexing="ij")
    np.testing.assert_allclose(vb, bohm_potential(cfg.scenario, x, y, 0.5), rtol=1e-12)


def test_unknown_output_rejected(tmp_path):
    with pytest.raises(cli.ConfigError, match="unknown outputs"):
        cli.load_config(small_density_config(tmp_path, outputs=["wigner"]))


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_for_example1(tmp_path):
    cfg = cli.load_config(small_density_config(tmp_path, grid="auto", times=[0.25, 0.5]))
    out, failures = cli.run_verify(cfg)
    assert failures == []
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert {r["equation"] for r in payload["results"][0]["reports"]} == {
        "schrodinger",
        "continuity",
        "hamilton_jacobi",
        "bohm_definition",
    }
    assert payload["results"][0]["normalization"] == pytest.approx(1.0, abs=1e-6)


def test_verify_report_is_deterministic(tmp_path):
    cfg = cli.load_config(small_density_config(tmp_path, grid="auto", times=[0.5]))
    first = cli.run_verify(cfg)[0].read_bytes()
    second = cli.run_verify(cfg)[0].read_bytes()
    assert first == second


def test_verify_example2_config():
    cfg = cli.load_config(CONFIG_DIR / "verify_example2.json")
    assert cfg.scenario.r == 1.0
    assert cfg.grid is None


def test_verify_flags_variant_source(tmp_path):
    cfg = load_verify_config(small_density_config(tmp_path, grid="auto", times=[0.5], v_source="variant"))
    out, failures = cli.run_verify(cfg)
    assert failures
    payload = json.loads(out.read_text())
    hj = [r for r in payload["results"][0]["reports"] if r["equation"] == "hamilton_jacobi"][0]
    assert hj["max_abs_residual"] > 1.0


def fig2_verify_config(tmp_path: Path, **overrides) -> Path:
    payload = {**json.loads((CONFIG_DIR / "fig2.json").read_text()), "grid": "auto", "out_dir": str(tmp_path / "out")}
    payload.update(overrides)
    return write_config(tmp_path, "fig2_verify.json", payload)


def test_verify_variance_tolerances_are_relative(tmp_path, capsys):
    # fig2's scenario at its own times: var(u) var(v) reaches e^36/4 ~ 1e15,
    # so only a bound relative to the expected value can hold it
    assert cli.main(["verify", "--config", str(fig2_verify_config(tmp_path))]) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert report["tolerances"]["variance"] == report["tolerances"]["variance_product"] == 1e-8
    errors = {"variance": 0.0, "variance_product": 0.0}
    for e in report["results"]:
        product = e["var_plus"] * e["var_minus"]
        errors["variance"] = max(errors["variance"], abs(e["var_minus"] / e["var_minus_expected"] - 1))
        errors["variance_product"] = max(errors["variance_product"], abs(product / e["variance_product_expected"] - 1))
        assert e["normalization"] == pytest.approx(1.0, rel=1e-12, abs=0)
    assert 0.0 < max(errors.values()) < 1e-12
    # a relative bound below the measured error trips the check
    for key, err in errors.items():
        capsys.readouterr()
        cfg = fig2_verify_config(tmp_path, tolerances={key: err / 2}, out_dir=str(tmp_path / key))
        assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_TOLERANCE
        assert json.loads((tmp_path / key / "residuals.json").read_text())["pass"] is False


@pytest.mark.parametrize(
    "command, flags, tolerances",
    [
        ("verify", ["--tol", "nan"], None),
        ("verify", ["--tol", "-1"], None),
        ("verify", ["--tol", "0"], None),
        ("verify", [], {"normalization": True}),
        ("verify", [], {"variance": float("nan")}),
        ("verify", [], {"hj_max": -1e-9}),
        ("fock", ["--tol", "nan"], None),
        ("fock", ["--tol", "-1"], None),
    ],
)
def test_main_rejects_non_positive_tolerances(tmp_path, capsys, command, flags, tolerances):
    if command == "verify":
        extra = {} if tolerances is None else {"tolerances": tolerances}
        cfg = small_density_config(tmp_path, grid="auto", times=[0.5], **extra)
    else:
        cfg = write_config(tmp_path, "f.json", {"nu_values": [0.5], "n_max": 4, "out_dir": str(tmp_path / "out")})
    assert cli.main([command, "--config", str(cfg), *flags]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "tol" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("density", {"times": [1.0, 100.0]}),
        ("verify", {"times": [0.5, 100.0], "grid": "auto"}),
        ("entropy", {"nu_values": [0.5, 3.0]}),
    ],
)
def test_failed_run_leaves_no_output(tmp_path, capsys, command, payload):
    # the first time or squeeze value succeeds, a later one fails
    if command == "entropy":
        cfg = write_config(tmp_path, "e.json", {**payload, "out_dir": str(tmp_path / "out")})
    else:
        cfg = small_density_config(tmp_path, **payload)
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_verify_without_feasible_grid_is_usage_error(tmp_path, capsys):
    # fig1's scenario at t = 4: even the smallest extent of the squeezed
    # axis misses its half of the stencil-error target on 201 points
    cfg = small_density_config(tmp_path, times=[1.0, 4.0], grid="auto")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no feasible extent at n = 201 for t = 4 on the v axis" in err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize(
    "times, message",
    [
        ([1.0, 4.0, 100.0], "no feasible extent at n = 201 for t = 4 on the v axis; raise n or target"),
        ([1.0, 100.0, 4.0], "|nu(t)| = 100 (|r nu| = 0) exceeds the supported range 50 at t = 100"),
    ],
)
def test_verify_reports_first_failing_time(tmp_path, capsys, times, message):
    # every auto grid is chosen in one search, and the first failing time
    # in config order still decides the error: t = 4 has no feasible
    # extent, t = 100 is out of nu's range
    cfg = small_density_config(tmp_path, times=times, grid="auto")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["auto", {"x_min": -3.0, "x_max": 3.0, "y_min": -3.0, "y_max": 3.0, "nx": 41, "ny": 41}])
def test_run_verify_chooses_grids_in_one_call(tmp_path, monkeypatch, grid):
    # one residual_grid call for all of an auto-grid config's times, through
    # the module attribute; none for an explicit grid
    calls = []
    choose = verify.residual_grid

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return choose(*args, **kwargs)

    monkeypatch.setattr(verify, "residual_grid", counted)
    cfg = cli.load_config(small_density_config(tmp_path, grid=grid, times=[0.25, 0.5, 1.0]))
    out, _ = cli.run_verify(cfg)
    if grid == "auto":
        assert calls == [((cfg.scenario, cfg.times), {})]
        reports = [e["reports"][0]["grid"] for e in json.loads(out.read_text())["results"]]
        assert reports == [vars(choose(cfg.scenario, t)) for t in cfg.times]
    else:
        assert calls == []

@pytest.mark.parametrize("config", ["fig1.json", "fig2.json"])
def test_verify_figure_scenarios_pass_with_auto_grids(tmp_path, capsys, config):
    # every figure time, fig1's t = 2 and 3 included, has a feasible grid
    # on the mode axes, and every check passes there
    payload = {**json.loads((CONFIG_DIR / config).read_text()), "grid": "auto", "out_dir": str(tmp_path / "out")}
    assert payload["times"] == [0.0, 1.0, 2.0, 3.0]
    cfg = write_config(tmp_path, "fig_verify.json", payload)
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert report["pass"] is True and [e["t"] for e in report["results"]] == payload["times"]


def test_verify_accepts_rectangular_grid_of_one_spacing(tmp_path):
    grid = {"x_min": -6.0, "x_max": 6.0, "y_min": -3.0, "y_max": 3.0, "nx": 601, "ny": 301}
    cfg = small_density_config(tmp_path, times=[0.0], grid=grid)
    # verify reads the grid's axes as u and v: at u = +-6 the
    # Bohm-definition stencil error is 1.8e-2 (3.5e-2 on the square +-6
    # grid), so the residual tolerance is raised
    assert cli.main(["verify", "--config", str(cfg), "--tol", "0.05"]) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert report["pass"] and report["results"][0]["reports"][0]["grid"] == grid


# ---------------------------------------------------------------------------
# fock / entropy reports


def test_fock_report_zero_squeeze(tmp_path):
    out = cli.run_fock([0.0], 8, tmp_path)
    payload = json.loads(out.read_text())
    entry = payload["entries"][0]
    assert entry["factorization_interior_rel"] == pytest.approx(0.0, abs=1e-14)
    assert entry["vacuum_column_max_err"] == pytest.approx(0.0, abs=1e-14)
    assert entry["flagged"] is False


def test_fock_report_flags_truncation_tail(tmp_path):
    out = cli.run_fock([0.1, 2.0], 16, tmp_path)
    payload = json.loads(out.read_text())
    by_nu = {e["nu"]: e for e in payload["entries"]}
    assert by_nu[0.1]["flagged"] is False
    assert by_nu[2.0]["flagged"] is True  # truncation tail reported, not an error
    assert by_nu[2.0]["ode_max_dev"] < 1e-8


def test_fock_n_max_limit_edge(tmp_path, capsys):
    limit = fockalg.N_MAX_LIMIT
    with pytest.raises(ValueError, match="exceeds"):
        cli.run_fock([0.5], limit + 1, tmp_path / "direct")
    assert not (tmp_path / "direct").exists()
    over = write_config(tmp_path, "over.json", {"nu_values": [0.5], "n_max": limit + 1, "out_dir": str(tmp_path)})
    assert cli.main(["fock", "--config", str(over)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(limit) in err
    # at the bound the config is accepted; the run then stops at an output
    # path that is a regular file, before any exponential is computed
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    at = write_config(tmp_path, "at.json", {"nu_values": [0.5], "n_max": limit, "out_dir": str(occupied)})
    assert cli.main(["fock", "--config", str(at)]) == cli.EXIT_IO
    assert "i/o failure" in capsys.readouterr().err


EXPONENTIAL_FIELDS = {"factorization_interior_rel", "vacuum_column_max_err", "vacuum_offdiag_max", "flagged"}


def test_fock_large_squeeze_reports_errors(tmp_path, capsys):
    # nu = 800 overflowed cosh; its ODE oracle does not converge but its
    # exponentials do, and the 1e200 exponential does not: the report
    # records each failure per entry and keeps what was measured
    cfg = write_config(tmp_path, "f.json", {"nu_values": [0.5, 800, 1e200], "n_max": 4, "out_dir": str(tmp_path)})
    assert cli.main(["fock", "--config", str(cfg)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    entries = json.loads((tmp_path / "fock_report.json").read_text())["entries"]
    assert "error" not in entries[0] and "ode_error" not in entries[0]
    assert "error" not in entries[1] and EXPONENTIAL_FIELDS <= entries[1].keys()
    assert "local error" in entries[1]["ode_error"] and "ode_max_dev" not in entries[1]
    assert "1-norm" in entries[2]["error"] and not EXPONENTIAL_FIELDS & entries[2].keys()


@pytest.mark.parametrize("nu", [2e4, 1e5])
def test_fock_overflowing_ode_stage_reports_error(tmp_path, capsys, nu):
    # an oracle stage exponential overflows past |nu| ~ 9.1e3 (math.exp raised
    # OverflowError and the run exited 1 with a traceback); the exponentials'
    # measurements stay in the entry
    cfg = write_config(tmp_path, "f.json", {"nu_values": [nu], "n_max": 4, "out_dir": str(tmp_path)})
    assert cli.main(["fock", "--config", str(cfg)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    (entry,) = json.loads((tmp_path / "fock_report.json").read_text())["entries"]
    assert "overflows" in entry["ode_error"]
    assert "error" not in entry and EXPONENTIAL_FIELDS <= entry.keys()


def test_fock_ode_failure_keeps_factorization_distance(tmp_path):
    # 2000 steps of 0.075 miss the oracle's local bound at nu = 150 (the
    # capped step count holds it up to |nu| ~ 106.67); the direct/factored
    # comparison does not depend on the oracle and stays
    (entry,) = json.loads(cli.run_fock([150.0], 4, tmp_path).read_text())["entries"]
    assert "local error" in entry["ode_error"]
    assert "error" not in entry and "ode_max_dev" not in entry
    assert EXPONENTIAL_FIELDS <= entry.keys()
    assert entry["vacuum_offdiag_max"] == 0.0


@pytest.mark.parametrize("nu", [1e11, 1e16, 1e18])
def test_fock_squeeze_past_phase_precision_reports_error(tmp_path, capsys, nu):
    # past |nu| ~ 4.5e9 at n_max = 4 the direct route's predicted
    # orthogonality defect passes its bound: an error entry, with no numpy
    # warning
    cfg = write_config(tmp_path, "f.json", {"nu_values": [nu], "n_max": 4, "out_dir": str(tmp_path)})
    assert cli.main(["fock", "--config", str(cfg)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    (entry,) = json.loads((tmp_path / "fock_report.json").read_text())["entries"]
    assert "1-norm" in entry["error"]
    assert "ode_error" in entry


@settings(deadline=None, max_examples=40)
@given(nu=st.floats(allow_nan=False, allow_infinity=False))
def test_fock_report_is_strict_json(tmp_path_factory, nu):
    # every finite nu gives measurements or an error entry, never NaN or Infinity
    out = cli.run_fock([nu], 2, tmp_path_factory.mktemp("fock"))
    text = out.read_text()
    assert "NaN" not in text and "Infinity" not in text
    json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))


@settings(deadline=None, max_examples=30)
@given(
    n_max=st.integers(1, 6),
    nu_values=st.lists(
        st.one_of(
            st.floats(-3.0, 3.0),
            st.sampled_from([1e16, -1e16, 1e11, -150.0]),
            st.floats(allow_nan=False, allow_infinity=False),
            # values on a 5e-3 grid often share their oracle step
            st.integers(-2000, 2000).map(lambda k: k * 5e-3),
            st.sampled_from([0.0, -0.0]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_fock_entry_does_not_depend_on_other_nu(tmp_path_factory, n_max, nu_values):
    # the direct route's spectrum is computed once per truncation and reused
    # at every nu, and the ODE oracle integrates once per distinct step: each
    # entry equals the entry of a run of its nu alone, and each run makes one
    # eigendecomposition, also when the guard refuses every nu
    eigh, oracle = np.linalg.eigh, fockalg.disentangle_ode_oracle
    calls, oracle_calls = [], []

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    def counting_oracle(nu_end, steps, **kwargs):
        oracle_calls.append(nu_end)
        return oracle(nu_end, steps, **kwargs)

    # 0.0 and -0.0, and steps of opposite sign, are different steps
    distinct_steps = {(nu / fockalg.ode_steps(nu)).hex() for nu in nu_values}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", counting_eigh)
        mp.setattr(fockalg, "disentangle_ode_oracle", counting_oracle)
        out = cli.run_fock(nu_values, n_max, tmp_path_factory.mktemp("fock"))
        assert len(calls) == 1
        assert len(oracle_calls) == len(distinct_steps)
        entries = json.loads(out.read_text())["entries"]
        for k, (nu, entry) in enumerate(zip(nu_values, entries, strict=True)):
            (alone,) = json.loads(cli.run_fock([nu], n_max, tmp_path_factory.mktemp("fock")).read_text())["entries"]
            assert entry == alone
            assert len(calls) == k + 2
            assert len(oracle_calls) == len(distinct_steps) + k + 1


def test_fock_config_integrates_one_shared_pass(tmp_path, monkeypatch):
    # the five nu of configs/fock.json share the step 5e-3: one oracle call
    # of 200 steps, 1 + 6 * 200 stage exponentials, where one call per nu
    # took 520 steps (3,125 exponentials)
    config = json.loads((CONFIG_DIR / "fock.json").read_text())
    oracle, exp = fockalg.disentangle_ode_oracle, math.exp
    calls, exponentials = [], []

    def counting_oracle(nu_end, steps, **kwargs):
        calls.append((nu_end, list(steps)))
        return oracle(nu_end, steps, **kwargs)

    def counting_exp(x):
        exponentials.append(x)
        return exp(x)

    monkeypatch.setattr(fockalg, "disentangle_ode_oracle", counting_oracle)
    monkeypatch.setattr(math, "exp", counting_exp)
    out = cli.run_fock(config["nu_values"], config["n_max"], tmp_path)
    monkeypatch.undo()
    assert calls == [(1.0, [20, 50, 100, 150, 200])]
    assert len(exponentials) == 1 + 6 * 200
    assert all("ode_max_dev" in entry for entry in json.loads(out.read_text())["entries"])


def test_fock_allocates_per_nu_only_interior_operators(tmp_path, monkeypatch):
    # with the truncation's cached arrays built, each nu allocates the two
    # routes' level-40 operators and at most one chunk of each factor,
    # never an operator of the whole truncation (161 x 81^2 doubles, 8.4 MB)
    spec = fockalg.FockSpaceSpec(80)
    spec._pair_table, spec._spectrum
    monkeypatch.setattr(cli, "FockSpaceSpec", lambda n_max: spec)
    tracemalloc.start()
    try:
        cli.run_fock([0.25, 0.5, 1.0], 80, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full, interior = 8 * 161 * 81**2, 8 * 81 * 41**2
    assert peak < 2 * interior + 2 * fockalg.DIRECT_CHUNK_BYTES + 0.1 * full


def test_fock_interior_norm_makes_no_copy_of_the_result():
    # at n_max = 160 (level 80) each route's result is 161 x 81^2 doubles,
    # 8.4 MB; the interior norm zeroes the direct result's padding in place,
    # where a copy of the block would raise the peak to three results
    spec = fockalg.FockSpaceSpec(160)
    spec._pair_table, spec._spectrum
    cli._fock_measurements(0.5, spec, 80, 1e-8)
    tracemalloc.start()
    try:
        entry = cli._fock_measurements(0.5, spec, 80, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = 8 * 161 * 81**2
    assert peak < 2.5 * result
    # the same array contents as the zero-padded copy, so the same bits
    direct = fockalg.two_mode_squeeze_direct(0.5, spec, level=80)
    factored = fockalg.two_mode_squeeze_factored(0.5, spec, level=80)
    interior = fockalg.interior_block(direct, 80)
    expected = np.linalg.norm(fockalg.interior_block(factored, 80) - interior) / np.linalg.norm(interior)
    assert entry["factorization_interior_rel"] == expected


def test_zero_padding_is_the_interior_block_in_place():
    spec = fockalg.FockSpaceSpec(6)
    op = fockalg.two_mode_squeeze_direct(0.7, spec)
    block = fockalg.interior_block(op, 6)
    entries = op.entries
    assert fockalg.zero_padding(op) is entries
    assert np.array_equal(entries, block)
    assert not np.array_equal(entries, fockalg.two_mode_squeeze_direct(0.7, spec).entries)


@settings(deadline=None, max_examples=100)
@given(
    payload=st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1]),
            st.text(),
        ),
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
        max_leaves=20,
    )
)
def test_write_json_writes_one_line_of_strict_json(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "report.json"
    cli._write_json(path, {"payload": payload})
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    loaded = json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))

    def same(a, b):
        # float for float, by bits: 0.0 and -0.0 apart
        if isinstance(a, float):
            return isinstance(b, float) and a.hex() == b.hex()
        if isinstance(a, dict):
            return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
        if isinstance(a, list):
            return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
        return type(a) is type(b) and a == b

    assert same(loaded, {"payload": payload})


def test_entropy_table(tmp_path):
    out = cli.run_entropy([0.0, 0.5, 1.0, 1.5], tmp_path)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "nu,entropy_sum,entropy_closed,schmidt_lambda0"
    table = np.loadtxt(rows[1:], delimiter=",")
    assert table[0, 1] == 0.0 and table[0, 2] == 0.0 and table[0, 3] == 1.0
    np.testing.assert_allclose(table[:, 1], table[:, 2], atol=1e-9)
    assert np.all(np.diff(table[:, 1]) > 0)


def test_fock_overflowing_squeeze_reports_error(tmp_path, capsys):
    # nu * generator is inf at nu = 1e308: an error entry like nu = 1e200,
    # not an overflow warning and exit 1
    cfg = write_config(tmp_path, "f.json", {"nu_values": [0.5, 1e308], "n_max": 4, "out_dir": str(tmp_path)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fock", "--config", str(cfg)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    entries = json.loads((tmp_path / "fock_report.json").read_text())["entries"]
    alone = json.loads(cli.run_fock([0.5], 4, tmp_path / "alone").read_text())["entries"]
    assert entries[0] == alone[0]
    assert "1-norm" in entries[1]["error"]


def test_fock_imports_no_scipy(tmp_path):
    # scipy is a test-only reference; importing it would add about 20 MiB
    # to the resident size of every fock run
    script = (
        "import sys\n"
        "from bohm_squeeze import cli\n"
        f"code = cli.main(['fock', '--config', {str(CONFIG_DIR / 'fock.json')!r}, '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "fock_report.json").exists()


# ---------------------------------------------------------------------------
# entry point and exit codes


def test_parser_reused_within_a_process(tmp_path, capsys):
    # main builds its parser once per process: fock, a usage error, then
    # entropy in this process print, exit and write what fresh processes do
    calls = [
        ["fock", "--config", str(CONFIG_DIR / "fock.json"), "--out", str(tmp_path / "fock")],
        ["entropy", "--config", str(CONFIG_DIR / "entropy.json"), "--bogus", "1"],
        ["entropy", "--config", str(CONFIG_DIR / "entropy.json"), "--out", str(tmp_path / "entropy")],
    ]

    def written():
        return {p.relative_to(tmp_path): p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "bohm_squeeze.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        fresh.append((done.returncode, done.stdout, done.stderr, written()))
    assert [run[0] for run in fresh] == [cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_OK]
    for name in ["fock", "entropy"]:
        shutil.rmtree(tmp_path / name)

    assert cli._build_parser() is cli._build_parser()
    for argv, expected in zip(calls, fresh):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err, written()) == expected


def test_main_density_ok(tmp_path, capsys):
    cfg_path = small_density_config(tmp_path)
    assert cli.main(["density", "--config", str(cfg_path)]) == cli.EXIT_OK
    assert "density_t0.csv" in capsys.readouterr().out


def test_main_usage_error_on_empty_times(tmp_path, capsys):
    cfg_path = small_density_config(tmp_path, times=[])
    assert cli.main(["density", "--config", str(cfg_path)]) == cli.EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_main_verify_tolerance_violation(tmp_path, capsys):
    cfg_path = small_density_config(tmp_path, grid="auto", times=[0.5], v_source="variant")
    assert cli.main(["verify", "--config", str(cfg_path)]) == cli.EXIT_TOLERANCE
    assert "tolerance violation" in capsys.readouterr().err


def test_main_verify_names_each_failing_check(tmp_path, capsys):
    # the variant potential breaks exactly the two checks that use V, at
    # every time; each gets one stderr line with its value and limit
    cfg_path = small_density_config(tmp_path, grid="auto", times=[0.25, 0.5], v_source="variant")
    assert cli.main(["verify", "--config", str(cfg_path)]) == cli.EXIT_TOLERANCE
    lines = capsys.readouterr().err.splitlines()
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    expected = []
    for entry in report["results"]:
        for rep in entry["reports"]:
            limit = report["tolerances"]["hj_max" if rep["equation"] == "hamilton_jacobi" else "residual_max"]
            if rep["max_abs_residual"] > limit:
                expected.append(
                    f"tolerance violation: {rep['equation']} at t = {entry['t']:g}: "
                    f"{rep['max_abs_residual']:.3e} > {limit:.3e}"
                )
    assert len(expected) == 4 and {line.split()[2] for line in expected} == {"schrodinger", "hamilton_jacobi"}
    assert lines == expected
    # the report gains no key
    assert set(report) == {"scenario", "v_source", "tolerances", "results", "pass"}
    assert set(report["results"][0]) == {
        "t", "reports", "normalization", "var_plus", "var_minus", "var_minus_expected", "variance_product_expected",
    }


def test_main_verify_names_failing_moment_checks(tmp_path, capsys):
    cfg_path = small_density_config(
        tmp_path, grid="auto", times=[0.5], tolerances={"normalization": 1e-300, "variance_product": 1e-300}
    )
    assert cli.main(["verify", "--config", str(cfg_path)]) == cli.EXIT_TOLERANCE
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1].strip() for line in lines] == ["normalization at t = 0.5", "variance_product at t = 0.5"]
    assert all(line.endswith("> 1.000e-300") for line in lines)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--config", str(CONFIG_DIR / "verify_example1.json"), "--tol", "abc"], "invalid float value"),
        (["verify"], "required: --config"),
        (["bogus", "--config", str(CONFIG_DIR / "verify_example1.json")], "invalid choice: 'bogus'"),
        ([], "required: command"),
    ],
    ids=["tol-abc", "missing-config", "unknown-subcommand", "no-subcommand"],
)
def test_main_argument_errors_are_usage_errors(capsys, argv, message):
    # returned, not raised as argparse's SystemExit(2), which would read as
    # a tolerance violation
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("usage error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_main_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: bohm-squeeze" in capsys.readouterr().out


def test_main_verify_ok(tmp_path):
    cfg_path = small_density_config(tmp_path, grid="auto", times=[0.5])
    assert cli.main(["verify", "--config", str(cfg_path)]) == cli.EXIT_OK


def test_main_io_failure(tmp_path, capsys):
    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind for root")
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    cfg_path = small_density_config(tmp_path, out_dir=str(blocked / "sub"))
    assert cli.main(["density", "--config", str(cfg_path)]) == cli.EXIT_IO
    assert "i/o failure" in capsys.readouterr().err


def test_main_io_failure_via_file_collision(tmp_path, capsys):
    # out_dir path already exists as a regular file -> filesystem error
    collision = tmp_path / "occupied"
    collision.write_text("")
    cfg_path = small_density_config(tmp_path, out_dir=str(collision))
    assert cli.main(["density", "--config", str(cfg_path)]) == cli.EXIT_IO
    assert "i/o failure" in capsys.readouterr().err


def test_density_write_failure_removes_written_files(tmp_path, capsys):
    # the second time's output path is a directory: the first file is
    # written, the second open fails, and the run leaves no file behind
    cfg_path = small_density_config(tmp_path)
    (tmp_path / "out" / "density_t0.5.csv").mkdir(parents=True)
    assert cli.main(["density", "--config", str(cfg_path)]) == cli.EXIT_IO
    assert "i/o failure" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["density_t0.5.csv"]
    assert (tmp_path / "out" / "density_t0.5.csv").is_dir()


def test_main_fock_and_entropy(tmp_path, capsys):
    fock_cfg = write_config(tmp_path, "fock.json", {"nu_values": [0.1], "n_max": 8, "out_dir": str(tmp_path / "f")})
    assert cli.main(["fock", "--config", str(fock_cfg)]) == cli.EXIT_OK
    ent_cfg = write_config(tmp_path, "ent.json", {"nu_values": [0.0, 1.0], "out_dir": str(tmp_path / "e")})
    assert cli.main(["entropy", "--config", str(ent_cfg)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "fock_report.json" in out and "entropy.csv" in out


def test_entropy_config_rejects_n_max(tmp_path, capsys):
    # entropy sums a fixed number of Schmidt terms: an n_max would be ignored
    cfg = write_config(tmp_path, "e.json", {"nu_values": [0.5], "n_max": 60, "out_dir": str(tmp_path / "out")})
    assert cli.main(["entropy", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'n_max'" in err and "entropy" in err
    assert not (tmp_path / "out").exists()


def test_main_rejects_bad_nu_values(tmp_path, capsys):
    cfg = write_config(tmp_path, "f.json", {"nu_values": "x", "out_dir": str(tmp_path)})
    assert cli.main(["entropy", "--config", str(cfg)]) == cli.EXIT_USAGE
    assert "nu_values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("fock", {"nu_values": [0.5], "n_max": True}),
        ("fock", {"nu_values": [0.5, True], "n_max": 4}),
        ("entropy", {"nu_values": [False, 1.0]}),
    ],
)
def test_main_rejects_booleans_as_numbers(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "f.json", {**payload, "out_dir": str(tmp_path / "out")})
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# density and verify read out_dir through the scenario config (see the
# density-config cases above); fock and entropy read it in main
@pytest.mark.parametrize("command", ["fock", "entropy"])
@pytest.mark.parametrize("out_dir", [5, None])
def test_main_rejects_non_string_out_dir(tmp_path, capsys, monkeypatch, command, out_dir):
    payload = json.loads((CONFIG_DIR / SHIPPED_CONFIGS[command]).read_text())
    payload["out_dir"] = out_dir
    cfg = write_config(tmp_path, "cfg.json", payload)
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"config error: 'out_dir' must be a non-empty path string, got {out_dir!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("times", None, [True]),
        ("scenario", "m", True),
        ("scenario", "r", "0"),
        ("scenario", "nu", {"coeffs": [False, True]}),
        ("grid", "nx", 5.9),
        ("grid", "ny", "5"),
        ("out_dir", None, 5),
        ("outputs", None, [["density"]]),
        ("scenario", "mu", {"coeffs": [float("nan")]}),
    ],
)
def test_main_rejects_non_numbers_in_density_config(tmp_path, capsys, section, key, value):
    cfg = json.loads(small_density_config(tmp_path).read_text())
    if key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    path = write_config(tmp_path, "cfg.json", cfg)
    assert cli.main(["density", "--config", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and (key or section) in err
    assert not (tmp_path / "out").exists()


def test_time_tags_are_distinct_per_time(tmp_path, capsys):
    # the :g tag stays wherever it reads back as t, so shipped names keep
    assert [cli._time_tag(t) for t in [0.0, 1.0, 3.0, 0.25, 1e-7]] == ["0", "1", "3", "0.25", "1e-07"]
    grid = {"x_min": -3.0, "x_max": 3.0, "y_min": -3.0, "y_max": 3.0, "nx": 5, "ny": 5}
    close = small_density_config(tmp_path, times=[1.0000001, 1.0000002], grid=grid)
    assert cli.main(["density", "--config", str(close)]) == cli.EXIT_OK
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "density_t1.0000001.csv",
        "density_t1.0000002.csv",
    ]
    capsys.readouterr()
    repeated = small_density_config(tmp_path, times=[0.5, 0.5], out_dir=str(tmp_path / "rep"))
    assert cli.main(["density", "--config", str(repeated)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "times" in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("fock", ["--grid-n", "21"]),
        ("entropy", ["--grid-n", "21"]),
        ("entropy", ["--tol", "1e-3"]),
        ("density", ["--tol", "1e-3"]),
        ("verify", ["--grid-n", "21"]),
    ],
)
def test_main_rejects_unused_flags(tmp_path, capsys, command, flags):
    if command in ("density", "verify"):
        cfg = small_density_config(tmp_path)
    else:
        cfg = write_config(tmp_path, "f.json", {"nu_values": [0.5], "n_max": 4, "out_dir": str(tmp_path / "out")})
    assert cli.main([command, "--config", str(cfg), *flags]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"usage error: unrecognized arguments: {' '.join(flags)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, honoured",
    [("density", ["--grid-n"]), ("verify", ["--tol"]), ("fock", ["--tol"]), ("entropy", [])],
)
def test_subcommand_help_lists_only_its_flags(capsys, command, honoured):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    out = capsys.readouterr().out
    for flag in ["--grid-n", "--tol"]:
        assert (flag in out) == (flag in honoured)


SHIPPED_CONFIGS = {
    "density": "fig1.json",
    "verify": "verify_example1.json",
    "fock": "fock.json",
    "entropy": "entropy.json",
}


@st.composite
def config_with_unknown_key(draw, command):
    """A shipped config of ``command`` with one extra key or one key misspelled, and that key."""
    payload = json.loads((CONFIG_DIR / SHIPPED_CONFIGS[command]).read_text())
    if draw(st.booleans()):
        old = draw(st.sampled_from(sorted(payload)))
        # insert, replace or drop one character
        i, drop, char = draw(st.integers(0, len(old) - 1)), draw(st.integers(0, 1)), draw(st.text(max_size=1))
        key = old[:i] + char + old[i + drop :]
        value = payload.pop(old)
    else:
        key, value = draw(st.text(min_size=1, max_size=12)), draw(st.none() | st.integers() | st.text())
    assume(key not in cli.CONFIG_KEYS[command])
    payload[key] = value
    return payload, key


@pytest.mark.parametrize("command", sorted(SHIPPED_CONFIGS))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_main_rejects_unknown_config_keys(tmp_path_factory, command, data):
    payload, key = data.draw(config_with_unknown_key(command))
    tmp = tmp_path_factory.mktemp("keys")
    if "out_dir" in payload:
        payload["out_dir"] = str(tmp / "config_out")
    cfg = write_config(tmp, "cfg.json", payload)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp / "out")])
    err = err.getvalue()
    assert code == cli.EXIT_USAGE and out.getvalue() == ""
    assert err.count("\n") == 1 and repr(key) in err and command in err and "Traceback" not in err
    assert not (tmp / "out").exists() and not (tmp / "config_out").exists()


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ["density", "verify"])
@pytest.mark.parametrize(
    "path, key, named",
    [
        (["scenario"], "mass", "bad scenario: scenario has unknown key 'mass'"),
        (["scenario", "nu"], "coefs", "bad scenario: nu has unknown key 'coefs'"),
        (["scenario", "mu"], "coefs", "bad scenario: mu has unknown key 'coefs'"),
        (["grid"], "nz", "bad grid: grid has unknown key 'nz'"),
    ],
)
def test_main_rejects_unknown_nested_keys(tmp_path, command, path, key, named):
    # each nested object takes only its own keys, by the check the top level uses
    payload = json.loads(small_density_config(tmp_path).read_text())
    obj = payload
    for name in path:
        obj = obj[name]
    obj[key] = 1.0
    cfg = write_config(tmp_path, "cfg.json", payload)
    code, out, err = run_main([command, "--config", str(cfg)])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(f"config error: {named}; it takes ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("density", {"v_source": "variant"}, "density config has unknown key 'v_source'"),
        ("density", {"tolerances": {}}, "density config has unknown key 'tolerances'"),
        ("verify", {"outputs": ["density"]}, "verify config has unknown key 'outputs'"),
        (
            "verify",
            {"tolerances": {"fock_interior": 123}},
            "tolerances has unknown key 'fock_interior'; "
            "it takes residual_max, hj_max, normalization, variance, variance_product",
        ),
    ],
)
def test_each_scenario_subcommand_takes_its_own_keys(tmp_path, command, extra, message):
    # density and verify share scenario, grid, times and out_dir only
    cfg = small_density_config(tmp_path, grid="auto", times=[0.5], **extra)
    code, out, err = run_main([command, "--config", str(cfg)])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(SHIPPED_CONFIGS))
@pytest.mark.parametrize("where", ["--out", "out_dir"])
def test_main_rejects_empty_output_paths(tmp_path, monkeypatch, command, where):
    # an empty --out used to fall back to the config's out_dir, and an empty
    # out_dir to the working directory
    payload = json.loads((CONFIG_DIR / SHIPPED_CONFIGS[command]).read_text())
    payload["out_dir"] = "" if where == "out_dir" else str(tmp_path / "config_out")
    cfg = write_config(tmp_path, "cfg.json", payload)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main([command, "--config", str(cfg), *(["--out", ""] if where == "--out" else [])])
    what = "--out" if where == "--out" else "'out_dir'"
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"config error: {what} must be a non-empty path string, got ''\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["density", "verify"])
def test_main_reports_a_grid_too_large_for_memory(tmp_path, monkeypatch, command):
    # numpy raises MemoryError (its _ArrayMemoryError) for a grid of 10^6
    # points per axis; the sampler and the residual stand in for it here
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000001, 1000001)")

    monkeypatch.setitem(cli.FIELD_SAMPLERS, "density", too_large)
    monkeypatch.setattr(verify, "schrodinger_residual", too_large)
    code, out, err = run_main([command, "--config", str(small_density_config(tmp_path))])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "out of memory: Unable to allocate 7.28 TiB for an array with shape (1000001, 1000001)\n"
    assert not (tmp_path / "out").exists()


HUGE_GRID = {"x_min": -1e300, "x_max": 1e300, "y_min": -1e300, "y_max": 1e300, "nx": 5, "ny": 5}


@pytest.mark.parametrize(
    "command, config, outputs, message",
    [
        ("density", "fig1", ["density"], None),
        ("density", "fig1", ["density", "bohm_potential"], "field at t = 0.5 contains non-finite values"),
        ("density", "fig1", ["external_potential"], "field at t = 0.5 contains non-finite values"),
        ("verify", "verify_example1", None, "schrodinger residual at t = 0.5 must be finite and non-negative"),
    ],
    ids=["density", "bohm_potential", "external_potential", "verify"],
)
def test_main_on_a_huge_grid_extent(tmp_path, command, config, outputs, message):
    # on x, y = +-1e300 the fields' exponents overflow: the amplitude to its
    # exact limit 0, so density writes it; a potential or a residual is not
    # finite, and the run exits 1 with one line and no output.  No numpy
    # warning reaches stderr (warnings raise here)
    payload = {**json.loads((CONFIG_DIR / f"{config}.json").read_text()), "grid": HUGE_GRID, "times": [0.5]}
    if outputs is not None:
        payload["outputs"] = outputs
    cfg = write_config(tmp_path, "cfg.json", {**payload, "out_dir": str(tmp_path / "out")})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main([command, "--config", str(cfg)])
    if message is not None:
        assert (code, out, err) == (cli.EXIT_USAGE, "", f"invalid input: {message}\n")
        assert not (tmp_path / "out").exists()
        return
    assert (code, err) == (cli.EXIT_OK, "")
    xs, ys, values = read_field_csv(tmp_path / "out" / "density_t0.5.csv")
    assert list(xs) == list(ys) == [-1e300, -5e299, 0.0, 5e299, 1e300]
    s = cli._scenario(payload["scenario"])
    expected = np.zeros((5, 5))
    expected[2, 2] = cf.amplitude_A(s, 0.0, 0.0, 0.5) ** 2
    assert np.array_equal(values, expected)


GRID = {"x_min": -1.0, "x_max": 1.0, "y_min": -2.0, "y_max": 2.0, "nx": 5, "ny": 7}


@pytest.mark.parametrize(
    "record, written",
    [
        (GridSpec2D(**GRID), GRID),
        (TimePolynomial([0, 1.5, -2.25]), {"coeffs": [0.0, 1.5, -2.25]}),
        (
            Scenario(m=2.0, r=0.5, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0.25])),
            {"m": 2.0, "r": 0.5, "nu": {"coeffs": [0.0, 1.0]}, "mu": {"coeffs": [0.25]}},
        ),
        (
            verify.ResidualReport("continuity", 0.5, 1e-6, 2e-7, GridSpec2D(**GRID), 1e-4),
            {"equation": "continuity", "t": 0.5, "max_abs_residual": 1e-6, "rms_residual": 2e-7, "grid": GRID, "dt": 1e-4},
        ),
    ],
    ids=lambda value: type(value).__name__,
)
def test_reports_write_a_records_fields(tmp_path, record, written):
    # _write_json writes a record as vars(record): its __dict__ must hold
    # exactly its dataclass fields, so that a cached property or other
    # attribute cannot leak into a report
    assert list(vars(record)) == [f.name for f in dataclasses.fields(record)]
    cli._write_json(tmp_path / "r.json", {"record": record})
    assert json.loads((tmp_path / "r.json").read_text()) == {"record": written}


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=100)
@given(
    m=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    r=finite,
    nu=st.lists(finite, max_size=5).map(lambda cs: [0.0, *cs]),
    mu=st.lists(finite, max_size=5),
)
def test_scenario_round_trips_through_the_report(tmp_path_factory, m, r, nu, mu):
    # the scenario a report writes parses back through the config parser
    s = cli._scenario({"m": m, "r": r, "nu": {"coeffs": nu}, "mu": {"coeffs": mu}})
    path = tmp_path_factory.mktemp("scenario") / "residuals.json"
    cli._write_json(path, {"scenario": s})
    written = json.loads(path.read_text())["scenario"]
    assert written["nu"]["coeffs"] == list(s.nu.coeffs)
    assert cli._scenario(written) == s


def test_shipped_verify_reports_round_trip_their_scenario(tmp_path):
    for name in ("verify_example1", "verify_example2"):
        code, _, _ = run_main(["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / name)])
        assert code == cli.EXIT_OK
        written = json.loads((tmp_path / name / "residuals.json").read_text())
        config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        assert written["scenario"] == config["scenario"]
        assert cli._scenario(written["scenario"]) == cli._scenario(config["scenario"])
        assert sorted(written["tolerances"]) == ["hj_max", "normalization", "residual_max", "variance", "variance_product"]


# ---------------------------------------------------------------------------
# mutated configs


# small and huge values next to ordinary ones: coefficients whose derivatives
# overflow, masses at the float range's ends, extents up to 1e300
coefficient = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1.0, -1.0, 1e3, -1e3, 1e300, -1e300, 1e-300]))
extent = st.sampled_from([1e-3, 0.5, 3.0, 6.0, 1e3, 1e150, 1e300])


@st.composite
def mutated_configs(draw):
    """A density or verify command on a shipped scenario config with some of its values replaced."""
    command = draw(st.sampled_from(["density", "verify"]))
    name = draw(st.sampled_from(["fig1", "fig2", "verify_example1", "verify_example2"]))
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    scenario = config["scenario"]
    if draw(st.booleans()):
        scenario["m"] = draw(st.sampled_from([0.1, 1.0, 3.0, 1e-300, 1e300]))
    if draw(st.booleans()):
        scenario["r"] = draw(coefficient)
    for key in ("nu", "mu"):
        if draw(st.booleans()):
            scenario[key] = {"coeffs": draw(st.lists(coefficient, min_size=1, max_size=3))}
    if draw(st.booleans()):
        config["times"] = draw(
            st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1.0, 1e300])), min_size=1, max_size=3)
        )
    # grids of at most 9 points per axis keep density's CSV small; verify
    # may also choose its own
    if command == "verify" and draw(st.booleans()):
        config["grid"] = "auto"
    else:
        x_max, y_max = draw(extent), draw(extent)
        x_min, y_min = -draw(st.sampled_from([x_max, 0.5 * x_max])), -draw(st.sampled_from([y_max, 0.5 * y_max]))
        nx, ny = draw(st.integers(3, 9)), draw(st.integers(3, 9))
        config["grid"] = {"x_min": x_min, "x_max": x_max, "y_min": y_min, "y_max": y_max, "nx": nx, "ny": ny}
    if command == "density":
        fields = st.sampled_from(sorted(cli.FIELD_SAMPLERS))
        config["outputs"] = draw(st.lists(fields, min_size=1, max_size=3, unique=True))
    else:
        config["v_source"] = draw(st.sampled_from(verify.V_SOURCES))
    return command, config


@settings(deadline=None, max_examples=150)
@given(case=mutated_configs())
@example(
    # the phase coefficient m nu' (r + 1) / 2 is inf * 0 = NaN at t = 0
    case=(
        "verify",
        {"scenario": {"m": 1e300, "r": -1.0, "nu": {"coeffs": [0.0, 1e300]}}, "grid": "auto", "times": [0.0]},
    )
)
def test_mutated_configs_end_cleanly(tmp_path_factory, case):
    # every run exits 0 with nothing on stderr, exits 1 with one line and no
    # output, or exits 2 naming only tolerance violations; no warning
    # reaches stderr, and every report is strict JSON
    command, config = case
    tmp = tmp_path_factory.mktemp("mutated")
    out_dir = tmp / "out"
    path = write_config(tmp, "cfg.json", {**config, "out_dir": str(out_dir)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_main([command, "--config", str(path)])
    lines = err.splitlines()
    assert "Traceback" not in err and "Warning" not in err
    if code == cli.EXIT_OK:
        assert err == ""
    elif code == cli.EXIT_USAGE:
        assert len(lines) == 1 and not out_dir.exists()
    else:
        assert code == cli.EXIT_TOLERANCE and lines
        assert all(line.startswith("tolerance violation: ") for line in lines)
    for report in out_dir.glob("*.json"):
        json.loads(report.read_text(), parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
