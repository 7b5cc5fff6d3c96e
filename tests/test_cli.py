import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohm_squeeze import cli, fockalg, verify
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
    with pytest.raises(cli.ConfigError, match="v_source"):
        cli.load_config(small_density_config(tmp_path, v_source="bogus"))
    with pytest.raises(cli.ConfigError, match="tolerance"):
        cli.load_config(small_density_config(tmp_path, tolerances={"nope": 1.0}))


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
    cfg = cli.load_config(small_density_config(tmp_path, grid="auto", times=[0.5], v_source="variant"))
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
    # fig1's scenario at t = 2: even the smallest extent misses the
    # stencil-error target on 201 points
    cfg = small_density_config(tmp_path, times=[1.0, 2.0], grid="auto")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no feasible extent at n = 201 for t = 2" in err
    assert not (tmp_path / "out").exists()


def test_verify_accepts_rectangular_grid_of_one_spacing(tmp_path):
    grid = {"x_min": -6.0, "x_max": 6.0, "y_min": -3.0, "y_max": 3.0, "nx": 601, "ny": 301}
    cfg = small_density_config(tmp_path, times=[0.0], grid=grid)
    # at the box corners (|x| = 6) the Bohm-definition stencil error is
    # 1.8e-2, as on the square +-6 grid, so the residual tolerance is raised
    assert cli.main(["verify", "--config", str(cfg), "--tol", "0.05"]) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert report["pass"] and report["results"][0]["reports"][0]["grid"] == grid


def test_verify_rejects_two_spacings(tmp_path, capsys):
    grid = {"x_min": -3.0, "x_max": 3.0, "y_min": -3.0, "y_max": 3.0, "nx": 41, "ny": 21}
    cfg = small_density_config(tmp_path, grid=grid)
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("invalid input: residual checks need one grid spacing")
    assert not (tmp_path / "out").exists()


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
    # an RK4 stage exponential overflows past |nu| ~ 2e4 (math.exp raised
    # OverflowError and the run exited 1 with a traceback); the exponentials'
    # measurements stay in the entry
    cfg = write_config(tmp_path, "f.json", {"nu_values": [nu], "n_max": 4, "out_dir": str(tmp_path)})
    assert cli.main(["fock", "--config", str(cfg)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    (entry,) = json.loads((tmp_path / "fock_report.json").read_text())["entries"]
    assert "overflows" in entry["ode_error"]
    assert "error" not in entry and EXPONENTIAL_FIELDS <= entry.keys()


def test_fock_ode_failure_keeps_factorization_distance(tmp_path):
    # 2000 steps of 0.05 miss the oracle's local bound at nu = 100; the
    # direct/factored comparison does not depend on the oracle and stays
    (entry,) = json.loads(cli.run_fock([100.0], 4, tmp_path).read_text())["entries"]
    assert "local error" in entry["ode_error"]
    assert "error" not in entry and "ode_max_dev" not in entry
    assert EXPONENTIAL_FIELDS <= entry.keys()
    assert entry["vacuum_offdiag_max"] == 0.0


@pytest.mark.parametrize("nu", [1e16, 1e18])
def test_fock_squeeze_past_phase_precision_reports_error(tmp_path, capsys, nu):
    # from generator 1-norm 2^53 (|nu| ~ 1.3e15 at n_max = 4) the phases
    # keep no fractional bit: an error entry, with no numpy warning
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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("times", None, [True]),
        ("scenario", "m", True),
        ("scenario", "r", "0"),
        ("scenario", "nu", {"coeffs": [False, True]}),
        ("grid", "nx", 5.9),
        ("grid", "ny", "5"),
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
    assert err.count("\n") == 1 and flags[0] in err and command in err
    assert not (tmp_path / "out").exists()
