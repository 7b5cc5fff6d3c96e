"""The byte record of the package's outputs: one sha256 per artifact of a fixed list of runs.

    python3 tools/outputs.py > OUTPUTS.sha256

Runs every case of ``cases()`` through ``bohm_squeeze.cli.main`` in this
one process, each in its own working directory under one temporary
directory, and prints a sorted manifest with one line per item of a case:
its exit code, its stdout and stderr (as JSON strings, the temporary
directory's path read as ``<tmp>``) and the sha256 of each file it wrote.
A case that raises out of ``main`` is recorded by the exception's type,
its traceback goes to stderr, and the tool exits 1.

The first line names numpy's version, the SIMD extensions numpy
dispatches to on this CPU and the BLAS build.  The stencil fields'
products and the Fock routes go through them, so a manifest is a record
for one machine.  It names no thread count: runs at two BLAS thread counts
print the same manifest, line for line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from bohm_squeeze import cli, verify

EIGHT_NU = [0.1, -0.25, 0.5, 0.75, 1.0, 0.0, 1.5, 2.0]


def shipped(name: str) -> dict:
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


def nu(values: list[float]) -> str:
    return "nu=" + ",".join(f"{v:g}" for v in values)


def cases() -> dict[str, tuple[str, dict | bytes, list[str]]]:
    """Case name -> (subcommand, config as a JSON object or the file's bytes, further flags).

    No case but the refused empty one passes ``--out``, so each writes to
    its config's relative ``out_dir`` inside its own working directory.
    """
    runs = {}
    for name in ("verify_example1", "verify_example2", "fig1", "fig2"):
        config = shipped(name)
        for grid in (config["grid"], "auto"):
            size = grid if grid == "auto" else f"{grid['nx']}x{grid['ny']}"
            for v_source in verify.V_SOURCES:
                payload = {**config, "grid": grid, "v_source": v_source}
                runs[f"verify/{name}/{size}/{v_source}"] = ("verify", payload, [])
    for name in ("verify_example1", "verify_example2"):
        for tol in ("1e-6", "1e-10"):
            runs[f"verify/{name}/tol={tol}"] = ("verify", shipped(name), ["--tol", tol])
    runs["verify/verify_example2/times=[0.5]"] = ("verify", {**shipped("verify_example2"), "times": [0.5]}, [])

    runs["fock/fock"] = ("fock", shipped("fock"), [])
    for n_max in (30, 80, 160):
        runs[f"fock/n_max={n_max}/{nu(EIGHT_NU)}"] = ("fock", {"nu_values": EIGHT_NU, "n_max": n_max}, [])
    # a value the direct route's guard refuses, in a run and alone
    for nu_values in ([0.5, 1e16, 1.0], [0.5], [1e16], [1.0]):
        runs[f"fock/n_max=24/{nu(nu_values)}"] = ("fock", {"nu_values": nu_values, "n_max": 24}, [])
    # the ODE oracle within its step budget, and past it
    for nu_values in ([150, 800, 1e4, -800], [1e300]):
        runs[f"fock/{nu(nu_values)}"] = ("fock", {"nu_values": nu_values}, [])

    runs["entropy/entropy"] = ("entropy", shipped("entropy"), [])
    # the eight values; more terms than the default; past the term cap
    for nu_values in (EIGHT_NU, [1e-8, 1e-6, 2.2, 2.5, 3], [4.8], [0.5, 5]):
        runs[f"entropy/{nu(nu_values)}"] = ("entropy", {"nu_values": nu_values}, [])

    runs["density/fig2/grid-n=101"] = ("density", shipped("fig2"), ["--grid-n", "101"])

    # configs each refused with exit 1, one stderr line and no output
    fig1, verify1, fock, entropy = shipped("fig1"), shipped("verify_example1"), shipped("fock"), shipped("entropy")
    huge = {"x_min": -1e300, "x_max": 1e300, "y_min": -1e300, "y_max": 1e300, "nx": 5, "ny": 5}
    square = {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0}
    refused = {
        "mass": ("density", {**fig1, "scenario": {**fig1["scenario"], "mass": 1.0}}, []),
        "v_source": ("density", {**fig1, "v_source": "variant"}, []),
        "empty_out": ("verify", verify1, ["--out="]),
        "huge_potentials": (
            "density",
            {**fig1, "grid": huge, "times": [0.5], "outputs": ["density", "bohm_potential", "external_potential"]},
            [],
        ),
        "huge_verify": ("verify", {**verify1, "grid": huge, "times": [0.5]}, []),
        "small_verify": ("verify", {**verify1, "grid": {**square, "nx": 4, "ny": 4}}, []),
        # |nu(50)| = 50 is in range; the time difference at t +- dt is not
        "nu_limit_verify": ("verify", {**verify1, "grid": {**square, "nx": 21, "ny": 21}, "times": [50.0]}, []),
        "bool_n_max": ("fock", {**fock, "n_max": True}, []),
        "fock_tolerances": ("fock", {**fock, "tolerances": {"residual_max": 1e-4}}, []),
        "no_nu_values": ("entropy", {**entropy, "nu_values": []}, []),
        "entropy_n_max": ("entropy", {**entropy, "n_max": 24}, []),
        "repeated_output": ("density", {**fig1, "outputs": ["density", "density"]}, []),
        # past the JSON parser's recursion limit
        "nested": ("density", b"[" * 100_000 + b"]" * 100_000, []),
        "not_utf8": ("verify", b"\xff\xfe{", []),
        "nul_out_dir": ("verify", {**verify1, "out_dir": "out\0"}, []),
    }
    runs.update({f"refused/{name}": case for name, case in refused.items()})
    return runs


def run(name: str, command: str, config: dict | bytes, flags: list[str], where: Path) -> tuple[list[str], bool]:
    """The manifest lines of one case run in the empty directory ``where``, and whether it raised."""
    path = where / "config.json"
    path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = f"exit {cli.main([command, '--config', path.name, *flags])}"
    except Exception as exc:  # recorded, and the remaining cases still run
        traceback.print_exc()
        result = f"exception {type(exc).__name__}"
    finally:
        os.chdir(cwd)
    lines = [result]
    for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        lines.append(f"{stream} {json.dumps(text.replace(str(where.parent), '<tmp>'))}")
    for file in sorted(where.rglob("*")):
        if file.is_file() and file != path:
            lines.append(f"{file.relative_to(where).as_posix()} {hashlib.sha256(file.read_bytes()).hexdigest()}")
    return [f"{name} {line}" for line in lines], result.startswith("exception")


def manifest(runs: dict[str, tuple[str, dict | bytes, list[str]]]) -> tuple[list[str], bool]:
    """The sorted manifest lines of ``runs``, and whether any case raised.

    Each case runs in its own directory of one new temporary directory.
    """
    lines, raised = [], False
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, case) in enumerate(runs.items()):
            where = Path(tmp) / str(k)
            where.mkdir()
            case_lines, case_raised = run(name, *case, where)
            lines += case_lines
            raised |= case_raised
    return sorted(lines), raised


def header() -> str:
    """numpy's version, its SIMD extensions on this CPU and its BLAS build; no thread count."""
    config = np.show_config(mode="dicts")
    simd = config["SIMD Extensions"]
    blas = config["Build Dependencies"]["blas"]
    build = " ".join(blas.get("openblas configuration", f"{blas['name']} {blas['version']}").split())
    return f"# numpy {np.__version__}; SIMD {' '.join(simd['baseline'] + simd['found'])}; BLAS {build}"


def main() -> int:
    lines, raised = manifest(cases())
    print(header())
    print("\n".join(lines))
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
