"""Show that the reference checks accept rounding and reject wrong formulas.

    python3 bench/selftest.py

Runs the CLI on small copies of the shipped configs, then feeds each check
the true output, the output perturbed at rounding level (must pass) and
outputs from a wrong formula (must fail), including a verify run with the
``variant`` external potential.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_out" / "selftest"
os.environ.update({"BOHM_SQUEEZE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from bohm_squeeze import cli  # noqa: E402


def produce(sub: str, config: dict, name: str) -> tuple[int, list[Path]]:
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(config))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([sub, "--config", str(path), "--out", str(WORK / name)])
    return code, [Path(line) for line in out.getvalue().splitlines()]


def verdict(check, config: dict, paths: list[Path]) -> str | None:
    try:
        check(config, paths)
    except checks.CheckFailed as exc:
        return str(exc)
    return None


def rewrite_csv_column(path: Path, column: int, fn) -> Path:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[column] = repr(fn(float(row[column]), [float(v) for v in row]))
    new = path.with_name("edited_" + path.name)
    new.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    return new


def load(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text())


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    cases: list[tuple[str, bool, str | None]] = []  # (case, should pass, failure)

    def case(name: str, should_pass: bool, check, config: dict, paths: list[Path]) -> None:
        cases.append((name, should_pass, verdict(check, config, paths)))

    density = load("fig1.json")
    density["grid"].update(nx=41, ny=41)
    density["times"] = [0.0, 1.5]
    _, paths = produce("density", density, "density")
    case("density: as written", True, checks.check_density, density, paths)
    bumped = [rewrite_csv_column(p, 2, lambda v, row: v * (1.0 + 2e-16)) for p in paths]
    case("density: values +1 ulp", True, checks.check_density, density, bumped)
    amplitude = rewrite_csv_column(paths[1], 2, lambda v, row: math.sqrt(v))
    case("density: |psi| for |psi|^2", False, checks.check_density, density, [amplitude] * 2)
    case("density: t=1.5 file as t=0", False, checks.check_density, density, paths[::-1])

    for name in ("verify_example1.json", "verify_example2.json"):
        config = load(name)
        config["times"] = [0.5]
        _, paths = produce("verify", config, "verify")
        case(f"verify {name}: as written", True, checks.check_verify, config, paths)
        config["v_source"] = "variant"
        code, paths = produce("verify", config, "verify_variant")
        case(f"verify {name}: variant potential (exit {code})", False, checks.check_verify, config, paths)
        report = json.loads(paths[0].read_text())
        report["pass"] = True
        paths[0].write_text(json.dumps(report))
        case(f"verify {name}: variant, pass forced true", False, checks.check_verify, config, paths)

    fock = load("fock.json")
    fock["nu_values"] = [0.25, 0.75]
    _, paths = produce("fock", fock, "fock")
    case("fock: as written", True, checks.check_fock, fock, paths)
    report = json.loads(paths[0].read_text())
    for entry in report["entries"]:
        entry["factorization_interior_rel"] *= 1.0 + 1e-12
    paths[0].write_text(json.dumps(report))
    case("fock: distances x (1 + 1e-12)", True, checks.check_fock, fock, paths)
    report["entries"][1]["factorization_interior_rel"] *= 1.01
    paths[0].write_text(json.dumps(report))
    case("fock: distance at nu=0.75 x 1.01", False, checks.check_fock, fock, paths)
    report["entries"][1]["factorization_interior_rel"] /= 1.01
    report["entries"][0]["vacuum_column_max_err"] = math.tanh(0.25) * (1.0 - 1.0 / math.cosh(0.25))
    paths[0].write_text(json.dumps(report))
    case("fock: vacuum column without 1/cosh", False, checks.check_fock, fock, paths)

    entropy = load("entropy.json")
    _, paths = produce("entropy", entropy, "entropy")
    case("entropy: as written", True, checks.check_entropy, entropy, paths)
    nudged = rewrite_csv_column(paths[0], 1, lambda v, row: float(np.nextafter(v, math.inf)))
    case("entropy: summed +1 ulp", True, checks.check_entropy, entropy, [nudged])
    c2_only = rewrite_csv_column(paths[0], 1, lambda v, row: math.cosh(row[0]) ** 2 * math.log(math.cosh(row[0]) ** 2))
    case("entropy: sinh^2 term dropped", False, checks.check_entropy, entropy, [c2_only])
    tanh2 = rewrite_csv_column(paths[0], 3, lambda v, row: math.tanh(row[0]) ** 2)
    case("entropy: lambda_0 = tanh^2", False, checks.check_entropy, entropy, [tanh2])

    wrong = 0
    for name, should_pass, failure in cases:
        ok = (failure is None) == should_pass
        wrong += not ok
        outcome = "passes" if failure is None else f"fails: {failure}"
        print(f"{'ok   ' if ok else 'WRONG'} {name}: {outcome}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
