"""Start-up of each subcommand as a user's run pays it, in fresh processes.

    python3 tools/startup.py [--runs N] [subcommand ...]

Run from the root of a checkout.  Each subcommand (all four by default)
runs as ``python -m bohm_squeeze.cli <subcommand>`` on a shipped config,
``--runs`` times, the subcommands taking turns so that drift in the host's
load reaches each alike; ``density`` samples with ``--grid-n 61`` so that
its CSV does not dominate.  Outputs go to a temporary directory.  One more
run of each under ``-X importtime``, not timed, lists the package modules
it loaded.

Prints, per subcommand, the median wall time of a run from process start
to exit, the package modules loaded and ``sys.flags.dont_write_bytecode``
of the child processes.  Whether they compile the package from source
also depends on a valid ``__pycache__``: measure a fresh checkout with
``PYTHONDONTWRITEBYTECODE=1`` for a cold start.  Exits 1 if any run does
not exit 0.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# subcommand -> its shipped config and extra flags
RUNS = {
    "density": ("fig1.json", ["--grid-n", "61"]),
    "verify": ("verify_example1.json", []),
    "fock": ("fock.json", []),
    "entropy": ("entropy.json", []),
}


def command(name: str, out: Path) -> list[str]:
    """The interpreter's arguments for one run of subcommand ``name``, writing into ``out``."""
    config, flags = RUNS[name]
    return ["-m", "bohm_squeeze.cli", name, "--config", str(ROOT / "configs" / config), "--out", str(out), *flags]


def run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    return done


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="timed runs per subcommand")
    parser.add_argument("subcommands", nargs="*", help=f"any of {', '.join(RUNS)} (default: all)")
    args = parser.parse_args()
    if args.runs < 1 or not set(args.subcommands) <= set(RUNS):
        parser.error(f"--runs must be at least 1 and each subcommand one of {', '.join(RUNS)}")
    args.subcommands = args.subcommands or list(RUNS)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    flag = run([sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"], env).stdout.strip()

    times = {name: [] for name in args.subcommands}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.runs):
            for name in args.subcommands:
                argv = [sys.executable, *command(name, Path(tmp) / name)]
                start = time.perf_counter()
                run(argv, env)
                times[name].append(time.perf_counter() - start)
        modules = {}
        for name in args.subcommands:
            stderr = run([sys.executable, "-X", "importtime", *command(name, Path(tmp) / name)], env).stderr
            names = [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")]
            modules[name] = sorted(m for m in names if m.startswith("bohm_squeeze."))

    print(f"{'subcommand':<10} {'runs':>4} {'median_ms':>9}  dont_write_bytecode  modules")
    for name in args.subcommands:
        median_ms = 1e3 * statistics.median(times[name])
        print(f"{name:<10} {args.runs:>4} {median_ms:>9.1f}  {flag:<19}  {' '.join(modules[name])}")


if __name__ == "__main__":
    main()
