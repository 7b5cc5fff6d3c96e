"""Harnesses the tier-1 tests share: the examples, the configs, a memory probe and a child's environment."""

import os
import tracemalloc
from pathlib import Path

from bohm_squeeze import Scenario, TimePolynomial
from bohm_squeeze import closedform as cf

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def example1() -> Scenario:
    """m=1, r=0, nu=t, mu=0: the strongly localizing case."""
    return Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))


def example2() -> Scenario:
    """m=1, r=1, nu=t^2, mu=0: the dilated case."""
    return Scenario(m=1.0, r=1.0, nu=TimePolynomial([0, 0, 1]), mu=TimePolynomial([0]))


def in_range(s: Scenario, nu: float) -> bool:
    """Whether |nu| and |r nu| are both within NU_LIMIT: two comparisons, apart from ``Scenario.at``'s one product."""
    return abs(nu) <= cf.NU_LIMIT and abs(s.r * nu) <= cf.NU_LIMIT


def traced_peak(call):
    """``call()``'s result and the peak of the memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_bytes(run) -> int:
    """Peak of the memory ``run()`` allocates, after one call that warms numpy up."""
    run()
    return traced_peak(run)[1]


def child_env() -> dict:
    """This process's environment with the package's source directory first on PYTHONPATH."""
    src = str(Path(cf.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
