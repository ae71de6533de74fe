import time
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

from semigreen import potential
from semigreen.config import load_config
from semigreen.exhaustion import run_exhaustion

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# one line per acceptance criterion, echoed after the run summary so the
# pass/fail record is visible without -s
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def splu_calls(monkeypatch):
    """One entry per spla.splu call that semigreen.potential makes while
    the test runs."""
    calls = []

    class CountingLinalg:
        def splu(self, *args, **kwargs):
            calls.append(1)
            return spla.splu(*args, **kwargs)

    monkeypatch.setattr(potential, "spla", CountingLinalg())
    return calls


@pytest.fixture(scope="session")
def shipped_run():
    """shipped_run(name) -> (cfg, run, seconds): the shipped exhaust config
    configs/<name>.ini run exactly as configured on disk, once per session;
    seconds is the wall time of run_exhaustion alone."""
    cache = {}

    def get(name):
        if name not in cache:
            cfg = load_config(str(CONFIGS / f"{name}.ini"))
            t0 = time.perf_counter()
            run = run_exhaustion(cfg.build_exhaustion(), cfg.coeffs, cfg.phi,
                                 cfg.experiment_opts["super_s"], tol=cfg.tol,
                                 max_iter=cfg.max_iter, scheme=cfg.scheme)
            cache[name] = (cfg, run, time.perf_counter() - t0)
        return cache[name]

    return get
