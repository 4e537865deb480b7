"""Self-tests of the benchmark: tracer bindings, count stability, checks.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, package_namespaces  # noqa: E402

import isacwave.cli as cli  # noqa: E402
from isacwave import admm, montecarlo  # noqa: E402


def _bindings() -> dict:
    return {(id(ns), key): value for ns in package_namespaces()
            for key, value in ns.items()}


def test_tracer_wraps_every_binding_and_restores_it():
    before = _bindings()
    original_solve = admm.solve
    with Tracer():
        # names imported into other modules and held in dicts are wrapped too
        assert montecarlo.solve is admm.solve is not original_solve
        assert cli._RUNNERS["ser"] is montecarlo.run_ser
        assert montecarlo.run_ser is not before[(id(vars(montecarlo)),
                                                 "run_ser")]
        assert montecarlo.ProcessPoolExecutor is not before[
            (id(vars(montecarlo)), "ProcessPoolExecutor")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def _traced_counts(tmp_path: Path, argv: list) -> dict:
    with Tracer() as tracer:
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    stats = tracer.stats()
    return {name: stats.get(name, {"calls": 0})["calls"]
            for name in ("admm.solve", "admm.zero_forcing_target",
                         "montecarlo.detect_qpsk", "montecarlo.pool")}


@pytest.mark.parametrize("argv", [
    ["ccdf", "--threads", "1", "--set", "experiment.n_trials=2"],
    ["sumrate", "--threads", "2", "--set", "experiment.n_trials=2"],
    ["ser", "--threads", "1", "--set", "experiment.snr_db=[0.0]"],
], ids=["ccdf", "sumrate", "ser"])
def test_counts_repeat_exactly(tmp_path, argv):
    command = argv[0]
    argv = argv[:1] + ["--config", str(BENCH.parent / "configs" /
                                       f"{command}.json"),
                       "--seed", "3", "--set", "experiment.m_iter=20"] + argv[1:]
    first = _traced_counts(tmp_path / "a", argv)
    second = _traced_counts(tmp_path / "b", argv)
    assert first == second
    if command == "sumrate":
        # solves run in the pool workers, whose spans are lost
        assert first["montecarlo.pool"] == 16
    else:
        assert first["admm.solve"] > 0
    if command == "ser":
        assert first["montecarlo.detect_qpsk"] > 0


def test_ccdf_check_rejects_an_increasing_curve(tmp_path):
    grids = {"rho": [1.0], "eta_db": [0.0], "epsilon": [1.0],
             "snr_db": [10.0]}
    rows = ["gamma_db,\"rho=1,eta=0dB\""]
    rows += [f"{0.05 * i!r},{0.5 if i == 100 else 0.25}"
             for i in range(checks.GAMMA_POINTS)]
    (tmp_path / "ccdf.csv").write_text("\n".join(rows) + "\n")
    problems = checks.check_sweep("ccdf", tmp_path, grids)
    assert problems == ["rho=1,eta=0dB: CCDF increases"]


def test_tail_is_the_nearest_rank_p90():
    assert run.tail(list(range(100))) == (89, 10, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0, 3)


def test_a_failed_probe_counts_and_gives_no_setup_time(tmp_path):
    verdicts = run.Verdicts(run.Runner("ccdf-sweep", 1, tmp_path))
    ready = run.Op(label="probe0", exit_code=0, setup_s=0.2, scale=0.5)
    killed = run.Op(label="probe1", exit_code=-9)
    assert verdicts.check_probe(ready) == pytest.approx(0.1)
    assert verdicts.check_probe(killed) is None
    assert (verdicts.attempted, verdicts.failed) == (2, 1)
