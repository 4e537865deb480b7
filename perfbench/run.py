"""isacwave benchmark: closed-loop workloads driven through the public CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: the next request starts
when the previous one has ended.  A request runs ``isacwave.cli.main`` in
a fresh worker process (``worker.py``) with the BLAS thread pools pinned
to one thread, so ``--threads 2`` means two processes.  The workload seed
is passed to sweeps as ``--seed`` and hashed into the design seeds.

``--trace 0`` measures for ``--seconds`` seconds with tracing off and
prints the end-to-end metrics, timed in each worker and scaled to a
reference host speed by ``calibrate()`` runs next to every worker (the
host's speed moves by up to 2x in phases; README.md, "Host-speed
scaling").  ``--trace 1`` runs one request untraced
and the same request traced (``tracer.py``), checks that both wrote the
same bytes, and prints the per-layer metrics and the tracing overhead.

Standard output ends with one JSON line: correct, attempted, failed and
metrics.  The line before it carries the details (host facts, sample
counts, the ungated tail, raw medians, output hashes, drift from
``baseline.json``).
See README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
WORKER = BENCH / "worker.py"
BASELINE = BENCH / "baseline.json"
SPEC = ROOT / "BENCHMARK.json"

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
TRACED_DESIGNS = 10
# host-speed calibration: a fixed loop of small numpy steps, timed by the
# launcher between worker processes on the CPUs they run on; timings are
# reported as they would read on a host where the loop takes
# CALIBRATION_REFERENCE_S
CALIBRATION_STEPS = 4000
CALIBRATION_REFERENCE_S = 0.025
RUN_BUDGET_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    threads: int = 1
    sets: tuple = ()  # ("section.field", value) pairs passed as --set
    designs_per_process: int = 0


WORKLOADS = {
    # the single-core solver baseline: ~97% of traced time is admm
    "ccdf-sweep": Workload("ccdf", "configs/ccdf.json",
                           sets=(("experiment.n_trials", 10),)),
    # the same solver work through the process pool, 2 workers
    "sumrate-pool": Workload("sumrate", "configs/sumrate.json", threads=2,
                             sets=(("experiment.n_trials", 4),)),
    # n_trials does not shorten it (the stopping rule fixes its length);
    # dropping the 12 and 14 dB points, which run into the 10^6-symbol
    # cap, and solving 50 iterations does: ~1 s a request, not 13-21 s
    "ser-baseline": Workload("ser", "configs/ser.json",
                             sets=(("experiment.snr_db",
                                    [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]),
                                   ("experiment.m_iter", 50))),
    # one design at a time, in-process, seeds varied per design
    "design-latency": Workload("design", "configs/design.json",
                               designs_per_process=8),
}

ADMM_STEPS = ("x_update", "alpha_update", "beta_update", "gamma_update",
              "dual_updates")
# public names the per-layer metrics read; a missing one is reported absent
TRACED_NAMES = (("admm.solve", "admm.zero_forcing_target")
                + tuple(f"admm.{step}" for step in ADMM_STEPS)
                + ("signal_model.draw_channel", "signal_model.draw_symbols",
                   "signal_model.chirp_reference", "montecarlo.detect_qpsk",
                   "montecarlo.pool", "kpi.papr_db", "kpi.sinr_per_user",
                   "kpi.build_report", "cli.main"))


@dataclass
class Op:
    """One worker process: its requests, timings and output directories."""

    label: str
    wall_s: float = 0.0
    setup_s: float | None = None  # None: the worker never became ready
    scale: float = 1.0  # raw time -> time at the reference host speed
    calibration_s: tuple = ()  # calibrate() just before and just after
    peak_rss_kb: int = 0
    exit_code: int | None = None
    requests: list = field(default_factory=list)
    out_dirs: list = field(default_factory=list)
    trace: dict | None = None


# --- processes ---------------------------------------------------------------

def calibrate(cpus: tuple) -> float:
    """Seconds a fixed loop of small numpy steps takes, mean over ``cpus``.

    The loop is the kind of work the solver does (128-element complex
    vectors, a Python-level step each), so its time follows a CPU's speed
    phases the way the workloads' times do; the two vCPUs of a shared VM
    slow down independently, so it runs on each CPU the workers use.  It
    runs in the launcher, which never imports isacwave, so no change to
    the package can move it.  Leaves the launcher pinned to ``cpus``,
    which the workers it spawns inherit.
    """
    x = numpy.full(128, 0.5 + 0.5j)
    total = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        y = numpy.ones(128, dtype=complex)
        start = time.perf_counter()
        for _ in range(CALIBRATION_STEPS):
            z = x * 0.9 + y
            y = z / (1.0 + numpy.abs(z).max())
            float(numpy.vdot(x, y).real)
        total += time.perf_counter() - start
    os.sched_setaffinity(0, set(cpus))
    return total / len(cpus)


def _spawn(job: dict, job_dir: Path, timeout: float, cpus: tuple,
           calibrated: float) -> Op:
    """Run worker.py on one job and reap it with its resource usage.

    ``calibrated`` is ``calibrate(cpus)`` taken just before; the one taken
    just after goes into ``op.calibration_s`` and scales the op's times."""
    job_dir.mkdir(parents=True, exist_ok=True)
    job = dict(job, src=str(SRC), result=str(job_dir / "result.json"))
    job_path = job_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    op = Op(label=job_dir.name)
    with open(job_dir / "stdout.txt", "wb") as out, \
            open(job_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(job_path)], cwd=ROOT, env=env,
            stdout=out, stderr=err, start_new_session=True)
        reaped = threading.Event()

        def kill_group():
            if not reaped.is_set():
                os.killpg(proc.pid, signal.SIGKILL)

        killer = threading.Timer(max(timeout, 1.0), kill_group)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            killer.cancel()
        ended = time.monotonic()
    op.calibration_s = (calibrated, calibrate(cpus))
    op.scale = 2.0 * CALIBRATION_REFERENCE_S / sum(op.calibration_s)
    proc.returncode = os.waitstatus_to_exitcode(status)
    op.exit_code = proc.returncode
    op.wall_s = ended - spawned
    op.peak_rss_kb = usage.ru_maxrss  # max over the process and its reaped children
    try:
        result = json.loads((job_dir / "result.json").read_text("utf-8"))
    except (OSError, ValueError):
        return op
    op.setup_s = result["ready"] - spawned
    op.requests = result["requests"]
    if job.get("trace"):
        op.trace = json.loads(Path(job["trace"]).read_text("utf-8"))
    return op


class Runner:
    """Builds requests for one workload and runs them in worker processes."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.config_path = ROOT / self.wl.config
        self.config = json.loads(self.config_path.read_text("utf-8"))
        for key, value in self.wl.sets:
            section, field_name = key.split(".")
            self.config[section][field_name] = value
        self.ops: list = []
        cpus = tuple(sorted(os.sched_getaffinity(0)))
        # one process runs on one CPU, the launcher with it; only a pool
        # of workers gets every CPU
        self.one_cpu = cpus[-1:]
        self.cpus = cpus if self.wl.threads > 1 else self.one_cpu
        self._last = (None, 0.0)  # (CPUs, calibration after the last spawn)

    def _spawn(self, job: dict, job_dir: Path, cpus: tuple) -> Op:
        last_cpus, calibrated = self._last
        if last_cpus != cpus:
            calibrated = calibrate(cpus)
        op = _spawn(job, job_dir, self.deadline - time.monotonic(), cpus,
                    calibrated)
        self._last = (cpus, op.calibration_s[1])
        return op

    def design_seeds(self, index: int) -> tuple:
        digest = hashlib.sha256(f"{self.seed}:{index}".encode()).digest()
        return (int.from_bytes(digest[:4], "little"),
                int.from_bytes(digest[4:8], "little"))

    def request(self, out_dir: Path, index: int = 0,
                threads: int | None = None) -> list:
        argv = [self.wl.command, "--config", str(self.config_path),
                "--out", str(out_dir)]
        if self.wl.command == "design":
            channel_seed, symbol_seed = self.design_seeds(index)
            return argv + ["--set", f"design.channel_seed={channel_seed}",
                           "--set", f"design.symbol_seed={symbol_seed}"]
        argv += ["--seed", str(self.seed), "--threads",
                 str(threads or self.wl.threads)]
        for key, value in self.wl.sets:
            argv += ["--set", f"{key}={json.dumps(value)}"]
        return argv

    def probe(self, label: str) -> Op:
        job = {"probe": True, "requests": [self.request(self.run_dir / label)]}
        return self._spawn(job, self.run_dir / label, self.one_cpu)

    def run(self, label: str, first: int = 0, count: int = 1,
            trace: bool = False, threads: int | None = None) -> Op:
        """One worker process serving ``count`` requests, design indices
        ``first`` onwards (sweeps ignore the index)."""
        job_dir = self.run_dir / label
        out_dirs = [job_dir / f"out{i}" for i in range(count)]
        job = {"requests": [self.request(out, first + i, threads)
                            for i, out in enumerate(out_dirs)]}
        if trace:
            job["trace"] = str(job_dir / "trace.json")
        op = self._spawn(job, job_dir, self.cpus)
        op.out_dirs = out_dirs
        self.ops.append(op)
        return op


# --- checks ------------------------------------------------------------------

def _output_files(command: str) -> tuple:
    if command == "design":
        return ("waveform.json", "kpi.json")
    return (f"{command}.csv", f"{command}.meta.json")


def _read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


class Verdicts:
    """Counts requests attempted and failed; keeps the problems found."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.failed_ops: set = set()
        self.grids = (checks.experiment_grids(runner.config["experiment"])
                      if "experiment" in runner.config else None)

    def _fail(self, where: str, problems: list) -> None:
        self.failed += 1
        self.failed_ops.add(where.split("/")[0])
        self.problems.extend(f"{where}: {p}" for p in problems[:5])

    def check_probe(self, op: Op) -> float | None:
        """Count one set-up probe; its set-up time, or None if it failed."""
        self.attempted += 1
        if op.exit_code != 0 or op.setup_s is None:
            self._fail(op.label, [f"probe exit {op.exit_code}, ready time "
                                  f"{op.setup_s}"])
            return None
        return op.setup_s * op.scale

    def check_op(self, op: Op, reference: Op | None = None) -> None:
        """Check every request of ``op``; with ``reference``, also demand
        the same output bytes as the reference's request at that slot."""
        command = self.runner.wl.command
        expected = len(op.out_dirs)
        if op.exit_code != 0 or len(op.requests) != expected:
            self.attempted += expected
            self._fail(op.label, [f"worker exit {op.exit_code}, "
                                  f"{len(op.requests)}/{expected} requests"])
            return
        for i, (req, out_dir) in enumerate(zip(op.requests, op.out_dirs)):
            self.attempted += 1
            where = f"{op.label}/out{i}"
            if req["error"]:
                self._fail(where, [req["error"].strip().splitlines()[-1]])
                continue
            if command == "design":
                problems = checks.check_design(req["code"], out_dir)
            elif req["code"] != 0:
                problems = [f"exit {req['code']}"]
            else:
                problems = checks.check_sweep(command, out_dir, self.grids)
            if reference is not None and not problems:
                problems = self._compare(out_dir, reference.out_dirs[i])
            if problems:
                self._fail(where, problems)

    def _compare(self, out_dir: Path, ref_dir: Path) -> list:
        return [f"{name} differs from {ref_dir.parent.name}"
                for name in _output_files(self.runner.wl.command)
                if _read_bytes(out_dir / name) != _read_bytes(ref_dir / name)]


def _sha256(path: Path) -> str | None:
    data = _read_bytes(path)
    return hashlib.sha256(data).hexdigest() if data is not None else None


def _drift(name: str, seed: int, digest: str | None) -> str:
    """Compare an output hash with the one recorded in baseline.json.

    Drift is reported, never counted as a failure: solver changes may
    change the bytes on purpose.
    """
    try:
        baseline = json.loads(BASELINE.read_text("utf-8"))
        known = baseline["end_to_end"]["workloads"][name]["sha256"]
    except (OSError, ValueError, KeyError):
        return "no baseline"
    if str(seed) not in known:
        return "seed not in baseline"
    return "same" if known[str(seed)] == digest else "changed"


# --- metrics -----------------------------------------------------------------

def tail(samples: list) -> tuple:
    """The 90th percentile (nearest rank) and how many samples lie beyond.

    With about a hundred samples (design-latency) this is the highest
    percentile with ten samples beyond it; the sweeps have tens of
    samples, so fewer lie beyond and the count says so.  A fixed
    percentile keeps the metric's meaning when the sample count changes
    with the host's speed.  Returns (value, samples beyond, sample count).
    """
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank, len(ordered)


def _op_work(runner: Runner, op: Op) -> tuple:
    """(designed blocks the outputs depend on, QPSK symbols) of one op."""
    wl = runner.wl
    section = runner.config.get("experiment") or runner.config["design"]
    symbols_per_block = section["k_users"] * section["n_samples"]
    if wl.command == "design":
        blocks = len(op.requests)
        return blocks, blocks * symbols_per_block
    grids = checks.experiment_grids(section)
    if wl.command == "ser":
        meta = json.loads((op.out_dirs[0] / "ser.meta.json").read_text("utf-8"))
        stats = meta["series_stats"]
        blocks = max(stats["designed"]["trials"])
        symbols = sum(sum(series["symbols"]) for series in stats.values())
        return blocks, symbols
    n_trials = section.get("n_trials", 200)
    axis = "rho" if wl.command == "ccdf" else "epsilon"
    blocks = n_trials * len(grids[axis]) * len(grids["eta_db"])
    return blocks, blocks * symbols_per_block


def end_to_end(runner: Runner, setups: list, ops: list,
               verdicts: Verdicts) -> tuple:
    good = [op for op in ops if op.label not in verdicts.failed_ops]
    if not good or not setups:
        raise RuntimeError("no request or no set-up probe completed")
    solve_rates, symbol_rates, request_ms, raw_ms = [], [], [], []
    for op in good:
        busy = op.scale * sum(r["end"] - r["start"] for r in op.requests)
        blocks, symbols = _op_work(runner, op)
        solve_rates.append(blocks / busy)
        symbol_rates.append(symbols / busy)
        raw = [1e3 * (r["end"] - r["start"]) for r in op.requests]
        raw_ms.extend(raw)
        request_ms.extend(op.scale * ms for ms in raw)
    codes = [r["code"] for op in ops for r in op.requests]
    tail_ms, beyond, n_samples = tail(request_ms)
    if runner.cpus == runner.one_cpu:
        # a worker sets up like a probe, on the probes' CPU and calibration
        setups = setups + [op.setup_s * op.scale for op in good]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(op.wall_s * op.scale for op in good),
        "request_ms_p50": statistics.median(request_ms),
        "symbols_per_s": statistics.median(symbol_rates),
        "peak_rss_mb": max(op.peak_rss_kb for op in good) / 1024.0,
        "feasible_fraction": sum(c == 0 for c in codes) / max(len(codes), 1),
        "correct_fraction": 1.0 - verdicts.failed / max(verdicts.attempted, 1),
    }
    details = {
        # ungated: the requests of a sweep run are one request repeated, so
        # the spread of their tail is the host's, not the program's
        "request_ms_tail": {"value": tail_ms, "unit": "ms", "percentile": 90,
                            "beyond": beyond, "samples": n_samples},
        # ungated: symbols_per_s / (K * L) except on ser, where the
        # designed trials used vary by seed while the time does not
        "solves_per_s": statistics.median(solve_rates),
        # as measured, before scaling to the reference host speed
        "raw": {"wall_s": statistics.median(op.wall_s for op in good),
                "request_ms_p50": statistics.median(raw_ms),
                "time_scale": statistics.median(op.scale for op in good)},
        "samples": {"wall_s": [op.wall_s * op.scale for op in good],
                    "setup_s": setups, "request_ms": request_ms,
                    "time_scale": [op.scale for op in good]},
        "setup_samples": len(setups), "ops": len(ops),
        "requests": len(codes)}
    return metrics, details


def _absent(trace: dict) -> list:
    names = set(trace["span_names"])
    return [name for name in TRACED_NAMES if name not in names]


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(runner: Runner, layer_op: Op, base: Op, traced: Op) -> tuple:
    """Per-layer metrics from ``layer_op``'s spans; pool metrics from the
    parent process of ``traced``; overhead from ``traced`` vs ``base``."""
    stats = layer_op.trace["stats"]
    solves = layer_op.trace["solves"]
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def calls(name):
        return stats.get(name, empty)["calls"]

    def us(name):
        entry = stats.get(name, empty)
        return _ratio(entry["total_ns"] / 1e3, entry["calls"])

    def self_s(layer, exclude=()):
        return sum(v["self_ns"] for k, v in stats.items()
                   if k.startswith(layer + ".") and k not in exclude) / 1e9

    iterations = solves["iterations"]
    solve = stats.get("admm.solve", empty)
    n_solves = calls("admm.solve")
    metrics = {
        "admm.solve.calls": n_solves,
        "admm.iterations": iterations,
        "admm.us_per_iter": _ratio(solve["total_ns"] / 1e3, iterations),
        "admm.solve.self_us_per_iter": _ratio(solve["self_ns"] / 1e3,
                                              iterations),
    }
    for step in ADMM_STEPS:
        metrics[f"admm.{step}.us"] = us(f"admm.{step}")
    metrics["admm.converged_ratio"] = _ratio(solves["converged"],
                                             solves["count"])
    metrics["admm.zero_forcing_target.calls"] = calls("admm.zero_forcing_target")
    metrics["admm.zero_forcing_target.us"] = us("admm.zero_forcing_target")
    for fn in ("draw_channel", "draw_symbols", "chirp_reference"):
        metrics[f"signal_model.{fn}.calls"] = calls(f"signal_model.{fn}")
        metrics[f"signal_model.{fn}.us"] = us(f"signal_model.{fn}")
    metrics["montecarlo.self_s"] = self_s(
        "montecarlo", exclude=("montecarlo.detect_qpsk", "montecarlo.pool"))
    metrics["montecarlo.detect_qpsk.calls"] = calls("montecarlo.detect_qpsk")
    metrics["montecarlo.detect_qpsk.us"] = us("montecarlo.detect_qpsk")

    not_applicable = []
    ser_names = ("montecarlo.ser_eval_useful_ratio",
                 "montecarlo.ser_eval_useful_ratio.designed",
                 "montecarlo.ser_eval_useful_ratio.zero_mui",
                 "montecarlo.ser_solve_useful_ratio")
    wl = runner.wl
    if wl.command == "ser":
        meta = json.loads((layer_op.out_dirs[0] / "ser.meta.json")
                          .read_text("utf-8"))["series_stats"]
        points = len(meta["designed"]["trials"])
        designed_run = n_solves
        zero_mui_run = (calls("signal_model.draw_symbols")
                        - calls("signal_model.draw_channel"))
        designed_used = sum(meta["designed"]["trials"])
        zero_mui_used = sum(meta["zero_mui"]["trials"])
        ratios = (
            _ratio(designed_used + zero_mui_used,
                   (designed_run + zero_mui_run) * points),
            _ratio(designed_used, designed_run * points),
            _ratio(zero_mui_used, zero_mui_run * points),
            _ratio(max(meta["designed"]["trials"]), designed_run),
        )
        metrics.update(zip(ser_names, ratios))
        trials = designed_run  # zero-MUI trials need no ZF target
    else:
        metrics.update(dict.fromkeys(ser_names, 0.0))
        not_applicable.extend(ser_names)
        if wl.command == "design":
            trials = len(layer_op.requests)
        else:
            trials = runner.config["experiment"].get("n_trials", 200)
    metrics["admm.zf_calls_per_trial"] = _ratio(
        calls("admm.zero_forcing_target"), trials)

    pool = traced.trace["stats"].get("montecarlo.pool", empty)
    metrics["montecarlo.pool_starts"] = pool["calls"]
    metrics["montecarlo.pool_wait_s"] = pool["total_ns"] / 1e9
    for fn in ("papr_db", "sinr_per_user", "build_report"):
        metrics[f"kpi.{fn}.us"] = us(f"kpi.{fn}")
    metrics["cli.self_s"] = self_s("cli")
    written = sum(path.stat().st_size for out in layer_op.out_dirs
                  if out.is_dir() for path in out.iterdir())
    metrics["cli.bytes_written"] = written / max(len(layer_op.requests), 1)
    base_s, traced_s = base.wall_s * base.scale, traced.wall_s * traced.scale
    metrics["trace.overhead_s"] = traced_s - base_s
    metrics["trace.overhead_ratio"] = (traced_s - base_s) / base_s

    total_ns = sum(v["self_ns"] for v in stats.values())
    shares = {layer: round(_ratio(sum(v["self_ns"] for k, v in stats.items()
                                      if k.startswith(layer + ".")),
                                  total_ns), 4)
              for layer in ("signal_model", "admm", "kpi", "montecarlo",
                            "cli")}
    details = {"absent": _absent(layer_op.trace),
               "not_applicable": not_applicable,
               "self_time_share": shares,
               "traced_wall_s": traced_s, "untraced_wall_s": base_s,
               "dropped_spans": layer_op.trace["dropped_spans"]}
    return metrics, details


# --- host --------------------------------------------------------------------

def host_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "loadavg_at_start": os.getloadavg()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            facts["cpu"] = next((line.split(":", 1)[1].strip()
                                 for line in handle
                                 if line.startswith("model name")), "unknown")
    except OSError:
        facts["cpu"] = "unknown"
    import numpy
    facts["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


# --- main --------------------------------------------------------------------

def measure(runner: Runner, seconds: int) -> tuple:
    runner.probe("warmup")  # compiles bytecode; not timed
    verdicts = Verdicts(runner)
    per_process = runner.wl.designs_per_process or 1
    ops, probes = [], []
    started = time.monotonic()
    # closed loop: start the next request only if one more of the last
    # one's length still fits in the measuring window.  A set-up probe
    # follows every request, so set-up is sampled across the whole window
    # like the requests are, not in one burst that a slow phase can cover.
    while not ops or time.monotonic() - started + ops[-1].wall_s <= seconds:
        ops.append(runner.run(f"op{len(ops)}", first=len(ops) * per_process,
                              count=per_process))
        probes.append(runner.probe(f"probe{len(probes)}"))
    setups = [s for s in map(verdicts.check_probe, probes) if s is not None]
    first = ops[0]
    for op in ops:
        # sweeps repeat one request, so every op must match the first
        same_inputs = runner.wl.command != "design" and op is not first
        verdicts.check_op(op, reference=first if same_inputs else None)
    if runner.wl.command == "design":
        verdicts.check_op(runner.run("rerun", first=0, count=1),
                          reference=first)
    metrics, details = end_to_end(runner, setups, ops, verdicts)
    return metrics, details, verdicts


def trace(runner: Runner) -> tuple:
    count = TRACED_DESIGNS if runner.wl.command == "design" else 1
    base = runner.run("untraced", count=count)
    traced = runner.run("traced", count=count, trace=True)
    layer_op = traced
    verdicts = Verdicts(runner)
    verdicts.check_op(base)
    verdicts.check_op(traced, reference=base)
    if runner.wl.threads > 1:
        # spans in pool workers are lost: layer numbers come from 1 worker
        layer_op = runner.run("traced-1worker", count=count, trace=True,
                              threads=1)
        verdicts.check_op(layer_op, reference=base)
    if traced.trace is None or layer_op.trace is None:
        raise RuntimeError("traced run wrote no trace")
    metrics, details = per_layer(runner, layer_op, base, traced)
    return metrics, details, verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isacwave" / "cli.py").is_file():
        print(f"run.py: no isacwave sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed,
                    RUNS / f"{args.workload}-{'traced' if args.trace else 'e2e'}")
    shutil.rmtree(runner.run_dir, ignore_errors=True)
    runner.run_dir.mkdir(parents=True)
    host = host_facts()
    if args.trace:
        metrics, details, verdicts = trace(runner)
    else:
        metrics, details, verdicts = measure(runner, args.seconds)
    spec = json.loads(SPEC.read_text("utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with {SPEC.name}")
    command = runner.wl.command
    first_out = runner.ops[0].out_dirs[0]
    digest = _sha256(first_out / _output_files(command)[0])
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   host=host, sha256={_output_files(command)[0]: digest},
                   drift=_drift(args.workload, args.seed, digest),
                   problems=verdicts.problems[:20])
    (runner.run_dir / "report.json").write_text(
        json.dumps({"details": details, "metrics": metrics}, indent=2),
        encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
