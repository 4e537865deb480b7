"""Command line front end: config-driven designs and experiment sweeps.

Subcommands
    design    solve one instance, write waveform.json + kpi.json
    ccdf      PAPR CCDF sweep over (rho, eta), write ccdf.csv
    sumrate   per-user rate sweep over (epsilon, eta), write sumrate.csv
    ser       SER versus SNR with zero-MUI baseline, write ser.csv

Every run writes a manifest.json next to its outputs.  Outputs are
written atomically (temp file + rename) and CSV bytes are reproducible
for a fixed config: floats are serialized with repr, the shortest
round-tripping decimal form.

Config files are JSON holding the one section the command reads:
"design" for design, "experiment" for the sweeps; any other section is
rejected.  Resolution order, later wins: file, repeated --set
section.field=value flags (the command's section only), then --seed.
The environment sets nothing: any ISAC_* variable is rejected.
--threads sets the worker processes of a sweep; design runs no trials
and ignores it.  Unknown keys and malformed types are rejected with the
offending path; an out-of-range value, --threads included, is rejected
by the library object that receives it and reported at the section.  A
grid that a sweep holds fixed takes exactly one entry.  The PAPR cap is
given as exactly one of "eta" (linear) or "eta_db", which is converted
here to the linear cap the library takes.  An --out that is
not, and cannot become, a directory is rejected before any work.

Exit codes: 0 success; 1 bad config or arguments, including a resolved
config that a library constructor or driver rejects with ValueError; 2
design finished but violates a constraint beyond tolerance; 3 channel
too ill-conditioned to define the communication target, in a design or
in any trial of a sweep.  Anything else is a bug and raises.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

from . import __version__, kpi
from .admm import ProblemSpec, SingularChannelError, papr_cap, solve
from .montecarlo import (
    ExperimentConfig,
    draw_instance,
    run_ccdf,
    run_ser,
    run_sumrate,
)
from .signal_model import _db_to_linear, chirp_reference, snr_noise_variance

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_SINGULAR = 3


class ConfigError(ValueError):
    """Raised with a dotted field path locating the offending entry."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


# the field defaults of the library dataclasses, stated there only
_SPEC, _EXPERIMENT = ({field.name: field.default
                       for field in dataclasses.fields(cls)}
                      for cls in (ProblemSpec, ExperimentConfig))

# field: (type tag, required, default).  Tags check JSON shape only: "int"
# is not a bool, "number" is finite, "grid" a nonempty number list (scalars
# promoted), "u64" fits 64 bits; the library checks every range.
_DESIGN_FIELDS = {
    "n_antennas": ("int", True, None),
    "k_users": ("int", True, None),
    "n_samples": ("int", True, None),
    "epsilon": ("number", True, None),
    "eta": ("number", False, None),
    "eta_db": ("number", False, None),
    "rho": ("number", False, _SPEC["rho"]),
    "m_iter": ("int", False, _SPEC["max_iterations"]),
    "feasibility_tolerance": ("number", False,
                              _SPEC["feasibility_tolerance"]),
    "early_stop": ("bool", False, _SPEC["early_stop"]),
    "channel_seed": ("u64", True, None),
    "symbol_seed": ("u64", True, None),
    "constellation": ("str", False, "qpsk"),
    # design solves the drawn instance as-is; the zf-normalized scaling
    # is an experiment-harness convention, opt in if you want it here
    "snr_convention": ("str", False, "raw"),
    "snr_db": ("number", False, 10.0),
}

_EXPERIMENT_FIELDS = {
    "n_antennas": ("int", True, None),
    "k_users": ("int", True, None),
    "n_samples": ("int", True, None),
    "rho": ("grid", True, None),
    "eta": ("grid", False, None),
    "eta_db": ("grid", False, None),
    "epsilon": ("grid", True, None),
    "snr_db": ("grid", True, None),
    "n_trials": ("int", False, _EXPERIMENT["n_trials"]),
    "base_seed": ("u64", False, _EXPERIMENT["base_seed"]),
    "constellation": ("str", False, _EXPERIMENT["constellation"]),
    "m_iter": ("int", False, _EXPERIMENT["m_iter"]),
    "snr_convention": ("str", False, _EXPERIMENT["snr_convention"]),
}

_SECTIONS = {"design": _DESIGN_FIELDS, "experiment": _EXPERIMENT_FIELDS}


def _check_type(path: str, tag: str, value):
    def fail(expected):
        raise ConfigError(path, f"expected {expected}, got {value!r}")

    is_int = isinstance(value, int) and not isinstance(value, bool)
    is_number = is_int or isinstance(value, float)
    if tag == "int":
        if not is_int:
            fail("an integer")
    elif tag == "u64":
        if not is_int or not 0 <= value < 2 ** 64:
            fail("an unsigned 64-bit integer")
    elif tag == "number":
        if not is_number or not math.isfinite(value):
            fail("a finite number")
    elif tag == "bool":
        if not isinstance(value, bool):
            fail("true or false")
    elif tag == "str":
        if not isinstance(value, str):
            fail("a string")
    elif tag == "grid":
        entries = value if isinstance(value, list) else [value]
        if not entries:
            fail("a nonempty number or list of numbers")
        return [float(_check_type(f"{path}[{i}]", "number", entry))
                for i, entry in enumerate(entries)]
    else:  # pragma: no cover - schema typo guard
        raise AssertionError(f"unknown type tag {tag}")
    return value


def _resolve_section(section: str, raw: dict) -> dict:
    """Validate one config section against its schema, filling defaults."""
    schema = _SECTIONS[section]
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{section}.{key}", "unknown key")
    resolved = {}
    for key, (tag, required, default) in schema.items():
        if key in raw:
            resolved[key] = _check_type(f"{section}.{key}", tag, raw[key])
        elif required:
            raise ConfigError(f"{section}.{key}", "missing required field")
        elif default is not None:
            resolved[key] = default
    if ("eta" in raw) == ("eta_db" in raw):
        raise ConfigError(section, "give exactly one of eta (linear) "
                                   "or eta_db")
    return resolved


def _linear_caps(section_cfg: dict):
    """The section's PAPR cap, or grid of caps, as linear ratios: "eta"
    as given, "eta_db" converted.  The library checks the range."""
    if "eta" in section_cfg:
        return section_cfg["eta"]
    values = section_cfg["eta_db"]
    if isinstance(values, list):
        return [_db_to_linear(value) for value in values]
    return _db_to_linear(values)


def _apply_sets(fields: dict, section: str, assignments) -> None:
    """Store each --set section.field=value in ``fields``, the command's
    section; any other section is rejected.  The value is parsed as JSON,
    or kept as a string if it is not JSON."""
    for assignment in assignments or ():
        key, sep, text = assignment.partition("=")
        if not sep:
            raise ConfigError(assignment, "expected section.field=value")
        prefix, _, field = key.partition(".")
        if prefix != section or not field:
            raise ConfigError(key, f"expected {section}.<field>=value")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        fields[field] = value


def _load_config_file(path: str, section: str) -> dict:
    """The fields of ``section`` in the config file at ``path``, which
    may hold no other section."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"not valid JSON ({exc})")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(path, f"cannot read the file ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(path, "top level must be an object")
    for key in raw:
        if key != section:
            raise ConfigError(key, f"unknown section, expected {section}")
    fields = raw.get(section, {})
    if not isinstance(fields, dict):
        raise ConfigError(section, "expected an object")
    return fields


def _check_out_dir(path: str) -> None:
    """Reject an --out that cannot become a directory before any work;
    the directory itself is made with the first output.  The walk up
    does not follow symlinks, so a dangling one, or one in a loop, is
    found and rejected as not a directory."""
    existing = os.path.abspath(path)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError("--out", f"{existing} is not a directory")


def _atomic_write(path: str, data: str) -> None:
    # the output directory appears with the first output, so a run that
    # fails before writing anything leaves no directory behind.  The temp
    # file is made with mode 0o666 less the umask, which os.replace keeps
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_to_csv(table) -> str:
    labels = list(table.series)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([table.axis_name] + labels)
    # every axis and series is float64; CurveTable checks equal lengths
    for row in zip(table.axis_values,
                   *(table.series[label] for label in labels)):
        writer.writerow([repr(float(value)) for value in row])
    return buffer.getvalue()


def _write_manifest(out_dir: str, command: str, config: dict, seed,
                    duration: float, outputs: list) -> str:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "duration_seconds": duration,
        "outputs": outputs,
    }
    path = os.path.join(out_dir, "manifest.json")
    _atomic_write(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def cmd_design(cfg: dict, out_dir: str):
    # a bad snr_db is named before any draw, and the draws name a bad
    # count before papr_cap takes N*L
    noise_variance = snr_noise_variance(cfg["snr_db"])
    channel, symbols = draw_instance(
        cfg["n_antennas"], cfg["k_users"], cfg["n_samples"],
        cfg["constellation"], cfg["snr_convention"], cfg["channel_seed"],
        cfg["symbol_seed"],
    )
    eta = papr_cap(_linear_caps(cfg), cfg["n_antennas"] * cfg["n_samples"])
    reference = chirp_reference(cfg["n_antennas"], cfg["n_samples"])
    spec = ProblemSpec(
        channel=channel, symbols=symbols, reference=reference,
        epsilon=cfg["epsilon"], eta=eta, rho=cfg["rho"],
        max_iterations=cfg["m_iter"],
        feasibility_tolerance=cfg["feasibility_tolerance"],
        early_stop=cfg["early_stop"],
    )
    result = solve(spec)

    entries = result.waveform.entries
    waveform_doc = {
        "n_antennas": int(entries.shape[0]),
        "n_samples": int(entries.shape[1]),
        "entries": [[[float(z.real), float(z.imag)] for z in row]
                    for row in entries],
        "objective": result.objective,
        "lower_bound": result.lower_bound,
        "certified_gap": result.certified_gap,
        "iterations_run": result.iterations_run,
        "constraint_violations": result.constraint_violations.as_dict(),
        "residual_history": result.residual_history.as_dict(),
        "rho_trajectory": [[iteration, rho]
                           for iteration, rho in result.rho_trajectory],
    }
    report = kpi.build_report(channel, result.waveform, symbols, reference,
                              noise_variance)
    paths = []
    for name, doc in (("waveform.json", waveform_doc),
                      ("kpi.json", report.as_dict())):
        path = os.path.join(out_dir, name)
        _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        paths.append(name)
    feasible = (result.constraint_violations.max()
                <= cfg["feasibility_tolerance"])
    return (EXIT_OK if feasible else EXIT_INFEASIBLE), paths


# the experiment keys that name their ExperimentConfig field differently;
# eta or eta_db gives eta_grid through _linear_caps, and every other key
# is its field's name
_GRID_FIELDS = {"rho": "rho_grid", "epsilon": "epsilon_grid",
                "snr_db": "snr_grid_db"}


def _experiment_config(cfg: dict) -> ExperimentConfig:
    fields = {_GRID_FIELDS.get(key, key): value for key, value in cfg.items()
              if key not in ("eta", "eta_db")}
    return ExperimentConfig(eta_grid=_linear_caps(cfg), **fields)


_RUNNERS = {"ccdf": run_ccdf, "sumrate": run_sumrate, "ser": run_ser}


def cmd_experiment(command: str, cfg: dict, out_dir: str, threads: int):
    table = _RUNNERS[command](_experiment_config(cfg), threads=threads)
    name = f"{command}.csv"
    _atomic_write(os.path.join(out_dir, name), _table_to_csv(table))
    meta_name = f"{command}.meta.json"
    _atomic_write(os.path.join(out_dir, meta_name),
                  json.dumps(table.metadata, sort_keys=True, indent=2) + "\n")
    return EXIT_OK, [name, meta_name]


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that exits 1 on a malformed command line, as on
    any bad argument: argparse's own 2 is the code of an infeasible
    design."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_args(argv):
    parser = _ArgumentParser(
        prog="isacwave",
        description="Design chirp-similar PAPR-capped transmit blocks and "
                    "reproduce the PAPR/rate/SER experiment tables.",
    )
    parser.add_argument("command", choices=["design", "ccdf", "sumrate",
                                            "ser"])
    # optional here, so a missing config exits 1 like any bad config
    parser.add_argument("--config",
                        help="path to a JSON config with design/experiment "
                             "sections")
    parser.add_argument("--out", default="out",
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override experiment.base_seed; for design, "
                             "fills channel_seed/symbol_seed when absent")
    parser.add_argument("--set", action="append", dest="assignments",
                        metavar="SECTION.FIELD=VALUE",
                        help="override one config field (repeatable)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for experiment trials "
                             "(design ignores it)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    section = "design" if args.command == "design" else "experiment"
    try:
        if not args.config:
            raise ConfigError("--config", "a config file is required")
        _check_out_dir(args.out)
        fields = _load_config_file(args.config, section)
        for name in sorted(os.environ):
            if name.startswith("ISAC_"):
                raise ConfigError(name, "use --set, not the environment")
        _apply_sets(fields, section, args.assignments)

        # --seed is range-checked here: a config field the command line
        # fills must not be blamed for the flag's value
        if args.seed is not None:
            if section == "experiment":
                fields["base_seed"] = _check_type("--seed", "u64", args.seed)
            else:
                for key, flag, value in (
                        ("channel_seed", "--seed", args.seed),
                        ("symbol_seed", "--seed + 1", args.seed + 1)):
                    if key not in fields:
                        fields[key] = _check_type(flag, "u64", value)
        resolved = _resolve_section(section, fields)

        if args.command == "design":
            code, outputs = cmd_design(resolved, args.out)
            run_seed = [resolved["channel_seed"], resolved["symbol_seed"]]
        else:
            code, outputs = cmd_experiment(args.command, resolved, args.out,
                                           args.threads)
            run_seed = resolved["base_seed"]
        _write_manifest(args.out, args.command, {section: resolved},
                        run_seed, time.perf_counter() - started, outputs)
        return code
    except SingularChannelError as exc:
        print(f"isacwave: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:
        # a ConfigError, or a library precondition that the resolved
        # section fails (ProblemSpec, ExperimentConfig, a draw, a driver)
        if not isinstance(exc, ConfigError):
            exc = ConfigError(section, str(exc))
        print(f"isacwave: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
