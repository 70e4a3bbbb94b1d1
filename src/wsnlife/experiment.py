"""Config ingestion, run sweeps, and CSV/report persistence.

The config file is a single JSON object with flat dotted keys mirroring the
simulation config fields. Unknown keys are rejected; unspecified keys take
the documented defaults. All outputs are deterministic byte-for-byte for a
given spec: fixed column formats, LF line endings, no timestamps.
"""
from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import TextIO, get_args, get_type_hints

from .construction import TCProtocol
from .deployment import Site
from .engine import RunResult, SimConfig, run, validate_config
from .errors import ConfigError
from .maintenance import TMProtocol
from .metrics import CoverageGrid


@dataclass(frozen=True)
class ExperimentSpec:
    base: SimConfig
    tc_list: list[str]
    tm_list: list[str]
    seeds: list[int]
    output_dir: Path


@dataclass(frozen=True)
class SummaryRow:
    tc: str
    tm: str
    seed: int
    time_to_first_death: int
    time_to_low_reachability: int
    integrated_comm_coverage: float
    integrated_sensing_coverage: float


@dataclass(frozen=True)
class ConfigKey:
    """One flat config key: the default of its SimConfig field, whose type
    fixes how a JSON value is read."""

    default: object
    optional: bool  # the field also takes None, spelled "None" in JSON

    @property
    def json_default(self):
        return self.default.value if isinstance(self.default, Enum) else self.default

    def coerce(self, key: str, value):
        if isinstance(self.default, Enum):
            choices = {member.value: member for member in type(self.default)}
            if self.optional:
                choices["None"] = None
            if not isinstance(value, str) or value not in choices:
                raise ConfigError(key, f"must be one of {list(choices)}")
            return choices[value]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(key, "must be a number")
        if isinstance(self.default, int):
            if not isinstance(value, int):
                raise ConfigError(key, "must be an integer")
            return value
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(key, "must be a finite number")
        return number


def _flat_key(path: tuple[str, ...]) -> str:
    """A top-level field is keyed by its name, any other by its section and
    leaf: the fields of the deployment area read as deployment.width."""
    return path[0] if len(path) == 1 else f"{path[0]}.{path[-1]}"


def _config_keys(config, path: tuple[str, ...] = ()):
    hints = get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from _config_keys(value, path + (f.name,))
        else:
            optional = type(None) in get_args(hints[f.name])
            yield _flat_key(path + (f.name,)), ConfigKey(value, optional)


CONFIG_KEYS = dict(_config_keys(SimConfig()))

# Sweep lists, each entry read and checked as the scalar key it varies.
_LIST_KEYS = {"tc_list": "tc", "tm_list": "tm", "seeds": "deployment.seed"}


def _with_values(config, values: dict[str, object], path: tuple[str, ...] = ()):
    """A copy of config with the values of the given flat keys; each
    sub-config checks its own fields, and a rejection names the flat key."""
    changes = {}
    for f in fields(config):
        current = getattr(config, f.name)
        key = _flat_key(path + (f.name,))
        if is_dataclass(current):
            changes[f.name] = _with_values(current, values, path + (f.name,))
        elif key in values:
            changes[f.name] = values[key]
    try:
        return replace(config, **changes)
    except ConfigError as exc:
        raise ConfigError(_flat_key(path + (exc.field,)), exc.message) from exc


def parse_config(path: str | Path) -> ExperimentSpec:
    """Read and validate a config file; see the README for the key schema."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")

    values: dict[str, object] = {}
    for key, value in raw.items():
        if key in CONFIG_KEYS:
            values[key] = CONFIG_KEYS[key].coerce(key, value)
        elif key not in _LIST_KEYS and key != "output_dir":
            raise ConfigError(key, "unknown key")
    # A single selection weight implies its complement.
    w_e, w_d = "a3.energy_weight", "a3.distance_weight"
    if w_e in values and w_d not in values:
        values[w_d] = 1.0 - values[w_e]
    elif w_d in values and w_e not in values:
        values[w_e] = 1.0 - values[w_d]
    # The trigger kind follows the protocol's family, in the base as in each
    # cell (config_for); an explicit one must fit every protocol swept.
    kind = values.get("trigger.kind")
    tm = values.get("tm", CONFIG_KEYS["tm"].default)
    if tm is not None:
        values["trigger.kind"] = tm.trigger_kind
    base = _with_values(SimConfig(), values)
    validate_config(base)

    sweep = {}
    for key, scalar in _LIST_KEYS.items():
        entries = raw.get(key, [raw.get(scalar, CONFIG_KEYS[scalar].json_default)])
        if not isinstance(entries, list) or not entries:
            raise ConfigError(key, "must be a non-empty list")
        for entry in entries:
            try:
                _with_values(base, {scalar: CONFIG_KEYS[scalar].coerce(scalar, entry)})
            except ConfigError as exc:
                raise ConfigError(key, exc.message) from exc
        if len(set(entries)) < len(entries):
            raise ConfigError(key, "entries must be distinct")
        sweep[key] = entries
    if kind is not None:
        trigger = replace(base.trigger, kind=kind)
        for name in sweep["tm_list"]:
            if name != "None":
                validate_config(replace(base, tm=TMProtocol(name), trigger=trigger))
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir", "must be a string")
    return ExperimentSpec(base=base, output_dir=Path(output_dir), **sweep)


def config_for(spec: ExperimentSpec, tc_name: str, tm_name: str, seed: int) -> SimConfig:
    """Materialize the config for one sweep cell; the trigger kind follows
    the maintenance protocol's family."""
    tc = TCProtocol(tc_name)
    tm = None if tm_name == "None" else TMProtocol(tm_name)
    trigger = spec.base.trigger
    if tm is not None:
        trigger = replace(trigger, kind=tm.trigger_kind)
    deployment = replace(spec.base.deployment, seed=seed)
    return replace(spec.base, deployment=deployment, tc=tc, tm=tm, trigger=trigger)


def _round6(value: float) -> float:
    return float(f"{value:.6f}")


def series_name(tc_name: str, tm_name: str, seed: int) -> str:
    """The file name of one cell's series CSV."""
    return f"series_{tc_name}_{tm_name}_seed{seed}.csv"


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text handle on a new temporary file beside path, which replaces
    path once the block ends and is removed if the block raises: path holds
    either its old bytes or every new one, never part of a write."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", newline="") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def emit_series(result: RunResult, path: str | Path) -> Path:
    """Write the per-step metric series as CSV, coverages at 6 decimals."""
    path = Path(path)
    with _replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["step", "alive", "sink_reachable", "comm_coverage", "sensing_coverage"]
        )
        for s in result.series:
            writer.writerow(
                [
                    s.time,
                    s.alive,
                    s.sink_reachable,
                    f"{s.comm_coverage:.6f}",
                    f"{s.sensing_coverage:.6f}",
                ]
            )
    return path


def _integrate(times: list[int], values: list[float]) -> float:
    """Left Riemann sum over the sampled series, using the emitted (rounded)
    values so the number is exactly recomputable from the CSV."""
    total = 0.0
    for i in range(len(times) - 1):
        total += _round6(values[i]) * (times[i + 1] - times[i])
    return total


def summarize(result: RunResult, tc: str, tm: str, seed: int, node_count: int) -> SummaryRow:
    deaths = result.death_times.values()
    first_death = min(deaths) if deaths else -1
    threshold = 0.10 * node_count
    low_reach = result.series[-1].time
    for s in result.series:
        if s.sink_reachable < threshold:
            low_reach = s.time
            break
    times = [s.time for s in result.series]
    return SummaryRow(
        tc=tc,
        tm=tm,
        seed=seed,
        time_to_first_death=first_death,
        time_to_low_reachability=low_reach,
        integrated_comm_coverage=_integrate(
            times, [s.comm_coverage for s in result.series]
        ),
        integrated_sensing_coverage=_integrate(
            times, [s.sensing_coverage for s in result.series]
        ),
    )


def write_summary(rows: list[SummaryRow], path: str | Path) -> Path:
    path = Path(path)
    with _replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(f.name for f in fields(SummaryRow))
        for row in rows:
            writer.writerow(
                f"{value:.6f}" if isinstance(value, float) else value
                for value in astuple(row)
            )
    return path


def write_ranking(rows: list[SummaryRow], path: str | Path) -> Path:
    """Rank protocol combinations by mean integrated communication coverage
    across seeds, best first. The A3+DGETRec position is called out for
    comparison against the published conclusion."""
    path = Path(path)
    combos: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        combos.setdefault((row.tc, row.tm), []).append(row.integrated_comm_coverage)
    means = {
        combo: sum(vals) / len(vals) for combo, vals in sorted(combos.items())
    }
    ordered = sorted(means.items(), key=lambda item: (-item[1], item[0]))
    lines = ["rank combo mean_integrated_comm_coverage"]
    target_rank = None
    for rank, ((tc, tm), mean) in enumerate(ordered, start=1):
        lines.append(f"{rank} {tc}+{tm} {mean:.6f}")
        if (tc, tm) == ("A3", "DGETRec"):
            target_rank = rank
    if target_rank is not None:
        lines.append(f"A3+DGETRec rank: {target_rank} of {len(ordered)}")
    with _replacing(path) as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Execute every (tc, tm, seed) cell, writing one series CSV per run plus
    the aggregate summary and the ranking report, and return their paths in
    that order. Each file is written beside its path and renamed into
    place, so a sweep that fails leaves no partial file.

    Every cell's config is checked before anything runs. The cells differ
    only in protocols and seed, so they share one coverage grid, which
    computes each node's footprint once for the whole sweep, and the cells
    of a seed share one site (deployment.Site). The first cell that needs
    a part of it builds it: the positions, links and A3Cov promotion
    inputs; for each tc, the first tree of the D cells and the cells
    without maintenance, and the rotation set of the S and H cells; and
    both coverages of each sink-reachable set a sample reaches. The grid
    and the sites live as long as this call."""
    cells = [
        (tc_name, tm_name, seed, config_for(spec, tc_name, tm_name, seed))
        for tc_name in spec.tc_list
        for tm_name in spec.tm_list
        for seed in spec.seeds
    ]
    for *_, config in cells:
        validate_config(config)
    grid = CoverageGrid(spec.base.deployment.area, spec.base.grid_cell)
    sites = {seed: Site(c.deployment, c.radio, c.sensing) for _, _, seed, c in cells}
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rows: list[SummaryRow] = []
    written: list[Path] = []
    for tc_name, tm_name, seed, config in cells:
        try:
            result = run(config, grid, sites[seed])
        except ConfigError:
            raise
        except Exception as exc:
            raise RuntimeError(
                f"run failed for tc={tc_name} tm={tm_name} seed={seed}: {exc}"
            ) from exc
        written.append(emit_series(result, out / series_name(tc_name, tm_name, seed)))
        rows.append(
            summarize(result, tc_name, tm_name, seed, config.deployment.node_count)
        )
    written.append(write_summary(rows, out / "summary.csv"))
    written.append(write_ranking(rows, out / "ranking.txt"))
    return written
