"""Experiment pipelines and the command-line front end.

Two canned experiments mirror the headline measurements: ``purify``
characterizes the polarization state before (long arms blocked) and after
the transfer stage, and ``chsh-sweep`` scans the source balance parameter
and records CHSH values of input and output. ``custom`` runs the same
pipeline over any supported sweep parameter, ``fringe-scan`` records the
interference fringe against the interferometer sum phase, and ``validate``
checks a config without running anything.

Config files are JSON trees; every angle in a file is degrees and is
converted to radians at the boundary. All randomness is derived from the
single config seed through counter-based substreams, so outputs are
byte-identical for one (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .optics import (
    CoherentStage,
    NoisyChannelSpec,
    RotatingPlateStage,
    SourceConfig,
    WaveplateSpec,
    apply_noisy_channel,
    make_source_state,
)
from .qcore import (
    DensityMatrix,
    PostselectionError,
    dump_density_matrix,
    load_density_matrix,
    purity,
)
from .tomo import (
    DEFAULT_CHSH_ANGLES,
    DEFAULT_PAIRS_PER_SETTING,
    METRIC_NAMES,
    MLE_DEFAULT_MAX_ITER,
    MLE_DEFAULT_TOL,
    CountData,
    MetricsReport,
    ReconstructionResult,
    _metric_vector,
    analytic_counts,
    chsh_value,
    counts_to_csv,
    monte_carlo_metrics,
    simulate_counts,
    standard_settings,
)
from .transfer import (
    InterferometerConfig,
    block_long_arms,
    fringe_visibility,
    sum_phase_scan,
    transfer,
)

__all__ = [
    "ConfigError",
    "TomographyConfig",
    "SweepConfig",
    "ExperimentConfig",
    "RunReport",
    "default_config",
    "load_config",
    "validate",
    "run_purification",
    "run_chsh_sweep",
    "run_custom",
    "run_fringe_scan",
    "emit_plot_data",
    "density_matrix_bars",
    "main",
]

SCHEMA_VERSION = 1

SWEEP_PARAMETERS = ("p", "visibility", "sum_phase")
COUNT_MODES = ("sampled", "analytic")
RECON_METHODS = ("mle", "linear")
DEFAULT_SWEEP_VALUES = (0.0, 0.1, 0.25, 0.4, 0.5)

# The simulation models ideal optics; measured realizations of the same
# scheme top out below the model because of alignment and accidentals.
GAP_NOTE = (
    "Model/measured gap: a laboratory realization of this scheme reports "
    "transferred-state fidelities up to 0.976; this simulation covers ideal "
    "optics with configurable source visibility and phase jitter only, so "
    "its figures will exceed measured ones unless extra imperfections are "
    "configured."
)


def _count_nonconverged(node) -> tuple[int, int]:
    """Non-converged (bootstrap, point) MLE fits in a report's nested stages.

    Bootstrap fits are the sum of every ``n_nonconverged``; a point fit is a
    reconstruction block whose ``converged`` is false.
    """
    bootstrap = point = 0
    if isinstance(node, dict):
        bootstrap = node.get("n_nonconverged", 0)
        point = int(node.get("converged") is False)
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            more_bootstrap, more_point = _count_nonconverged(child)
            bootstrap += more_bootstrap
            point += more_point
    return bootstrap, point


class ConfigError(Exception):
    """Invalid configuration; carries one diagnostic per violated field."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


def _integer_fields(obj, *names: str) -> None:
    """Store each named field of a frozen config as an int.

    A value that is not integral (a fraction, NaN, infinity, a string) is
    refused with the field named instead of being truncated.
    """
    for name in names:
        val = getattr(obj, name)
        try:
            exact = int(val) == val
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ValueError(f"{name} must be an integer, got {val!r}")
        object.__setattr__(obj, name, int(val))


@dataclass(frozen=True)
class TomographyConfig:
    """Counting statistics and estimator choices for both tomography arms."""

    pairs_per_setting: int = DEFAULT_PAIRS_PER_SETTING
    method: str = "mle"
    n_mc_samples: int = 100
    mle_tol: float = MLE_DEFAULT_TOL
    mle_max_iter: int = MLE_DEFAULT_MAX_ITER

    def __post_init__(self) -> None:
        _integer_fields(self, "pairs_per_setting", "n_mc_samples", "mle_max_iter")
        if self.pairs_per_setting < 1:
            raise ValueError(
                f"pairs_per_setting must be positive, got {self.pairs_per_setting}"
            )
        if self.method not in RECON_METHODS:
            raise ValueError(f"method must be one of {RECON_METHODS}, got {self.method!r}")
        if self.n_mc_samples < 10:
            raise ValueError(f"n_mc_samples must be >= 10, got {self.n_mc_samples}")
        if not self.mle_tol > 0.0:
            raise ValueError(f"mle_tol must be positive, got {self.mle_tol}")
        if self.mle_max_iter < 1:
            raise ValueError(f"mle_max_iter must be >= 1, got {self.mle_max_iter}")


@dataclass(frozen=True)
class SweepConfig:
    """A parameter scan; values are stored in internal units (radians)."""

    parameter: str = "p"
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"sweep parameter must be one of {SWEEP_PARAMETERS}, "
                f"got {self.parameter!r}"
            )
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("sweep values must be finite")
        if self.parameter == "p" and not all(0.0 <= v <= 0.5 for v in values):
            raise ValueError("sweep values for p must lie in [0, 0.5]")
        if self.parameter == "visibility" and not all(0.0 <= v <= 1.0 for v in values):
            raise ValueError("sweep values for visibility must lie in [0, 1]")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; immutable and cheap to share across threads."""

    source: SourceConfig = SourceConfig()
    channel: NoisyChannelSpec = NoisyChannelSpec()
    interferometer: InterferometerConfig = InterferometerConfig()
    tomography: TomographyConfig = TomographyConfig()
    sweep: SweepConfig | None = None
    seed: int = 0
    output_dir: str = "."
    count_mode: str = "sampled"
    workers: int = 1  # accepted and validated; sweep points always run serially

    def __post_init__(self) -> None:
        if self.count_mode not in COUNT_MODES:
            raise ValueError(
                f"count_mode must be one of {COUNT_MODES}, got {self.count_mode!r}"
            )
        _integer_fields(self, "seed", "workers")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunReport:
    """JSON-compatible run record: config echo, stage payloads, versions."""

    experiment: str
    config: dict
    stages: dict
    run: dict
    versions: dict
    schema_version: int = SCHEMA_VERSION

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "config": self.config,
            "stages": self.stages,
            "versions": self.versions,
            "run": self.run,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")


def derive_seed(base: int, *key: int) -> int:
    """Stable substream seed for a pipeline stage, independent of run order."""
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(2, np.uint64)[0])


# ---------------------------------------------------------------------------
# Config file handling. The dataclasses are the schema: a file key is the
# field name, with ``_deg`` appended for angles, which files give in degrees
# and the dataclasses hold in radians. Defaults and range checks live in the
# dataclasses alone.

_ANGLES = frozenset({"sum_phase", "phase_a", "phase_b", "phase_jitter_sigma", "angle"})
# Scalar field annotations (strings under ``from __future__ import annotations``).
_TYPES = {"int": int, "float": float, "str": str}
_STAGE_TYPES = {"coherent": CoherentStage, "rotating_plate": RotatingPlateStage}


def _key(name: str) -> str:
    return name + "_deg" if name in _ANGLES else name


def _value(val, kind, where, errors):
    """``val`` as a ``kind`` field value, or None after recording a diagnostic."""
    if kind is str:
        if isinstance(val, str):
            return val
        want = "a string"
    elif isinstance(val, bool) or not isinstance(val, (int, float)):
        want = "a number"
    elif isinstance(val, float) and not math.isfinite(val) or (
        kind is float and abs(val) > sys.float_info.max
    ):
        want = "a finite number"
    elif kind is int and isinstance(val, float) and not val.is_integer():
        want = "an integer"
    else:
        return kind(val)
    errors.append(f"{where}: expected {want}, got {val!r}")
    return None


def _parse(cls, raw, section, errors, **given):
    """Build ``cls`` from one file section, or None after recording diagnostics.

    Scalar fields are read from ``raw``; ``given`` supplies the already
    parsed nested ones, whose keys ``raw`` may also carry.
    """
    if not isinstance(raw, dict):
        errors.append(f"{section}: expected an object")
        return None
    kwargs = dict(given)
    known = set(given)
    for f in fields(cls):
        if f.type not in _TYPES:
            continue
        key = _key(f.name)
        known.add(key)
        if key in raw:
            val = _value(raw[key], _TYPES[f.type], f"{section}.{key}", errors)
            if val is not None:
                kwargs[f.name] = math.radians(val) if f.name in _ANGLES else val
    errors.extend(f"{section}.{key}: unknown field" for key in raw if key not in known)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        errors.append(f"{section}: {exc}")
        return None


def _echo(obj) -> dict:
    """The scalar and wave-plate fields of a config dataclass, in file units."""
    raw = {}
    for f in fields(obj):
        val = getattr(obj, f.name)
        if f.name in _ANGLES:
            val = math.degrees(val)
        elif isinstance(val, tuple):
            val = [_echo(plate) for plate in val]
        elif f.type not in _TYPES:
            continue
        raw[_key(f.name)] = val
    return raw


def _parse_plates(raw, section, errors) -> tuple[WaveplateSpec, ...]:
    if not isinstance(raw, list):
        errors.append(f"{section}: expected a list of wave plates")
        return ()
    plates = (
        _parse(WaveplateSpec, item, f"{section}[{k}]", errors) for k, item in enumerate(raw)
    )
    return tuple(p for p in plates if p is not None)


def _parse_channel(raw, errors) -> NoisyChannelSpec | None:
    items = raw.get("stages", []) if isinstance(raw, dict) else []
    if not isinstance(items, list):
        errors.append("channel.stages: expected a list")
        items = []
    stages = []
    for k, item in enumerate(items):
        section = f"channel.stages[{k}]"
        if not isinstance(item, dict):
            errors.append(f"{section}: expected an object")
            continue
        item = dict(item)
        kind = item.pop("type", None)
        cls = _STAGE_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            errors.append(
                f"{section}.type: expected 'coherent' or 'rotating_plate', got {kind!r}"
            )
            continue
        plates = {}
        if cls is CoherentStage:
            plates = {
                arm: _parse_plates(item.get(arm, []), f"{section}.{arm}", errors)
                for arm in ("plates_a", "plates_b")
            }
        stage = _parse(cls, item, section, errors, **plates)
        if stage is not None:
            stages.append(stage)
    return _parse(NoisyChannelSpec, raw, "channel", errors, stages=tuple(stages))


def _parse_sweep(raw, errors) -> SweepConfig | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        errors.append("sweep: expected an object or null")
        return None
    values = raw.get("values", [])
    if not isinstance(values, list):
        errors.append("sweep.values: expected a list of numbers")
        return None
    values = [_value(v, float, f"sweep.values[{k}]", errors) for k, v in enumerate(values)]
    if None in values:
        return None
    if raw.get("parameter") == "sum_phase":
        values = [math.radians(v) for v in values]
    return _parse(SweepConfig, raw, "sweep", errors, values=tuple(values))


def _build_config(raw, errors: list[str]) -> ExperimentConfig | None:
    if not isinstance(raw, dict):
        errors.append("config: top level must be an object")
        return None

    def section(cls, name):
        return _parse(cls, raw.get(name, {}), name, errors)

    return _parse(
        ExperimentConfig, raw, "config", errors,
        source=section(SourceConfig, "source"),
        channel=_parse_channel(raw.get("channel", {}), errors),
        interferometer=section(InterferometerConfig, "interferometer"),
        tomography=section(TomographyConfig, "tomography"),
        sweep=_parse_sweep(raw.get("sweep"), errors),
    )


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"config: cannot read file: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:  # undecodable bytes, oversized integer literals
        raise ConfigError([f"config: cannot parse file: {exc}"]) from exc


def validate(cfg) -> list[str]:
    """Diagnostics for a raw config tree (or an already-built config).

    Returns one line per violated invariant, empty when the config is
    sound. Accepts the parsed JSON dict, a path to a JSON file, or an
    :class:`ExperimentConfig` (which is valid by construction).
    """
    if isinstance(cfg, ExperimentConfig):
        return []
    if isinstance(cfg, (str, Path)):
        try:
            cfg = _read_json(cfg)
        except ConfigError as exc:
            return exc.diagnostics
    errors: list[str] = []
    _build_config(cfg, errors)
    return errors


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file; raises ConfigError on problems."""
    errors: list[str] = []
    cfg = _build_config(_read_json(path), errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def default_config(experiment: str = "purify") -> ExperimentConfig:
    """Built-in config for each subcommand, matching the reference setup."""
    base = ExperimentConfig(
        source=SourceConfig(
            balance_p=0.5, franson_visibility=0.979, sum_phase=0.0, pol_input="pure_VH"
        ),
        channel=NoisyChannelSpec((RotatingPlateStage(arm="A", kind="half", steps=360),)),
        interferometer=InterferometerConfig(),
        tomography=TomographyConfig(),
        seed=0,
    )
    if experiment in ("purify", "custom"):
        return base
    if experiment == "chsh-sweep":
        return replace(
            base,
            source=replace(base.source, pol_input="bell_p"),
            channel=NoisyChannelSpec(()),
            sweep=SweepConfig("p", DEFAULT_SWEEP_VALUES),
        )
    if experiment == "fringe-scan":
        return replace(
            base,
            source=replace(base.source, pol_input="bell_p"),
            channel=NoisyChannelSpec(()),
        )
    raise ValueError(f"unknown experiment {experiment!r}")


def config_to_raw(cfg: ExperimentConfig) -> dict:
    """Config echo in file units (degrees), embedded in every report."""
    sweep = None
    if cfg.sweep is not None:
        values = list(cfg.sweep.values)
        if cfg.sweep.parameter == "sum_phase":
            values = [math.degrees(v) for v in values]
        sweep = {"parameter": cfg.sweep.parameter, "values": values}
    stage_names = {cls: name for name, cls in _STAGE_TYPES.items()}
    # Scalars first, then the sections: this order is part of the report bytes.
    return {
        **_echo(cfg),
        "source": _echo(cfg.source),
        "channel": {
            "stages": [
                {"type": stage_names[type(stage)], **_echo(stage)}
                for stage in cfg.channel.stages
            ]
        },
        "interferometer": _echo(cfg.interferometer),
        "tomography": _echo(cfg.tomography),
        "sweep": sweep,
    }


# ---------------------------------------------------------------------------
# The pipeline shared by the experiments.

def _tomography_branch(
    rho: DensityMatrix, cfg: ExperimentConfig, seed: int
) -> tuple[CountData, MetricsReport]:
    """Counts, and the metrics of their one batched fit, for one state."""
    tcfg = cfg.tomography
    settings = standard_settings()
    if cfg.count_mode == "analytic":
        data = analytic_counts(rho, settings, tcfg.pairs_per_setting)
    else:
        data = simulate_counts(rho, settings, tcfg.pairs_per_setting, seed=seed)
    metrics = monte_carlo_metrics(
        data,
        n_samples=tcfg.n_mc_samples,
        seed=derive_seed(seed, 1),
        method=tcfg.method,
        resample=(cfg.count_mode == "sampled"),
        tol=tcfg.mle_tol,
        max_iter=tcfg.mle_max_iter,
    )
    return data, metrics


def _run_point(cfg: ExperimentConfig, source: SourceConfig, *key: int):
    """One pipeline evaluation: source, channel, blocked input and transfer.

    Returns the source state, the blocked state, the transfer outcome, and
    ``{"input" | "output": (rho, counts, metrics)}``. Branch
    ``b`` (1 input, 2 output) draws from ``derive_seed(cfg.seed, b, *key)``.
    """
    src = make_source_state(source)
    after = apply_noisy_channel(src, cfg.channel)
    blocked = block_long_arms(after)
    outcome = transfer(after, cfg.interferometer)
    branches = {}
    for b, name, rho in ((1, "input", blocked.pol_marginal()),
                         (2, "output", outcome.pol_out)):
        seed = derive_seed(cfg.seed, b, *key)
        branches[name] = (rho, *_tomography_branch(rho, cfg, seed))
    return src, blocked, outcome, branches


def _branch_payload(rho: DensityMatrix, metrics: MetricsReport, **extra) -> dict:
    truth = _metric_vector(rho, DEFAULT_CHSH_ANGLES).tolist()
    return {
        "model_truth": dict(zip(METRIC_NAMES, truth)),
        **extra,
        "reconstruction": _reconstruction_block(metrics.point_fit),
        "metrics": metrics.as_dict(),
    }


def _reconstruction_block(recon: ReconstructionResult) -> dict:
    return {
        "method": recon.method,
        "iterations": recon.iterations,
        "converged": recon.converged,
        "gap": recon.gap,
        "loglike": recon.loglike,
        "floor_hits": recon.floor_hits,
    }


def _finish(experiment, cfg, stages, t0, out_dir, report_name) -> RunReport:
    """The run report; written with its plot tables when ``out_dir`` is given.

    A report with notes gains one more when any bootstrap or point MLE fit
    did not converge.
    """
    bootstrap, point = _count_nonconverged(stages)
    if (bootstrap or point) and "notes" in stages:
        stages["notes"].append(
            f"Non-converged fits: {bootstrap} bootstrap MLE fit(s) and {point} "
            "point fit(s) stopped at mle_max_iter without converging; the "
            "bootstrap fits are kept in the sigmas (see n_nonconverged in each "
            "metrics block and converged in each reconstruction block)."
        )
    report = RunReport(
        experiment=experiment,
        config=config_to_raw(cfg),
        stages=stages,
        run={
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": time.perf_counter() - t0,
        },
        versions={
            "fransonsim": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.write(out / report_name)
        emit_plot_data(report, out)
    return report


def run_purification(cfg: ExperimentConfig, out_dir=None) -> RunReport:
    """Experiment A: tomography of the state before and after transfer.

    The input branch blocks both long arms and measures the polarization
    state that survives; the output branch runs the full transfer and
    measures the polarization state it produces. When ``out_dir`` is given,
    counts, reconstructed matrices, and the report are written there.
    """
    t0 = time.perf_counter()
    src, blocked, outcome, branches = _run_point(cfg, cfg.source)
    tomography = {}
    for name, (rho, data, metrics) in branches.items():
        payload = _branch_payload(rho, metrics, state_weight=rho.weight)
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            payload["counts_csv"] = f"counts_{name}.csv"
            payload["dump"] = f"rho_{name}_reconstructed.txt"
            counts_to_csv(data, out / payload["counts_csv"])
            dump_density_matrix(metrics.point_fit.rho, out / payload["dump"])
        tomography[name] = payload

    stages = {
        "source": {
            "weight": src.weight,
            "pol_purity": purity(src.pol_marginal()),
            "et_purity": purity(src.et_marginal()),
        },
        "blocked_input_weight": blocked.weight,
        "transfer": {
            "port_probs": [float(p) for p in outcome.port_probs],
            "franson_postselection_fraction": outcome.franson_postselection_fraction,
            "joint_weight": outcome.joint_out.weight,
        },
        "tomography": tomography,
        "notes": [GAP_NOTE],
    }
    return _finish("purify", cfg, stages, t0, out_dir, "report_purify.json")


def _sweep_source(cfg: ExperimentConfig, parameter: str, value: float) -> SourceConfig:
    if parameter == "p":
        return replace(cfg.source, pol_input="bell_p", balance_p=value)
    if parameter == "visibility":
        return replace(cfg.source, franson_visibility=value)
    return replace(cfg.source, sum_phase=value)


def run_chsh_sweep(cfg: ExperimentConfig, out_dir=None) -> RunReport:
    """Experiment B: CHSH of input and output across the balance parameter.

    Sweep points run one after another; ``workers`` is accepted and
    validated but changes nothing. The seed substream of a point depends
    only on its index.
    """
    t0 = time.perf_counter()
    if cfg.sweep is not None and cfg.sweep.parameter != "p":
        raise ConfigError(
            [f"sweep.parameter: chsh-sweep scans 'p', got {cfg.sweep.parameter!r}"]
        )

    def point(index: int, p: float) -> dict:
        branches = _run_point(cfg, _sweep_source(cfg, "p", p), index)[3]
        (rho_in, _, m_in), (rho_out, _, m_out) = branches["input"], branches["output"]
        return {
            "p": p,
            "s_in": m_in.s_value,
            "s_in_sigma": m_in.s_value_sigma,
            "s_out": m_out.s_value,
            "s_out_sigma": m_out.s_value_sigma,
            "s_in_true": chsh_value(rho_in),
            "s_out_true": chsh_value(rho_out),
            "input_reconstruction": _reconstruction_block(m_in.point_fit),
            "output_reconstruction": _reconstruction_block(m_out.point_fit),
            "input_metrics": m_in.as_dict(),
            "output_metrics": m_out.as_dict(),
        }

    values = cfg.sweep.values if cfg.sweep is not None else DEFAULT_SWEEP_VALUES
    rows = list(map(point, range(len(values)), values))
    stages = {"sweep_rows": rows, "notes": [GAP_NOTE]}
    report = _finish("chsh-sweep", cfg, stages, t0, out_dir, "report_chsh_sweep.json")
    if out_dir is not None:
        csv_path = Path(out_dir) / "chsh_sweep.csv"
        csv_path.write_text(_chsh_table(rows, ","), encoding="ascii")
    return report


def run_custom(cfg: ExperimentConfig, out_dir=None) -> RunReport:
    """Free-form pipeline: the purify stages over any configured sweep."""
    t0 = time.perf_counter()
    sweep = cfg.sweep

    def point(index: int, value) -> dict:
        source = cfg.source if sweep is None else _sweep_source(cfg, sweep.parameter, value)
        _, blocked, outcome, branches = _run_point(cfg, source, index)
        row = {
            name: _branch_payload(rho, metrics)
            for name, (rho, _, metrics) in branches.items()
        }
        row["port_probs"] = [float(p) for p in outcome.port_probs]
        row["blocked_input_weight"] = blocked.weight
        if sweep is not None:
            row["parameter"] = sweep.parameter
            row["value"] = float(value)
        return row

    values = [None] if sweep is None else sweep.values
    rows = list(map(point, range(len(values)), values))
    stages = {"points": rows, "notes": [GAP_NOTE]}
    return _finish("custom", cfg, stages, t0, out_dir, "report_custom.json")


def run_fringe_scan(cfg: ExperimentConfig, out_dir=None, n_points: int = 25) -> RunReport:
    """Scan the interferometer sum phase and read off the fringe visibility."""
    t0 = time.perf_counter()
    if cfg.sweep is not None and cfg.sweep.parameter == "sum_phase":
        phases = list(cfg.sweep.values)
    else:
        phases = list(np.linspace(0.0, 2.0 * math.pi, n_points))
    state = apply_noisy_channel(make_source_state(cfg.source), cfg.channel)
    points = sum_phase_scan(state, cfg.interferometer, phases)
    vis = fringe_visibility(points)
    stages = {
        "fringe": {
            "phases_rad": [p for p, _ in points],
            "probabilities": [q for _, q in points],
            "visibility": vis,
            "configured_visibility": cfg.source.franson_visibility,
        }
    }
    return _finish("fringe-scan", cfg, stages, t0, out_dir, "report_fringe.json")


# ---------------------------------------------------------------------------
# Plot-ready text tables.

_CHSH_COLUMNS = ("p", "s_in", "s_in_sigma", "s_out", "s_out_sigma")


def _table(header: str, rows, sep: str = " ") -> str:
    """A header line, then one line of 17-digit numbers per row."""
    lines = [header] + [sep.join(f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _chsh_table(rows, sep: str) -> str:
    """The CHSH sweep as CSV (``sep=","``) or as a gnuplot table (``sep=" "``)."""
    header = sep.join(_CHSH_COLUMNS) if sep == "," else "# " + sep.join(_CHSH_COLUMNS)
    return _table(header, ([row[k] for k in _CHSH_COLUMNS] for row in rows), sep)


def density_matrix_bars(rho: DensityMatrix) -> str:
    """Gnuplot-style bar table of a matrix: row, col, magnitude, phase."""
    return _table(
        "# row col magnitude phase_rad",
        ((i, j, abs(z), float(np.angle(z))) for (i, j), z in np.ndenumerate(rho.data)),
    )


def emit_plot_data(report: RunReport | dict, out_dir) -> list[str]:
    """Write plot-ready text tables for whatever the report contains."""
    rep = report.as_dict() if isinstance(report, RunReport) else report
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def write(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="ascii")
        written.append(str(out / name))

    stages = rep.get("stages", {})
    fringe = stages.get("fringe")
    if fringe:
        write("fringe.dat", _table(
            "# sum_phase_rad probability",
            zip(fringe["phases_rad"], fringe["probabilities"]),
        ))
    rows = stages.get("sweep_rows")
    if rows:
        write("chsh_sweep.dat", _chsh_table(rows, " "))
    for name, payload in stages.get("tomography", {}).items():
        dump = payload.get("dump")
        if dump and (out / dump).exists():
            rho = load_density_matrix(out / dump)
            write(f"rho_{name}_bars.dat", density_matrix_bars(rho))
    return written


# ---------------------------------------------------------------------------
# Command line.

def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.analytic:
        cfg = replace(cfg, count_mode="analytic")
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if args.mc_samples is not None:
        cfg = replace(cfg, tomography=replace(cfg.tomography, n_mc_samples=args.mc_samples))
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fransonsim",
        description=(
            "Simulate polarization-entanglement recovery through noisy "
            "channels via energy-time entanglement transfer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "validate": "check a config file and print diagnostics",
        "purify": "tomography of the polarization state before and after transfer",
        "chsh-sweep": "CHSH values of input and output across the balance parameter",
        "custom": "purify pipeline over an arbitrary configured sweep",
        "fringe-scan": "interference fringe against the interferometer sum phase",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override the seed")
        sp.add_argument(
            "--analytic", action="store_true",
            help="use exact probabilities instead of Poisson counts",
        )
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument(
            "--mc-samples", type=int, default=None,
            help="override the bootstrap sample count",
        )
    return parser


def _print_purify_summary(report: RunReport) -> None:
    for name in ("input", "output"):
        m = report.stages["tomography"][name]["metrics"]
        print(
            f"{name:>6}: F = {m['fidelity']:.4f} +/- {m['fidelity_sigma']:.4f}  "
            f"C = {m['concurrence']:.4f} +/- {m['concurrence_sigma']:.4f}  "
            f"gamma = {m['purity']:.4f} +/- {m['purity_sigma']:.4f}  "
            f"S = {m['s_value']:.4f} +/- {m['s_value_sigma']:.4f}"
        )
    ports = report.stages["transfer"]["port_probs"]
    print("ports (SS SL LS LL):", " ".join(f"{p:.4f}" for p in ports))


def main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on config errors, 2 on run errors."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            target = args.config
            if target is None:
                diags = validate(config_to_raw(default_config("purify")))
            else:
                diags = validate(target)
            for diag in diags:
                print(diag)
            if diags:
                return 1
            print("config ok")
            return 0

        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = default_config(args.command)
        try:
            cfg = _apply_overrides(cfg, args)
        except ValueError as exc:
            raise ConfigError([f"overrides: {exc}"]) from exc
        out_dir = Path(cfg.output_dir)

        if args.command == "purify":
            report = run_purification(cfg, out_dir)
            _print_purify_summary(report)
        elif args.command == "chsh-sweep":
            report = run_chsh_sweep(cfg, out_dir)
            for row in report.stages["sweep_rows"]:
                print(
                    f"p = {row['p']:.3f}: S_in = {row['s_in']:.4f} "
                    f"+/- {row['s_in_sigma']:.4f}, S_out = {row['s_out']:.4f} "
                    f"+/- {row['s_out_sigma']:.4f}"
                )
        elif args.command == "custom":
            report = run_custom(cfg, out_dir)
            print(f"custom run: {len(report.stages['points'])} point(s)")
        elif args.command == "fringe-scan":
            report = run_fringe_scan(cfg, out_dir)
            fringe = report.stages["fringe"]
            print(
                f"visibility = {fringe['visibility']:.6f} "
                f"(configured {fringe['configured_visibility']:.6f})"
            )
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
        return 0
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    except (PostselectionError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
