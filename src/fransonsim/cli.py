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
single config seed: each branch of each point gets its own seed from
:func:`derive_seed`, and its counts and its bootstrap resamples are one
Poisson draw each, so outputs are byte-identical for one (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .optics import (
    CoherentStage,
    NoisyChannelSpec,
    RotatingPlateStage,
    SourceConfig,
    WaveplateSpec,
    _channel_stack,
    _source_stack,
    apply_noisy_channel,
    make_source_state,
)
from .qcore import (
    _ET_MARGINAL,
    _POL_MARGINAL,
    DensityMatrix,
    _check_states,
    _integer_fields,
    _marginals,
    _purities,
    _roots,
    dump_density_matrix,
    load_density_matrix,
)
from .tomo import (
    DEFAULT_PAIRS_PER_SETTING,
    MAX_PAIRS_PER_SETTING,
    METRIC_NAMES,
    MLE_DEFAULT_MAX_ITER,
    MLE_DEFAULT_TOL,
    CountData,
    MetricsReport,
    ReconstructionResult,
    _bootstrap_reports,
    _check_pairs,
    _metric_rows,
    _mle_options,
    _probabilities,
    _stage,
    counts_to_csv,
)
from .transfer import (
    FRANSON_POSTSELECTION_FRACTION,
    InterferometerConfig,
    _blocked,
    _check_ports,
    _transfer_mask,
    _transferred,
    fringe_visibility,
    sum_phase_scan,
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


class ConfigError(Exception):
    """Invalid configuration; carries one diagnostic per violated field."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


# Each resample of each branch is a row of the run's one stacked fit, about
# 8 KB per row in the MLE: a default purify run at this bound needs 1.6 GB.
MAX_MC_SAMPLES = 100_000


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
        _check_pairs(self.pairs_per_setting)
        if self.method not in RECON_METHODS:
            raise ValueError(f"method must be one of {RECON_METHODS}, got {self.method!r}")
        if not 10 <= self.n_mc_samples <= MAX_MC_SAMPLES:
            raise ValueError(
                f"n_mc_samples must be in [10, {MAX_MC_SAMPLES}], got {self.n_mc_samples}"
            )
        _mle_options("mle_", tol=self.mle_tol, max_iter=self.mle_max_iter)


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
        Path(path).write_text(_json_dumps(self.as_dict()) + "\n", encoding="ascii")


def _json_dumps(obj, newline: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2)``, 1.6 to 1.8 times as fast on reports.

    json runs its pure-Python encoder whenever ``indent`` is set. This tests
    types in json's order and by its subclass rules, so a bool is not an
    int, an IntEnum is written by ``int.__repr__`` and a float subclass by
    ``float.__repr__``; what json refuses, such as a set or a numpy integer,
    raises its TypeError. ``newline`` is the line break and indent of
    ``obj``'s own level. A circular reference recurses without end instead
    of raising json's ValueError.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _JSON_NONFINITE.get(text, text)
    inner = newline + "  "
    # Finite plain floats, most of a report's values, skip the call.
    if isinstance(obj, (list, tuple)):
        items = [float.__repr__(v) if type(v) is float and v - v == 0.0 else _json_dumps(v, inner)
                 for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [
            (encode_basestring_ascii(k) if type(k) is str else _json_key(k)) + ": "
            + (float.__repr__(v) if type(v) is float and v - v == 0.0 else _json_dumps(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_key(key) -> str:
    """A dict key as json writes it: a str as is, a number, bool or None by its value's text."""
    if not isinstance(key, (str, int, float)) and key is not None:
        name = key.__class__.__name__
        raise TypeError(f"keys must be str, int, float, bool or None, not {name}")
    return encode_basestring_ascii(key if isinstance(key, str) else _json_dumps(key))


def derive_seed(base: int, *key: int) -> int:
    """Stable seed for one pipeline stage, independent of run order."""
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


def _degrees(x: float) -> float:
    """The degree value nearest ``math.degrees(x)`` that ``math.radians`` maps back to x.

    ``math.radians(math.degrees(x))`` misses x by an ulp for some x; one
    step to a neighbour finds an exact value for angles read from a file.
    Where no neighbour is exact, ``math.degrees(x)`` is kept.
    """
    deg = math.degrees(x)
    if math.radians(deg) == x:
        return deg
    steps = (math.nextafter(deg, -math.inf), math.nextafter(deg, math.inf))
    exact = [d for d in steps if math.radians(d) == x]
    return min(exact, key=lambda d: abs(d - deg), default=deg)


def _echo(obj) -> dict:
    """The scalar and wave-plate fields of a config dataclass, in file units."""
    raw = {}
    for f in fields(obj):
        val = getattr(obj, f.name)
        if f.name in _ANGLES:
            val = _degrees(val)
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
            values = [_degrees(v) for v in values]
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

# The timed pipeline stages; a report's run block gives the seconds spent in
# each, over all points, as ``stage_s``. The fringe scan has its own three.
STAGE_NAMES = ("source", "channel", "transfer", "counts", "resample", "fit", "metrics")


# The source field that each sweep parameter sets.
_SWEPT = {"p": "balance_p", "visibility": "franson_visibility", "sum_phase": "sum_phase"}


def _sweep_points(cfg: ExperimentConfig, sweep: SweepConfig | None) -> list:
    """Each sweep point's source config and seed key ``(index,)``; one point without a sweep.

    A ``p`` sweep runs the ``bell_p`` input, whatever ``source.pol_input`` says.
    """
    if sweep is None:
        return [(cfg.source, (0,))]
    source = replace(cfg.source, pol_input="bell_p") if sweep.parameter == "p" else cfg.source
    return [
        (replace(source, **{_SWEPT[sweep.parameter]: value}), (index,))
        for index, value in enumerate(sweep.values)
    ]


def _run_points(cfg: ExperimentConfig, points, stage_s: dict) -> tuple:
    """The physics of all points as one stack, then one tomography pass over their branches.

    ``points`` gives each point's source config and seed key. Source,
    channel, blocked input and transfer each act on the (B, 16, 16) stack of
    all points, and each stage's stack, then all marginals, are checked by
    one :func:`~fransonsim.qcore._state_errors` call, which raises the first
    failing row's error; the port probabilities meet the bounds of
    :class:`~fransonsim.transfer.TransferOutcome`. The branch states, each
    point's input then output, are one stack; one product gives all their
    mean counts, which are the analytic counts (:func:`~fransonsim.tomo._probabilities`).
    Sampled counts of branch ``b`` (1 input, 2 output) are drawn from its means
    by ``default_rng(derive_seed(cfg.seed, b, *key))`` and its resamples from
    ``derive_seed`` of that seed and 1. The count stack and the one flux go to
    one batch that checks and fits every branch
    (:func:`~fransonsim.tomo._bootstrap_reports`).

    Returns the checked source stack, each point's blocked input weight (the
    trace that :func:`~fransonsim.transfer._blocked` kept), the (B, 4) port
    probabilities (the diagonal of each path marginal) and per point
    ``{"input" | "output": (counts, metrics, truth)}``, with ``counts`` the
    branch's row of the count stack and ``truth`` its metrics by name.
    The time of each of the STAGE_NAMES is added to ``stage_s``.
    """
    tcfg, n = cfg.tomography, len(points)
    with _stage(stage_s, "source"):
        sources = _check_states(_source_stack([source for source, _ in points]))
    with _stage(stage_s, "channel"):
        after = _channel_stack(sources, cfg.channel)
        if cfg.channel.stages:
            _check_states(after)
    with _stage(stage_s, "transfer"):
        blocked, kept = _blocked(after)
        joints = _transferred(after, _transfer_mask(cfg.interferometer))
        _check_states(blocked)
        _check_states(joints)
        pol_in, pol_out, paths = _check_states(np.concatenate([
            _marginals(blocked, _POL_MARGINAL),
            _marginals(joints, _POL_MARGINAL),
            _marginals(joints, _ET_MARGINAL),
        ])).reshape(3, n, 4, 4)
        del after, blocked, joints  # only the marginals are kept
        ports = _check_ports(paths.diagonal(axis1=1, axis2=2).real)
    stack = np.stack([pol_in, pol_out], axis=1).reshape(2 * n, 4, 4)  # the branches in order
    with _stage(stage_s, "counts"):
        counts = tcfg.pairs_per_setting * _probabilities(stack)
        seeds = [None] * len(counts)  # analytic counts are the means; nothing is drawn
        if cfg.count_mode == "sampled":
            seeds = [derive_seed(cfg.seed, b, *key) for _, key in points for b in (1, 2)]
            for row, seed in zip(counts, seeds):
                row[:] = np.random.default_rng(seed).poisson(row)
            seeds = [derive_seed(seed, 1) for seed in seeds]
    reports = _bootstrap_reports(
        counts, tcfg.pairs_per_setting, seeds, n_samples=tcfg.n_mc_samples, method=tcfg.method,
        resample=(cfg.count_mode == "sampled"), stage_s=stage_s,
        tol=tcfg.mle_tol, max_iter=tcfg.mle_max_iter,
    )
    truths = [dict(zip(METRIC_NAMES, row)) for row in _metric_rows(stack, _roots(stack)).tolist()]
    branches = list(zip(counts, reports, truths))
    return sources, kept, ports, [
        {"input": branches[2 * i], "output": branches[2 * i + 1]} for i in range(n)
    ]


def _branch_payload(metrics: MetricsReport, truth: dict, **extra) -> dict:
    return {
        "model_truth": truth,
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


def _finish(experiment, cfg, stages, t0, out_dir, report_name, stage_s, branches=()) -> RunReport:
    """The run report; written with its plot tables when ``out_dir`` is given.

    ``branches`` are those of :func:`_run_points`; when any of their
    bootstrap or point MLE fits did not converge, the report's notes gain
    one more. ``stage_s``, the pipeline's seconds per stage, goes into the
    run block.
    """
    metrics = [branch[1] for point in branches for branch in point.values()]
    bootstrap = sum(m.n_nonconverged for m in metrics)
    point = sum(not m.point_fit.converged for m in metrics)
    if bootstrap or point:
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
            "stage_s": stage_s,
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


def _refuse_sweep(experiment: str, sweep: SweepConfig | None, scans: str | None) -> None:
    """Refuse, naming ``sweep.parameter``, a sweep that ``experiment`` would ignore.

    ``scans`` is the one parameter the experiment sweeps, or None if it runs
    the one ``source`` point.
    """
    if sweep is not None and sweep.parameter != scans:
        what = f"scans {scans!r}" if scans else "runs the one source point and takes no sweep"
        raise ConfigError([f"sweep.parameter: {experiment} {what}, got {sweep.parameter!r}"])


def run_purification(cfg: ExperimentConfig, out_dir=None) -> RunReport:
    """Experiment A: tomography of the state before and after transfer.

    The input branch blocks both long arms and measures the polarization
    state that survives; the output branch runs the full transfer and
    measures the polarization state it produces. When ``out_dir`` is given,
    counts, reconstructed matrices, and the report are written there. A
    config with a sweep is refused.
    """
    _refuse_sweep("purify", cfg.sweep, None)
    t0 = time.perf_counter()
    stage_s = dict.fromkeys(STAGE_NAMES, 0.0)
    sources, [kept], [ports], branches = _run_points(cfg, [(cfg.source, ())], stage_s)
    pol_purity, et_purity = _purities(_check_states(np.concatenate([
        _marginals(sources, _POL_MARGINAL), _marginals(sources, _ET_MARGINAL)
    ]))).tolist()
    tomography = {}
    for name, (counts, metrics, truth) in branches[0].items():
        # the input keeps the weight of its blocked long arms; the output is not postselected
        payload = _branch_payload(metrics, truth, state_weight=kept if name == "input" else 1.0)
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            payload["counts_csv"] = f"counts_{name}.csv"
            payload["dump"] = f"rho_{name}_reconstructed.txt"
            counts_to_csv(CountData(counts, cfg.tomography.pairs_per_setting),
                          out / payload["counts_csv"])
            dump_density_matrix(metrics.point_fit.rho, out / payload["dump"])
        tomography[name] = payload

    # The source is prepared whole, and neither the channel nor the transfer
    # postselects, so the source and the transferred pair keep weight 1.0.
    stages = {
        "source": {"weight": 1.0, "pol_purity": pol_purity, "et_purity": et_purity},
        "blocked_input_weight": kept,
        "transfer": {
            "port_probs": ports.tolist(),
            "franson_postselection_fraction": FRANSON_POSTSELECTION_FRACTION,
            "joint_weight": 1.0,
        },
        "tomography": tomography,
        "notes": [GAP_NOTE],
    }
    return _finish("purify", cfg, stages, t0, out_dir, "report_purify.json", stage_s, branches)


def run_chsh_sweep(cfg: ExperimentConfig, out_dir=None) -> RunReport:
    """Experiment B: CHSH of input and output across the balance parameter.

    The physics of all sweep points runs as one stack, then the counts of
    all their branches are fitted in one batch (see :func:`_run_points`);
    ``workers`` is accepted and validated but changes nothing. The seeds of
    a point depend only on its index. ``s_in_true`` and ``s_out_true`` are
    the CHSH values of the model states.
    """
    t0 = time.perf_counter()
    sweep = cfg.sweep or SweepConfig("p", DEFAULT_SWEEP_VALUES)
    _refuse_sweep("chsh-sweep", sweep, "p")
    stage_s = dict.fromkeys(STAGE_NAMES, 0.0)
    *_, branches = _run_points(cfg, _sweep_points(cfg, sweep), stage_s)
    rows = []
    for p, point in zip(sweep.values, branches):
        (_, m_in, t_in), (_, m_out, t_out) = point["input"], point["output"]
        rows.append({
            "p": p,
            "s_in": m_in.s_value,
            "s_in_sigma": m_in.s_value_sigma,
            "s_out": m_out.s_value,
            "s_out_sigma": m_out.s_value_sigma,
            "s_in_true": t_in["s_value"],
            "s_out_true": t_out["s_value"],
            "input_reconstruction": _reconstruction_block(m_in.point_fit),
            "output_reconstruction": _reconstruction_block(m_out.point_fit),
            "input_metrics": m_in.as_dict(),
            "output_metrics": m_out.as_dict(),
        })
    stages = {"sweep_rows": rows, "notes": [GAP_NOTE]}
    report = _finish(
        "chsh-sweep", cfg, stages, t0, out_dir, "report_chsh_sweep.json", stage_s, branches
    )
    if out_dir is not None:
        csv_path = Path(out_dir) / "chsh_sweep.csv"
        csv_path.write_text(_chsh_table(rows, ","), encoding="ascii")
    return report


def run_custom(cfg: ExperimentConfig, out_dir=None) -> RunReport:
    """Free-form pipeline: the purify stages over any configured sweep.

    As in :func:`run_chsh_sweep`, the physics of all points is one stack
    and one batched fit serves the branches of all points.
    """
    t0 = time.perf_counter()
    sweep = cfg.sweep
    stage_s = dict.fromkeys(STAGE_NAMES, 0.0)
    _, kept, ports, branches = _run_points(cfg, _sweep_points(cfg, sweep), stage_s)
    rows = []
    for i, point in enumerate(branches):
        row = {
            name: _branch_payload(metrics, truth)
            for name, (_, metrics, truth) in point.items()
        }
        row["port_probs"] = ports[i].tolist()
        row["blocked_input_weight"] = kept[i]
        if sweep is not None:
            row["parameter"] = sweep.parameter
            row["value"] = sweep.values[i]
        rows.append(row)
    stages = {"points": rows, "notes": [GAP_NOTE]}
    return _finish("custom", cfg, stages, t0, out_dir, "report_custom.json", stage_s, branches)


def run_fringe_scan(cfg: ExperimentConfig, out_dir=None, n_points: int = 25) -> RunReport:
    """Scan the interferometer sum phase and read off the fringe visibility.

    A ``sum_phase`` sweep gives the scan phases; without a sweep, ``n_points``
    phases span 0 to 2 pi. A sweep of any other parameter is refused, and so
    is one whose phases all fall on the dark fringe, where the visibility is
    undefined; without a sweep the scan covers a full period.
    """
    _refuse_sweep("fringe-scan", cfg.sweep, "sum_phase")
    t0 = time.perf_counter()
    if cfg.sweep is not None:
        phases = list(cfg.sweep.values)
    else:
        phases = list(np.linspace(0.0, 2.0 * math.pi, n_points))
    stage_s = dict.fromkeys(("source", "channel", "scan"), 0.0)
    with _stage(stage_s, "source"):
        state = make_source_state(cfg.source)
    with _stage(stage_s, "channel"):
        state = apply_noisy_channel(state, cfg.channel)
    with _stage(stage_s, "scan"):
        points = sum_phase_scan(state, cfg.interferometer, phases)
        probs = [q for _, q in points]
        if cfg.sweep is not None and max(probs) + min(probs) <= 0.0:
            raise ConfigError(["sweep.values: fringe-scan reads no light at any of these phases, "
                               "so the visibility is undefined; scan a phase off the dark fringe"])
        vis = fringe_visibility(points)
    stages = {
        "fringe": {
            "phases_rad": [p for p, _ in points],
            "probabilities": probs,
            "visibility": vis,
            "configured_visibility": cfg.source.franson_visibility,
        }
    }
    return _finish("fringe-scan", cfg, stages, t0, out_dir, "report_fringe.json", stage_s)


# ---------------------------------------------------------------------------
# Plot-ready text tables.

_CHSH_COLUMNS = ("p", "s_in", "s_in_sigma", "s_out", "s_out_sigma")


def _table(header: str, rows, sep: str = " ") -> str:
    """A header line, then one line of 17-digit numbers per row; every row has one width."""
    rows = [tuple(row) for row in rows]
    line = sep.join(["%.17g"] * len(rows[0])) if rows else ""
    return "\n".join([header] + [line % row for row in rows]) + "\n"


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
        if name == "validate":
            continue
        sp.add_argument("--seed", type=int, default=None, help="override the seed")
        sp.add_argument(
            "--analytic", action="store_true",
            help="use exact probabilities instead of Poisson counts",
        )
        sp.add_argument("--out", default=None, help="output directory in place of output_dir")
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
            diags = validate(config_to_raw(default_config()) if target is None else target)
            for diag in diags:
                print(diag)
            if diags:
                return 1
            print("config ok")
            return 0

        cfg = default_config(args.command) if args.config is None else load_config(args.config)
        try:
            cfg = _apply_overrides(cfg, args)
        except ValueError as exc:
            raise ConfigError([f"overrides: {exc}"]) from exc
        out_dir = Path(cfg.output_dir if args.out is None else args.out)

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
        return 0
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
