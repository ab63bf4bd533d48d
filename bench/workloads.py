"""Benchmark workloads: generated configs, the pipeline calls they make, output checks.

Every workload is a list of calls into the public pipeline functions, each
with a raw config in file units (degrees), exactly as a user would write
it. The workload seed becomes the config ``seed``; ``physics-analytic``
also draws its coherent wave-plate angles from it. ``tiny`` shrinks every
workload for the self-test while keeping its structure.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Callable

# Sampled outputs, (fidelity, concurrence) tolerance per method. MLE: the
# tolerance of acceptance criterion 3 (2.6e5 pairs). Linear inversion clips
# negative eigenvalues, which biases C low: over 300 seeds at 2.6e5 pairs
# and V in [0.5, 0.979] the C error had mean -0.002, sd 0.0016 and minimum
# -0.0068, and the F error mean -0.001, sd 0.0008 and largest size 0.0034.
SAMPLED_TOL = {"mle": (0.005, 0.005), "linear": (0.005, 0.01)}
# Analytic reconstruction against the model state.
ANALYTIC_TOL = 1e-9
# Analytic fringe visibility against V * exp(-sigma^2).
FRINGE_TOL = 1e-12

V_CAL = 0.979

_SCRAMBLER = {"type": "rotating_plate", "arm": "A", "kind": "half", "steps": 360}


def _base(seed: int) -> dict:
    """The built-in ``purify`` config, written out in file units."""
    return {
        "seed": seed,
        "count_mode": "sampled",
        "workers": 1,
        "source": {
            "balance_p": 0.5,
            "franson_visibility": V_CAL,
            "sum_phase_deg": 0.0,
            "pol_input": "pure_VH",
        },
        "channel": {"stages": [dict(_SCRAMBLER)]},
        "interferometer": {
            "phase_a_deg": 0.0,
            "phase_b_deg": 0.0,
            "delta_t_ns": 2.6,
            "coincidence_window_ns": 1.0,
            "phase_jitter_sigma_deg": 0.0,
        },
        "tomography": {
            "pairs_per_setting": 260_000,
            "method": "mle",
            "n_mc_samples": 100,
            "mle_tol": 1e-10,
            "mle_max_iter": 10_000,
        },
        "sweep": None,
    }


@dataclass(frozen=True)
class Call:
    runner: str  # name of a public fransonsim pipeline function
    raw: dict
    kwargs: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Callable[[int, bool], list]
    check: Callable[[list, list], list]


def _close(errors, label, got, want, tol) -> None:
    if not abs(got - want) <= tol:  # also catches NaN
        errors.append(f"{label}: got {got!r}, want {want!r} within {tol:g}")


def _sampled_output(errors, label, metrics, vis, method) -> None:
    """Transferred state: F = (1 + V) / 2 and C = V."""
    f_tol, c_tol = SAMPLED_TOL[method]
    _close(errors, f"{label} fidelity", metrics["fidelity"], (1.0 + vis) / 2.0, f_tol)
    _close(errors, f"{label} concurrence", metrics["concurrence"], vis, c_tol)


# -- purify-mle ---------------------------------------------------------------

def _purify_calls(seed, tiny):
    raw = _base(seed)
    if tiny:
        raw["tomography"]["n_mc_samples"] = 10
    return [Call("run_purification", raw, {})]


def _purify_check(calls, reports):
    errors = []
    raw = calls[0].raw
    _sampled_output(errors, "output", reports[0]["stages"]["tomography"]["output"]["metrics"],
                    raw["source"]["franson_visibility"], raw["tomography"]["method"])
    return errors


# -- chsh-hard ----------------------------------------------------------------

def _chsh_calls(seed, tiny):
    raw = _base(seed)
    raw["source"]["pol_input"] = "bell_p"
    raw["channel"]["stages"] = []
    raw["sweep"] = {"parameter": "p", "values": [0.1]}
    # 100 times the default pairs. At the default, the MLE work depends on the
    # one set of observed counts of a point: one point took 2.3 s to 9.4 s over
    # 23 independent count sets, so a run of the three points that fit in the
    # run length would still spread about 0.2 over seeds. At 2.6e7 pairs the
    # counts sit at the nearly rank-1 input state on every seed, and the
    # input-branch fits run to the default max_iter of 10000.
    raw["tomography"]["pairs_per_setting"] = 26_000_000
    raw["tomography"]["n_mc_samples"] = 10
    if tiny:
        raw["tomography"]["mle_max_iter"] = 300
    return [Call("run_chsh_sweep", raw, {})]


def _chsh_check(calls, reports):
    errors = []
    raw = calls[0].raw
    for row in reports[0]["stages"]["sweep_rows"]:
        _sampled_output(errors, f"p={row['p']} output", row["output_metrics"],
                        raw["source"]["franson_visibility"], raw["tomography"]["method"])
    return errors


# -- sweep-linear -------------------------------------------------------------

SWEEP_VISIBILITIES = [0.5, 0.6, 0.7, 0.8, 0.9, V_CAL]


def _linear_calls(seed, tiny):
    raw = _base(seed)
    # One worker: the speed probe in run.py needs a single-threaded run, and
    # at two workers the pool's scheduling on two independently loaded cores
    # spread wall_s past its bound. The traced mode times the pool at two
    # workers (cli.pool_speedup).
    raw["tomography"]["method"] = "linear"
    values = SWEEP_VISIBILITIES[-2:] if tiny else SWEEP_VISIBILITIES
    raw["sweep"] = {"parameter": "visibility", "values": list(values)}
    # 30 bootstrap samples instead of 100 keep one run near 2.5 s, so that a
    # measurement holds enough runs for a steady median.
    raw["tomography"]["n_mc_samples"] = 10 if tiny else 30
    return [Call("run_custom", raw, {})]


def _linear_check(calls, reports):
    errors = []
    method = calls[0].raw["tomography"]["method"]
    for row in reports[0]["stages"]["points"]:
        _sampled_output(errors, f"V={row['value']} output", row["output"]["metrics"],
                        row["value"], method)
    return errors


# -- physics-analytic ---------------------------------------------------------

JITTER_SIGMA_DEG = 10.0


def _physics_calls(seed, tiny):
    rng = random.Random(seed)
    raw = _base(seed)
    raw["count_mode"] = "analytic"
    raw["tomography"]["method"] = "linear"
    raw["tomography"]["n_mc_samples"] = 10
    raw["interferometer"]["phase_jitter_sigma_deg"] = JITTER_SIGMA_DEG
    raw["channel"]["stages"] = [
        dict(_SCRAMBLER),
        {"type": "rotating_plate", "arm": "B", "kind": "quarter", "steps": 360},
        {
            "type": "coherent",
            "plates_a": [
                {"kind": "half", "angle_deg": rng.uniform(0.0, 180.0)},
                {"kind": "quarter", "angle_deg": rng.uniform(0.0, 180.0)},
            ],
            "plates_b": [{"kind": "quarter", "angle_deg": rng.uniform(0.0, 180.0)}],
        },
    ]
    n_sweep, n_fringe = (3, 25) if tiny else (24, 361)
    sweep = copy.deepcopy(raw)
    sweep["sweep"] = {
        "parameter": "sum_phase",
        "values": [360.0 * k / n_sweep for k in range(n_sweep)],
    }
    # Source sum phase 0 puts the fringe extrema on scan points 0 and pi.
    return [
        Call("run_custom", sweep, {}),
        Call("run_fringe_scan", raw, {"n_points": n_fringe}),
    ]


def _physics_check(calls, reports):
    errors = []
    for row in reports[0]["stages"]["points"]:
        for branch in ("input", "output"):
            truth = row[branch]["model_truth"]
            got = row[branch]["metrics"]
            for key in ("fidelity", "concurrence", "purity", "s_value"):
                _close(errors, f"phase={row['value']:.4f} {branch} {key}",
                       got[key], truth[key], ANALYTIC_TOL)
    raw = calls[1].raw
    sigma = math.radians(raw["interferometer"]["phase_jitter_sigma_deg"])
    want = raw["source"]["franson_visibility"] * math.exp(-sigma * sigma)
    _close(errors, "fringe visibility", reports[1]["stages"]["fringe"]["visibility"],
           want, FRINGE_TOL)
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "purify-mle",
            "default purify: sampled counts, MLE point fits and a 100-sample "
            "bootstrap; easy fits, time in mle_reconstruct and setting_projectors",
            _purify_calls, _purify_check,
        ),
        Workload(
            "chsh-hard",
            "chsh-sweep at the tilted point p=0.1, 10-sample bootstrap, 100x the default "
            "pairs: nearly rank-1 input, so the input-branch MLE fits run to the default max_iter",
            _chsh_calls, _chsh_check,
        ),
        Workload(
            "sweep-linear",
            "custom visibility sweep of 6 points, linear inversion with a 30-sample "
            "bootstrap; no MLE, projector rebuilds (pool of 2 workers timed per layer only)",
            _linear_calls, _linear_check,
        ),
        Workload(
            "physics-analytic",
            "analytic counts, rotating plates on both arms, coherent plates and "
            "phase jitter; 24-point sum-phase sweep plus a 361-point fringe scan",
            _physics_calls, _physics_check,
        ),
    )
}
