#!/usr/bin/env python3
"""fransonsim benchmark.

One workload, one seed:

    python3 bench/run.py --workload purify-mle --seed 0 --seconds 20 --trace 0

prints informational lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``attempted`` and ``failed`` count state reconstructions.

Every workload and both modes, printed as ``workload metric value unit``:

    python3 bench/run.py --all --seed 0 --seconds 20

Self-test on shrunken workloads (checks names, units and output checks):

    python3 bench/run.py --selftest

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy. See bench/README.md.
"""

import os

# Before numpy loads: BLAS runs single-threaded, so the only threads are the
# ones a workload asks for through ``workers``.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import copy
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_out"

SETUP_SAMPLES = 25  # fresh interpreters per run at least, after one discarded
SETUP_SHARE = 0.25  # set-up sampling between timed runs, as a share of the last run
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "reconstructed_frac": "ratio",
}
PER_LAYER = {
    "tomo.mle.iters_per_fit_median": "count",
    "tomo.mle.iters_per_fit_max": "count",
    "tomo.mle.us_per_iter": "us",
    "tomo.mle_reconstruct.us_per_call": "us",
    "tomo.setting_projectors.calls_per_run": "count",
    "tomo.setting_projectors.us_per_call": "us",
    "tomo.linear_inversion.us_per_call": "us",
    "tomo.monte_carlo_metrics.self_us_per_sample": "us",
    "tomo.simulate_counts.us_per_call": "us",
    "tomo.chsh_value.us_per_call": "us",
    "optics.apply_noisy_channel.us_per_call": "us",
    "optics.make_source_state.us_per_call": "us",
    "transfer.transfer.us_per_call": "us",
    "transfer.block_long_arms.us_per_call": "us",
    "transfer.sum_phase_scan.ms_per_call": "ms",
    "qcore.DensityMatrix.validations_per_run": "count",
    "qcore.DensityMatrix.us_per_validation": "us",
    "qcore.apply_channel.us_per_call": "us",
    "qcore.apply_unitary.us_per_call": "us",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.pool_speedup": "ratio",
    **{f"{layer}.share": "ratio" for layer in spans.LAYERS},
    "tomo.mle_reconstruct.incl_share": "ratio",
    "tomo.setting_projectors.incl_share": "ratio",
    "optics.apply_noisy_channel.incl_share": "ratio",
    "transfer.transfer.incl_share": "ratio",
    "trace.overhead_s": "s",
    "nonconverged_frac": "ratio",
    "failed_frac": "ratio",
}

# Speed reference. The speed of one core of this host, seen from this
# benchmark, swings by 20% and more from one second to the next and over
# minutes, with the process's CPU time equal to its wall time and no steal
# time reported; the two cores swing independently of each other. A fixed
# kernel of the same kind of work (small complex matrices and interpreter
# loops) slows down with the workload. A SpeedProbe runs it on SIGALRM every
# PROBE_PERIOD_S during a timed run, so it samples the same core at the same
# moments as the run. A run's wall time t, with probe samples k_i, is
# reported as (t - sum k_i) * PROBE_REF_S / mean k_i: seconds of work at the
# host speed where the kernel takes PROBE_REF_S. The raw times are printed
# alongside. Signal handlers run in the main thread only, so the probe
# suits single-threaded runs; every timed end-to-end run is one.
PROBE_PERIOD_S = 0.1
PROBE_LOOPS = 60
PROBE_REF_S = 0.004
_KERNEL_RNG = np.random.default_rng(20211008)
_KERNEL_A = _KERNEL_RNG.normal(size=(16, 16)) + 1j * _KERNEL_RNG.normal(size=(16, 16))
_KERNEL_P = _KERNEL_RNG.normal(size=(36, 4, 4)) + 0j


def kernel_s() -> float:
    """Time of a fixed mix of small complex matrix work and interpreter work."""
    a = _KERNEL_A / np.linalg.norm(_KERNEL_A)
    x = np.eye(16, dtype=complex)
    start = perf_counter()
    for _ in range(PROBE_LOOPS):
        x = a @ x @ a.conj().T
        x = 0.5 * (x + x.conj().T) / np.trace(x).real
        np.linalg.eigvalsh(x)
        np.einsum("jab,ba->j", _KERNEL_P, x[:4, :4])
        sum(i * i for i in range(40))
    return perf_counter() - start


class SpeedProbe:
    """Kernel times taken on a timer inside the ``with`` block."""

    def __init__(self):
        self.samples = []

    def _fire(self, signum, frame):
        self.samples.append(kernel_s())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, wall: float) -> float:
        """Wall time of the block minus the probe's, at the reference speed."""
        samples = self.samples or [kernel_s()]  # a block shorter than one period
        return (wall - sum(self.samples)) * PROBE_REF_S / statistics.fmean(samples)


# Prints the set-up time, then the probe kernel's time in the same process
# right after it: the same core at nearly the same moment.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fransonsim
for path in sys.argv[3:]:
    fransonsim.load_config(path)
t = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import kernel_s
kernel_s()
print(t, sum(kernel_s() for _ in range(3)) / 3)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import fransonsim from this checkout's ``src``, nowhere else."""
    pkg = SRC / "fransonsim"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no package source at {pkg}")
    sys.path.insert(0, str(SRC))
    import fransonsim

    if Path(fransonsim.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported fransonsim from {fransonsim.__file__}, not {pkg}")
    return fransonsim


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class SetupSampler:
    """Import plus config parsing, each sample in a fresh interpreter.

    Samples are taken between timed runs, so that they spread over the whole
    measurement rather than one moment of the host's speed. Each is scaled
    by the probe kernel's time in the same child, as run times are.
    """

    def __init__(self, config_paths):
        self.cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH),
                    *map(str, config_paths)]
        self.raw, self.times = [], []
        self.sample()  # warms the page cache; discarded
        self.raw.clear()
        self.times.clear()

    def sample(self) -> float:
        proc = subprocess.run(
            self.cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
        if proc.returncode != 0:
            raise BenchError(f"setup child failed:\n{proc.stderr}")
        raw, kernel = map(float, proc.stdout.split()[-2:])
        self.raw.append(raw)
        self.times.append(raw * PROBE_REF_S / kernel)
        return self.times[-1]

    def burst(self, last_run_s: float) -> None:
        """Samples for about SETUP_SHARE of the last run, at least one."""
        start = perf_counter()
        self.sample()
        while perf_counter() - start < SETUP_SHARE * last_run_s:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.times)


@dataclass
class Rep:
    """One execution of a workload's pipeline calls."""

    wall: float | None = None
    scaled_wall: float | None = None  # by the speed probe, if one ran
    probe_samples: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0
    attempted: int = 0  # reconstructions
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.wall is not None and not self.errors


def _metric_blocks(node):
    """Every bootstrap metrics block (``n_samples`` and ``n_failed``) in a report."""
    if isinstance(node, dict):
        if "n_samples" in node and "n_failed" in node:
            yield node
        for value in node.values():
            yield from _metric_blocks(value)
    elif isinstance(node, list):
        for value in node:
            yield from _metric_blocks(value)


def report_digest(reports) -> str:
    """sha256 of every report minus its ``run`` block, as the CLI writes it."""
    h = hashlib.sha256()
    for rep in reports:
        body = {k: v for k, v in rep.items() if k != "run"}
        h.update(json.dumps(body, indent=2).encode("ascii"))
    return h.hexdigest()


def execute(fs, wl, calls, cfgs, out: Path, expected_attempts: int, probe=None) -> Rep:
    """Run the workload once into ``out`` (created by the pipeline), then check it.

    With a SpeedProbe, the probe runs during the timed calls and the run's
    wall time is also reported scaled by it.
    """
    rep = Rep()
    try:
        with probe if probe is not None else contextlib.nullcontext():
            start = perf_counter()
            reports = [
                getattr(fs, call.runner)(cfg, out, **call.kwargs)
                for call, cfg in zip(calls, cfgs)
            ]
            rep.wall = perf_counter() - start
        if probe is not None:
            rep.scaled_wall = probe.scaled(rep.wall)
            rep.probe_samples = probe.samples
        reports = [r.as_dict() for r in reports]
        rep.errors = wl.check(calls, reports)
    except Exception:  # a failed run is counted, not fatal
        rep.errors = [traceback.format_exc()]
        rep.attempted = rep.failed = expected_attempts
        rep.wall = None
        shutil.rmtree(out, ignore_errors=True)
        return rep
    for block in (b for r in reports for b in _metric_blocks(r)):
        rep.attempted += 1 + int(block["n_samples"])
        rep.failed += int(block["n_failed"])
    if rep.errors:
        rep.failed = rep.attempted
    rep.digest = report_digest(reports)
    rep.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out)
    return rep


def check_same_digest(reps, label) -> None:
    """Repeats of one (config, seed) must produce identical reports."""
    first = next((r.digest for r in reps if r.ok), None)
    for r in reps:
        if r.ok and r.digest != first:
            r.errors.append(f"{label}: report digest {r.digest} differs from {first}")
            r.failed = r.attempted


class Runner:
    """A workload at one seed: its configs on disk, parsed, and executed repeatedly."""

    def __init__(self, wl, seed, tiny, workdir):
        self.wl = wl
        self.calls = wl.calls(seed, tiny)
        self.warm_calls = wl.calls(seed, True)
        self.workdir = workdir
        self.paths = self._write(self.calls, "config")
        self.count = 0
        self.attempts = 1  # reconstructions of the last good run

    def _write(self, calls, tag):
        paths = []
        for i, call in enumerate(calls):
            path = self.workdir / f"{tag}{i}.json"
            path.write_text(json.dumps(call.raw, indent=2) + "\n", encoding="ascii")
            paths.append(path)
        return paths

    def load(self, fs, calls=None, tag="config"):
        paths = self.paths if calls is None else self._write(calls, tag)
        return [fs.load_config(p) for p in paths]

    def rep(self, fs, cfgs, calls=None, probe=None) -> Rep:
        """One run; a run that raises counts the last good run's reconstructions."""
        self.count += 1
        out = self.workdir / f"rep{self.count}"
        rep = execute(fs, self.wl, calls or self.calls, cfgs, out, self.attempts, probe)
        if rep.wall is not None:
            self.attempts = max(1, rep.attempted)
        return rep

    def warm_up(self, fs) -> Rep:
        """The shrunken workload: the same code paths, so lazy set-up is done."""
        return self.rep(fs, self.load(fs, self.warm_calls, "warm"), self.warm_calls)


def _median_or_none(values):
    return statistics.median(values) if values else None


def run_end_to_end(fs, runner, seconds, setup) -> tuple:
    cfgs = runner.load(fs)
    warm = runner.warm_up(fs)
    kernel_s()  # warms the probe kernel
    probe = SpeedProbe()
    timed = []
    peak_rss_mb = None
    start = perf_counter()
    while warm.ok and (not timed or perf_counter() - start < seconds):
        rep = runner.rep(fs, cfgs, probe=probe)
        setup.burst(rep.wall or 0.0)
        if not timed:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed.append(rep)
        if not rep.ok:
            break
    reps = [warm, *timed]
    check_same_digest(timed, runner.wl.name)
    attempted = sum(r.attempted for r in reps)
    metrics = {
        "wall_s": _median_or_none([r.scaled_wall for r in timed if r.ok]),
        "setup_s": setup.median(),
        "peak_rss_mb": peak_rss_mb,
        "reconstructed_frac": (
            1.0 - sum(r.failed for r in reps) / attempted if attempted else None
        ),
    }
    info = {
        "raw_walls_s": [r.wall for r in timed],
        "scaled_walls_s": [r.scaled_wall for r in timed],
        "probe_mean_s": [statistics.fmean(r.probe_samples or [0.0]) for r in timed],
        "probe_samples": [len(r.probe_samples) for r in timed],
        "setup_samples_s": setup.times,
        "raw_setup_samples_s": setup.raw,
        "digest": timed[0].digest if timed else "",
        "reconstructions_per_rep": runner.attempts,
    }
    return reps, metrics, info


def _flip_workers(calls):
    flipped = []
    for call in calls:
        raw = copy.deepcopy(call.raw)
        raw["workers"] = 1 if raw.get("workers", 1) > 1 else 2
        flipped.append(replace(call, raw=raw))
    return flipped


def run_traced(fs, runner, seconds, dump_path) -> tuple:
    """Traced repetitions, each followed by untraced ones at workers 1 and 2."""
    cfgs = runner.load(fs)
    flipped_calls = _flip_workers(runner.calls)
    flipped_cfgs = runner.load(fs, flipped_calls, "flipped")
    tracer = spans.Tracer()
    with tracer:
        if tracer.missing:  # renamed or removed: its metrics would read 0
            raise BenchError(f"trace targets not defined by the package: {tracer.missing}")
    warm = runner.warm_up(fs)
    traced, plain, flipped = [], [], []
    start = perf_counter()
    while warm.ok and (not traced or perf_counter() - start < seconds):
        tracer.run = len(traced) + 1
        with tracer:
            traced.append(runner.rep(fs, cfgs))
        plain.append(runner.rep(fs, cfgs))
        flipped.append(runner.rep(fs, flipped_cfgs, flipped_calls))
        if not all(r.ok for r in (traced[-1], plain[-1], flipped[-1])):
            break
    tracer.dump(dump_path)
    check_same_digest([*traced, *plain], runner.wl.name)
    check_same_digest(flipped, runner.wl.name + " (workers flipped)")
    reps = [warm, *traced, *plain, *flipped]

    n_runs = len(traced)
    traced_wall = sum(r.wall for r in traced if r.ok)
    plain_wall = _median_or_none([r.wall for r in plain if r.ok])
    flipped_wall = _median_or_none([r.wall for r in flipped if r.ok])
    if not (n_runs and traced_wall and plain_wall and flipped_wall):
        return reps, {name: None for name in PER_LAYER}, {}

    summary = tracer.summary()
    names = summary["names"]

    def entry(name):
        return names.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def per_call(name, scale=1e6):
        e = entry(name)
        return e["incl_s"] / e["calls"] * scale if e["calls"] else 0.0

    def incl_share(name):
        return entry(name)["incl_s"] / traced_wall

    mle_iters = sorted(it for method, it, _ in tracer.fits if method == "mle")
    mle = entry("tomo.mle_reconstruct")
    mc = entry("tomo.monte_carlo_metrics")
    validation = "qcore.DensityMatrix.__post_init__"
    workers = runner.calls[0].raw.get("workers", 1)
    w1, w2 = (plain_wall, flipped_wall) if workers == 1 else (flipped_wall, plain_wall)
    attempted = sum(r.attempted for r in traced)
    nonconverged = sum(1 for _, _, converged in tracer.fits if not converged)

    metrics = {
        "tomo.mle.iters_per_fit_median": statistics.median(mle_iters) if mle_iters else 0,
        "tomo.mle.iters_per_fit_max": mle_iters[-1] if mle_iters else 0,
        "tomo.mle.us_per_iter": mle["self_s"] / sum(mle_iters) * 1e6 if mle_iters else 0.0,
        "tomo.mle_reconstruct.us_per_call": per_call("tomo.mle_reconstruct"),
        "tomo.setting_projectors.calls_per_run": entry("tomo.setting_projectors")["calls"] / n_runs,
        "tomo.setting_projectors.us_per_call": per_call("tomo.setting_projectors"),
        "tomo.linear_inversion.us_per_call": per_call("tomo.linear_inversion"),
        "tomo.monte_carlo_metrics.self_us_per_sample": (
            mc["self_s"] / tracer.bootstrap_samples * 1e6 if tracer.bootstrap_samples else 0.0
        ),
        "tomo.simulate_counts.us_per_call": per_call("tomo.simulate_counts"),
        "tomo.chsh_value.us_per_call": per_call("tomo.chsh_value"),
        "optics.apply_noisy_channel.us_per_call": per_call("optics.apply_noisy_channel"),
        "optics.make_source_state.us_per_call": per_call("optics.make_source_state"),
        "transfer.transfer.us_per_call": per_call("transfer.transfer"),
        "transfer.block_long_arms.us_per_call": per_call("transfer.block_long_arms"),
        "transfer.sum_phase_scan.ms_per_call": per_call("transfer.sum_phase_scan", 1e3),
        "qcore.DensityMatrix.validations_per_run": entry(validation)["calls"] / n_runs,
        "qcore.DensityMatrix.us_per_validation": per_call(validation),
        "qcore.apply_channel.us_per_call": per_call("qcore.apply_channel"),
        "qcore.apply_unitary.us_per_call": per_call("qcore.apply_unitary"),
        "cli.self_s": summary["layers"]["cli"] / n_runs,
        "cli.bytes_written": statistics.median(r.bytes_written for r in traced),
        "cli.pool_speedup": w1 / w2,
        **{f"{layer}.share": t / traced_wall for layer, t in summary["layers"].items()},
        "tomo.mle_reconstruct.incl_share": incl_share("tomo.mle_reconstruct"),
        "tomo.setting_projectors.incl_share": incl_share("tomo.setting_projectors"),
        "optics.apply_noisy_channel.incl_share": incl_share("optics.apply_noisy_channel"),
        "transfer.transfer.incl_share": incl_share("transfer.transfer"),
        "trace.overhead_s": traced_wall / n_runs - plain_wall,
        "nonconverged_frac": nonconverged / attempted if attempted else 0.0,
        "failed_frac": sum(r.failed for r in traced) / attempted if attempted else 0.0,
    }
    info = {
        "traced_runs": n_runs,
        "traced_walls_s": [r.wall for r in traced],
        "untraced_walls_s": [r.wall for r in plain],
        "flipped_walls_s": [r.wall for r in flipped],
        "spans": len(tracer.spans),
        "spans_file": str(dump_path.relative_to(ROOT)),
        "self_s_by_layer": summary["layers"],
    }
    return reps, metrics, info


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        fs = import_package()
        runner = Runner(wl, args.seed, args.tiny, workdir)
        if args.trace:
            dump = WORK / f"trace_{wl.name}_seed{args.seed}.jsonl"
            reps, metrics, info = run_traced(fs, runner, args.seconds, dump)
            units = PER_LAYER
        else:
            setup = SetupSampler(runner.paths)
            reps, metrics, info = run_end_to_end(fs, runner, args.seconds, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for r in reps for e in r.errors]
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    correct = not errors and all(v is not None for v in metrics.values())
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "machine": machine(), **info,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {
            name: {"value": metrics[name] if metrics[name] is not None else float("nan"),
                   "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in both modes, one subprocess each; optionally self-checked."""
    declared = None
    if args.selftest:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = {
            0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
            print("selftest: BENCHMARK.json workloads differ from bench/workloads.py")
            return 1
    problems = []
    print(f"{'workload':<17} {'metric':<45} {'value':>14} unit")
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{name} trace={trace}: no result (exit {proc.returncode})"
                                f"\n{proc.stderr}")
                continue
            for metric, m in result["metrics"].items():
                print(f"{name:<17} {metric:<45} {m['value']:>14.6g} {m['unit']}")
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']} exit={proc.returncode}"
                                f"\n{proc.stderr}")
            if result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: attempted < 1")
            if declared is not None:
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                if got != declared[trace]:
                    problems.append(f"{name} trace={trace}: metrics {got} "
                                    f"differ from BENCHMARK.json {declared[trace]}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if args.selftest:
        print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fransonsim benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads")
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--selftest", action="store_true",
                        help="--all --tiny --seconds 1, checked against BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.selftest:
        args.all, args.tiny, args.seconds = True, True, 1.0
    try:
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload is required without --all")
        return run_one(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
