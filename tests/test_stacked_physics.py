"""The stacked physics of ``cli._run_points`` against the one-state public calls.

``_run_points`` runs source, channel, blocked input and transfer once on the
stack of all sweep points. Its source stack, blocked weights, port
probabilities and branch states must be bitwise what ``make_source_state``,
``apply_noisy_channel``, ``block_long_arms``, ``transfer`` and the
marginals give for each point alone, and each branch's counts bitwise what
``analytic_counts`` and ``simulate_counts`` give for its state alone. Its
number of state validations must not depend on the number of points, and it
builds no per-point state object.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fransonsim import cli, qcore, tomo
from fransonsim.optics import (
    CoherentStage,
    _channel_stack,
    _source_stack,
    NoisyChannelSpec,
    RotatingPlateStage,
    WaveplateSpec,
    apply_noisy_channel,
    make_source_state,
)
from fransonsim.qcore import DensityMatrix, PhotonPairState
from fransonsim.transfer import InterferometerConfig, TransferOutcome, block_long_arms, transfer

# rotating plates on both arms, then coherent plates on both arms
CHANNEL = NoisyChannelSpec((
    RotatingPlateStage("A", "half", 360),
    RotatingPlateStage("B", "quarter", 8),
    CoherentStage(
        (WaveplateSpec("half", 0.3), WaveplateSpec("quarter", 1.1)),
        (WaveplateSpec("quarter", 2.0),),
    ),
))
SWEEPS = {
    "p": lambda n: np.linspace(0.0, 0.5, n) if n > 1 else [0.15],
    "visibility": lambda n: np.linspace(0.0, 1.0, n) if n > 1 else [0.979],
    "sum_phase": lambda n: np.arange(n) * 2.0 * math.pi / n + 0.2,
}


def config(jitter_deg=0.0, channel=CHANNEL):
    return replace(
        cli.default_config("custom"),
        count_mode="analytic",
        channel=channel,
        interferometer=InterferometerConfig(
            phase_a=0.4, phase_b=-1.3, phase_jitter_sigma=math.radians(jitter_deg)
        ),
        tomography=cli.TomographyConfig(method="linear", n_mc_samples=10),
    )


def points(cfg, parameter, n):
    return cli._sweep_points(cfg, cli.SweepConfig(parameter, SWEEPS[parameter](n)))


def run(cfg, pts):
    return cli._run_points(cfg, pts, dict.fromkeys(cli.STAGE_NAMES, 0.0))


def same(got: DensityMatrix, want: DensityMatrix) -> bool:
    """Bitwise equal matrices (signed zeros included) and equal weights."""
    return (got.data.tobytes() == want.data.tobytes()
            and got.data.shape == want.data.shape and got.weight == want.weight)


@pytest.mark.parametrize("n", [1, 24])
@pytest.mark.parametrize("jitter_deg", [0.0, 10.0])
@pytest.mark.parametrize("parameter", sorted(SWEEPS))
def test_stacked_points_match_the_one_state_calls_bitwise(parameter, jitter_deg, n):
    cfg = config(jitter_deg)
    pts = points(cfg, parameter, n)
    sources, kept, ports, branches = run(cfg, pts)
    assert sources.shape == (n, 16, 16) and ports.shape == (n, 4)
    assert len(kept) == len(branches) == n
    sampled = run(replace(cfg, count_mode="sampled"), pts)[3]
    pairs = cfg.tomography.pairs_per_setting
    for i, (source_cfg, key) in enumerate(pts):
        # branch b = 1 is the blocked input, b = 2 the output; each count row is its state's alone
        for b, name in ((1, "input"), (2, "output")):
            rho, means = branches[i][name][:2]
            assert means.tobytes() == tomo.analytic_counts(rho, pairs).counts.tobytes()
            want = tomo.simulate_counts(rho, pairs, seed=cli.derive_seed(cfg.seed, b, *key))
            assert same(sampled[i][name][0], rho)
            assert sampled[i][name][1].tobytes() == want.counts.tobytes()
        want_src = make_source_state(source_cfg)
        after = apply_noisy_channel(want_src, cfg.channel)
        want_blocked = block_long_arms(after)
        want = transfer(after, cfg.interferometer)
        assert sources[i].tobytes() == want_src.rho.data.tobytes()
        assert kept[i] == want_blocked.weight < 1.0  # the blocked weight is carried, not reset
        assert ports[i].tobytes() == want.port_probs.tobytes()
        assert same(branches[i]["input"][0], want_blocked.pol_marginal())
        assert same(branches[i]["output"][0], want.pol_out)


STATE_TYPES = (DensityMatrix, PhotonPairState, TransferOutcome)


@pytest.fixture
def validations(monkeypatch):
    """Counts of ``_state_errors`` calls and of checked constructions of each state type."""
    counts = dict.fromkeys(["_state_errors", *(cls.__name__ for cls in STATE_TYPES)], 0)
    state_errors = qcore._state_errors

    def spy_state_errors(stack):
        counts["_state_errors"] += 1
        return state_errors(stack)

    monkeypatch.setattr(qcore, "_state_errors", spy_state_errors)
    monkeypatch.setattr(tomo, "_state_errors", spy_state_errors)
    for cls in STATE_TYPES:
        def spy_post_init(self, post_init=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", spy_post_init)
    return counts


@pytest.mark.parametrize("channel, stacks", [
    # source, channel, blocked states, transferred states, marginals; the fit
    (CHANNEL, 6),
    # no channel stage: the source stack passes through unchanged
    (NoisyChannelSpec(), 5),
])
def test_validations_do_not_depend_on_the_number_of_points(validations, channel, stacks):
    cfg = config(10.0, channel)
    for n in (1, 6, 24):
        validations.update(dict.fromkeys(validations, 0))
        run(cfg, points(cfg, "sum_phase", n))
        assert validations == {"_state_errors": stacks, "DensityMatrix": 0,
                               "PhotonPairState": 0, "TransferOutcome": 0}, n


def test_a_failing_row_raises_its_error(monkeypatch):
    """A stage stack with a bad row raises that row's ValueError, as one state would."""
    cfg = config()
    pts = points(cfg, "p", 3)
    bad = cli._source_stack([source for source, _ in pts])
    bad[1, 0, 0] += 1e-6  # breaks the trace of point 1 only
    monkeypatch.setattr(cli, "_source_stack", lambda cfgs: bad)
    with pytest.raises(ValueError, match="matrix trace is 1.000001"):
        run(cfg, pts)


def test_a_port_probability_below_the_outcome_bound_is_refused(monkeypatch):
    """A path marginal that passes the state check keeps TransferOutcome's port bounds.

    The eigenvalue floor of the state check is -1e-10; a port probability
    must not be below -1e-12. NaN port probabilities are refused too.
    """
    cfg = config()
    outcome = transfer(make_source_state(cfg.source), cfg.interferometer)
    with pytest.raises(ValueError, match="negative port probability: nan"):
        replace(outcome, port_probs=[np.nan] * 4)
    joint = np.zeros((16, 16), dtype=complex)
    joint[0, 0], joint[5, 5] = 1.0 + 5e-11, -5e-11  # |H S H S> and |H L H L>
    monkeypatch.setattr(cli, "_transferred", lambda stack, mask: np.stack([joint] * len(stack)))
    with pytest.raises(ValueError, match="negative port probability: -5.000e-11"):
        run(cfg, points(cfg, "p", 3))


@pytest.mark.parametrize("n", [24, 96])
def test_the_channel_stage_holds_at_most_three_stacks(n):
    """The channel's traced peak above its input stack is at most 3 stacks, at any size.

    CHANNEL has the stages of the physics-analytic benchmark workload. The
    stacked channel is one product per state, so at most two stack-sized
    arrays live at once: the permuted input and the product, then the
    product and the stack returned. One Kraus contraction per stage holds 5.
    """
    cfg = config()
    stack = _source_stack([source for source, _ in points(cfg, "sum_phase", n)])
    _channel_stack(stack, cfg.channel)  # builds the cached plate superoperators
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _channel_stack(stack, cfg.channel)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == stack.shape
    assert peak <= 3 * stack.nbytes, peak / stack.nbytes
