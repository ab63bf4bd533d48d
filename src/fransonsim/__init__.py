"""Density-matrix simulation of entanglement transfer through noisy channels.

A hyperentangled photon-pair source feeds two noisy polarization channels;
an unbalanced interferometer pair then maps the surviving energy-time
entanglement back onto polarization. The package models the full pipeline
as exact 4-qubit density-matrix evolution plus simulated pair counting,
state reconstruction, and entanglement metrics.
"""

__version__ = "0.1.0"

from .qcore import (
    DensityMatrix,
    PhotonPairState,
    PostselectionError,
    PHI_PLUS_KET,
    apply_channel,
    apply_unitary,
    concurrence,
    fidelity_to,
    purity,
)
from .optics import (
    CoherentStage,
    NoisyChannelSpec,
    RotatingPlateStage,
    SourceConfig,
    WaveplateSpec,
    apply_noisy_channel,
    jones,
    make_source_state,
)
from .transfer import (
    InterferometerConfig,
    TransferOutcome,
    block_long_arms,
    fringe_visibility,
    sum_phase_scan,
    transfer,
)
from .tomo import (
    CountData,
    MetricsReport,
    ReconstructionResult,
    analytic_counts,
    chsh_value,
    counts_from_csv,
    counts_to_csv,
    expected_probabilities,
    linear_inversion,
    mle_reconstruct,
    monte_carlo_metrics,
    simulate_counts,
)
# ``cli`` is imported on first use of one of its names, not here, so that
# ``python -m fransonsim.cli`` runs the module once, without runpy's warning
# that the package had already imported it.
_CLI_NAMES = (
    "ConfigError", "ExperimentConfig", "RunReport", "SweepConfig", "TomographyConfig",
    "default_config", "load_config", "run_chsh_sweep", "run_custom", "run_fringe_scan",
    "run_purification", "validate",
)


def __getattr__(name: str):
    """Import ``cli`` on first use of one of its exported names, and keep them all here."""
    if name not in _CLI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cli

    globals().update((key, getattr(cli, key)) for key in _CLI_NAMES)
    return globals()[name]


__all__ = [
    "__version__",
    # qcore
    "DensityMatrix", "PhotonPairState", "PostselectionError", "PHI_PLUS_KET",
    "apply_channel", "apply_unitary", "concurrence", "fidelity_to", "purity",
    # optics
    "CoherentStage", "NoisyChannelSpec", "RotatingPlateStage", "SourceConfig",
    "WaveplateSpec", "apply_noisy_channel", "jones", "make_source_state",
    # transfer
    "InterferometerConfig", "TransferOutcome", "block_long_arms",
    "fringe_visibility", "sum_phase_scan", "transfer",
    # tomo
    "CountData", "MetricsReport", "ReconstructionResult", "analytic_counts",
    "chsh_value", "counts_from_csv", "counts_to_csv", "expected_probabilities",
    "linear_inversion", "mle_reconstruct", "monte_carlo_metrics", "simulate_counts",
    *_CLI_NAMES,  # cli, imported on first use
]
