"""The public surface: exported names, traced benchmark targets, README example."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import pkgutil
import re
from pathlib import Path

import pytest

import fransonsim

ROOT = Path(__file__).resolve().parents[1]
# every module but __main__, the entry point of ``python -m fransonsim``, which exports nothing
MODULES = sorted(
    f"fransonsim.{info.name}" for info in pkgutil.iter_modules(fransonsim.__path__)
    if info.name != "__main__"
)


def resolve(module_name, dotted):
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_package_exports_resolve():
    """Every name in fransonsim.__all__ is an attribute of the package."""
    missing = [name for name in fransonsim.__all__ if not hasattr(fransonsim, name)]
    assert not missing
    assert len(set(fransonsim.__all__)) == len(fransonsim.__all__)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    """Every name in a module's __all__ is defined in that module."""
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


REMOVED_NAMES = (
    # the register is fixed: no layout type, layout-driven helper or qubit cap
    "SubsystemLayout", "PAIR_LAYOUT", "MAX_QUBITS", "partial_trace", "tensor",
    "permute_qubits", "lift_unitary",
    # Kraus operators are passed directly; random states live with the tests
    "QuantumChannel", "random_state", "trace_distance", "hyperentangled_input",
    "rotating_plate_channel",
    # the 36 settings are one fixed table
    "PartySetting", "MeasurementSetting", "projector", "standard_settings",
    # the CHSH analyzers are fixed: A at 0 and 45 deg, B at 22.5 and 67.5 deg
    "ChshAngles", "DEFAULT_CHSH_ANGLES",
)


def test_generic_layout_machinery_is_gone():
    """No removed generic name resolves in any package module or in __all__."""
    for module_name in ["fransonsim", *MODULES]:
        module = importlib.import_module(module_name)
        for name in REMOVED_NAMES:
            assert not hasattr(module, name), (module_name, name)
    assert not set(REMOVED_NAMES) & set(fransonsim.__all__)


def test_transfer_takes_no_rng():
    """Jitter is always the ensemble average: transfer has no random generator."""
    params = inspect.signature(fransonsim.transfer).parameters
    assert list(params) == ["state", "cfg"]


def test_chsh_takes_no_angles():
    """The CHSH analyzers are fixed: no metric entry point takes angles."""
    assert list(inspect.signature(fransonsim.chsh_value).parameters) == ["rho"]
    assert "angles" not in inspect.signature(fransonsim.monte_carlo_metrics).parameters


def test_benchmark_trace_targets_exist():
    """Every (module, attribute) the benchmark tracer wraps exists in the package."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _layer, module_name, attribute in spans.TARGETS:
        assert callable(resolve(module_name, attribute)), (module_name, attribute)


def test_readme_python_api_example_runs():
    """The README example runs and prints concurrences 0.0 before and 0.979 after."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Python API\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    c_in, c_out = (float(tok) for tok in out.getvalue().splitlines()[0].split())
    assert c_in == pytest.approx(0.0, abs=1e-9)
    assert c_out == pytest.approx(0.979, abs=1e-9)
