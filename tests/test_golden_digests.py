"""Golden digests: the outputs of the 8 default runs, byte for byte, per numpy build and kernel.

Each of the four experiments runs at its default config, sampled and
``--analytic``, into a temporary directory. A run's digest hashes its report
body (the report without its ``run`` and ``versions`` blocks) together with
every CSV, dump and ``.dat`` file it wrote. The digests are byte-identical
only for a given numpy build, numpy SIMD dispatch level and OpenBLAS kernel,
so ``golden_digests.json`` keys them by all four; a machine whose key has no
entry skips, and the skip reason names the key.

To record the entry of this machine, or of a kernel forced by
``OPENBLAS_CORETYPE`` (SkylakeX, Haswell, Sandybridge and Prescott, which
OpenBLAS reads back as Katmai, on x86), run

    PYTHONPATH=src OPENBLAS_CORETYPE=Haswell python tests/test_golden_digests.py --write

A change that moves a digest updates the table in the same commit and names
the runs whose digests moved.
"""

import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fransonsim import cli

GOLDEN = Path(__file__).with_name("golden_digests.json")
RUNS = [
    (experiment, mode)
    for experiment in ("purify", "chsh-sweep", "custom", "fringe-scan")
    for mode in ("sampled", "analytic")
]


def openblas() -> tuple[str, str]:
    """The version and core name of numpy's bundled OpenBLAS, each "unknown" if unreadable."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        so = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            config, core = (getattr(so, f"{prefix}_get_{what}64_", None)
                            for what in ("config", "corename"))
            if config is not None and core is not None:
                config.restype = core.restype = ctypes.c_char_p
                return config().decode().split()[1], core().decode()
    return "unknown", "unknown"


def simd_level() -> str:
    """numpy's highest SIMD dispatch target that this CPU runs, else its build baseline.

    ``NPY_DISABLE_CPU_FEATURES`` turns targets off, and that moves output bits.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    on = [t for t in getattr(umath, "__cpu_dispatch__", []) if features.get(t)]
    return (on or getattr(umath, "__cpu_baseline__", []) or ["unknown"])[-1]


def machine_key() -> str:
    version, core = openblas()
    return f"numpy {np.__version__}, OpenBLAS {version}, core {core}, SIMD {simd_level()}"


def run_digest(out: Path) -> str:
    """sha256 of the report body in ``out`` and of every other file there, by name."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.startswith("report_"):
            body = json.loads(data)
            del body["run"], body["versions"]
            data = json.dumps(body, indent=2).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def default_digests(root: Path) -> dict:
    """The digest of each of the 8 default runs, each run written under ``root``."""
    digests = {}
    for experiment, mode in RUNS:
        out = root / f"{experiment}-{mode}"
        argv = [experiment, "--out", str(out)] + (["--analytic"] if mode == "analytic" else [])
        assert cli.main(argv) == 0, argv
        digests[f"{experiment} {mode}"] = run_digest(out)
    return digests


def test_the_default_runs_match_their_golden_digests(tmp_path):
    key = machine_key()
    golden = json.loads(GOLDEN.read_text()).get(key)
    if golden is None:
        pytest.skip(f"no golden digests for {key}")
    assert default_digests(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entry = {machine_key(): default_digests(Path(tmp))}
    if "--write" in sys.argv:
        table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        table.update(entry)
        GOLDEN.write_text(json.dumps(dict(sorted(table.items())), indent=2) + "\n")
    print(json.dumps(entry, indent=2), file=sys.stderr)
