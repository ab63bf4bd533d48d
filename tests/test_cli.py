"""Config handling, experiment pipelines, artifacts, and exit codes."""

import enum
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fransonsim import cli, tomo
from fransonsim.cli import (
    COUNT_MODES,
    RECON_METHODS,
    STAGE_NAMES,
    SWEEP_PARAMETERS,
    ConfigError,
    ExperimentConfig,
    SweepConfig,
    TomographyConfig,
    config_to_raw,
    default_config,
    density_matrix_bars,
    derive_seed,
    emit_plot_data,
    load_config,
    main,
    run_chsh_sweep,
    run_custom,
    run_fringe_scan,
    run_purification,
    validate,
)
from fransonsim.optics import (
    ARMS,
    POL_INPUTS,
    WAVEPLATE_KINDS,
    NoisyChannelSpec,
    RotatingPlateStage,
    SourceConfig,
    WaveplateSpec,
)
from fransonsim.qcore import PHI_PLUS_KET, DensityMatrix, load_density_matrix, fidelity_to
from fransonsim.transfer import InterferometerConfig


def s_formula(p):
    return math.sqrt(2.0) * (1.0 + 2.0 * math.sqrt(p * (1.0 - p)))


def write_config(tmp_path, **overrides):
    raw = {
        "seed": 3,
        "count_mode": "analytic",
        "source": {
            "pol_input": "pure_VH",
            "franson_visibility": 0.979,
        },
        "channel": {
            "stages": [
                {"type": "rotating_plate", "arm": "A", "kind": "half", "steps": 360}
            ]
        },
        "tomography": {
            "pairs_per_setting": 260_000,
            "method": "linear",
            "n_mc_samples": 10,
        },
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw, indent=1))
    return path


# Sets every config field, in file units.
FULL_RAW = {
    "seed": 11,
    "output_dir": "runs/full",
    "count_mode": "analytic",
    "workers": 2,
    "source": {
        "balance_p": 0.2,
        "franson_visibility": 0.9,
        "sum_phase_deg": 30.0,
        "pol_input": "bell_p",
    },
    "channel": {
        "stages": [
            {"type": "rotating_plate", "arm": "A", "kind": "half", "steps": 36},
            {"type": "rotating_plate", "arm": "B", "kind": "quarter", "steps": 8},
            {
                "type": "coherent",
                "plates_a": [{"kind": "half", "angle_deg": 22.5},
                             {"kind": "quarter", "angle_deg": 10.0}],
                "plates_b": [{"kind": "quarter", "angle_deg": 67.5}],
            },
        ]
    },
    "interferometer": {
        "phase_a_deg": 45.0,
        "phase_b_deg": -12.5,
        "delta_t_ns": 3.1,
        "coincidence_window_ns": 0.8,
        "phase_jitter_sigma_deg": 5.0,
    },
    "tomography": {
        "pairs_per_setting": 5000,
        "method": "linear",
        "n_mc_samples": 12,
        "mle_tol": 1e-8,
        "mle_max_iter": 500,
    },
    "sweep": {"parameter": "sum_phase", "values": [0.0, 90.0, 180.0, 270.0]},
}


FAST_ANALYTIC = TomographyConfig(
    pairs_per_setting=260_000, method="linear", n_mc_samples=10
)


def analytic_cfg(**overrides):
    base = dict(
        source=SourceConfig(pol_input="pure_VH", franson_visibility=0.979),
        channel=NoisyChannelSpec((RotatingPlateStage("A", "half", 360),)),
        tomography=FAST_ANALYTIC,
        count_mode="analytic",
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_load_round_trips_units(self, tmp_path):
        """Degrees in the file become radians in the config."""
        path = write_config(
            tmp_path,
            interferometer={"phase_a_deg": 90.0, "phase_jitter_sigma_deg": 5.0},
        )
        cfg = load_config(path)
        assert cfg.interferometer.phase_a == pytest.approx(math.pi / 2, abs=1e-12)
        assert cfg.interferometer.phase_jitter_sigma == pytest.approx(
            math.radians(5.0), abs=1e-12
        )
        assert cfg.source.franson_visibility == pytest.approx(0.979)
        assert cfg.tomography.method == "linear"

    def test_validate_accepts_defaults(self):
        """The built-in default config carries no diagnostics."""
        assert validate(config_to_raw(default_config("purify"))) == []
        assert validate(config_to_raw(default_config("chsh-sweep"))) == []

    def test_validate_names_the_violated_field(self):
        """A too-wide coincidence window is pinpointed by name."""
        raw = {"interferometer": {"coincidence_window_ns": 3.0, "delta_t_ns": 2.6}}
        diags = validate(raw)
        assert len(diags) == 1
        assert "window" in diags[0]

    def test_validate_collects_multiple_errors(self):
        """Every broken field is reported, not only the first."""
        raw = {
            "source": {"balance_p": 0.9},
            "tomography": {"method": "bayes"},
            "workers": 0,
        }
        diags = validate(raw)
        assert len(diags) == 3
        joined = "\n".join(diags)
        assert "balance_p" in joined
        assert "method" in joined
        assert "workers" in joined

    def test_validate_flags_unknown_fields(self):
        """Misspelled keys do not pass silently."""
        diags = validate({"source": {"visibilty": 0.9}})
        assert any("unknown field" in d for d in diags)

    def test_load_reports_json_position(self, tmp_path):
        """Malformed JSON errors carry the line number."""
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1,\n  "oops"\n}')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_sweep_values_are_checked(self):
        """Sweep values outside the parameter range are diagnosed."""
        diags = validate({"sweep": {"parameter": "p", "values": [0.0, 0.9]}})
        assert len(diags) == 1 and "p" in diags[0]
        with pytest.raises(ValueError, match="parameter"):
            SweepConfig("detuning", (0.1,))

    def test_sum_phase_sweep_converts_degrees(self):
        """sum_phase sweep values are degrees in the file."""
        diags = []
        raw = {"sweep": {"parameter": "sum_phase", "values": [0.0, 180.0]}}
        assert validate(raw) == []
        cfg = ExperimentConfig(sweep=SweepConfig("sum_phase", (0.0, math.pi)))
        echoed = config_to_raw(cfg)["sweep"]["values"]
        assert echoed[1] == pytest.approx(180.0, abs=1e-9)

    @pytest.mark.parametrize(
        "raw, field, want",
        [
            ({"source": {"sum_phase_deg": math.nan}}, "source.sum_phase_deg", "a finite number"),
            ({"interferometer": {"phase_a_deg": math.inf}}, "interferometer.phase_a_deg",
             "a finite number"),
            ({"interferometer": {"phase_jitter_sigma_deg": math.nan}},
             "interferometer.phase_jitter_sigma_deg", "a finite number"),
            ({"tomography": {"mle_tol": math.inf}}, "tomography.mle_tol", "a finite number"),
            ({"source": {"balance_p": 10**400}}, "source.balance_p", "a finite number"),
            ({"channel": {"stages": [{"type": "coherent",
                                      "plates_b": [{"angle_deg": -math.inf}]}]}},
             "channel.stages[0].plates_b[0].angle_deg", "a finite number"),
            ({"sweep": {"parameter": "p", "values": [0.1, math.nan]}}, "sweep.values[1]",
             "a finite number"),
            ({"seed": 3.7}, "config.seed", "an integer"),
            ({"workers": 1.5}, "config.workers", "an integer"),
            ({"tomography": {"pairs_per_setting": 1000.9}}, "tomography.pairs_per_setting",
             "an integer"),
            ({"tomography": {"n_mc_samples": 20.5}}, "tomography.n_mc_samples", "an integer"),
            ({"tomography": {"mle_max_iter": 99.9}}, "tomography.mle_max_iter", "an integer"),
            ({"channel": {"stages": [{"type": "rotating_plate", "steps": 7.9}]}},
             "channel.stages[0].steps", "an integer"),
            ({"seed": math.nan}, "config.seed", "a finite number"),
            ({"output_dir": 5}, "config.output_dir", "a string"),
            ({"count_mode": 1}, "config.count_mode", "a string"),
            ({"source": {"pol_input": ["bell_p"]}}, "source.pol_input", "a string"),
            ({"tomography": {"method": None}}, "tomography.method", "a string"),
            ({"channel": {"stages": [{"type": "rotating_plate", "arm": 0}]}},
             "channel.stages[0].arm", "a string"),
            ({"channel": {"stages": [{"type": "coherent", "plates_a": [{"kind": 2}]}]}},
             "channel.stages[0].plates_a[0].kind", "a string"),
            ({"sweep": {"parameter": 1, "values": [0.1]}}, "sweep.parameter", "a string"),
        ],
    )
    def test_validate_rejects_bad_values(self, tmp_path, raw, field, want):
        """Non-finite numbers, fractional integers and non-strings are named."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        diags = validate(path)
        assert len(diags) == 1, diags
        assert diags[0].startswith(f"{field}: expected {want}, got ")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_integer_fields_stay_exact(self, tmp_path):
        """Integral numbers are read without a detour through float."""
        seed = 2**53 + 1
        cfg = load_config(write_config(
            tmp_path, seed=seed, tomography={"pairs_per_setting": 1000.0}
        ))
        assert cfg.seed == seed
        assert cfg.tomography.pairs_per_setting == 1000
        assert isinstance(cfg.tomography.pairs_per_setting, int)

    @pytest.mark.parametrize(
        "experiment", ["purify", "chsh-sweep", "custom", "fringe-scan", "every-field"]
    )
    def test_echo_round_trips(self, tmp_path, experiment):
        """Loading a config's echo gives the config back; echoing again is stable."""
        if experiment == "every-field":
            path = tmp_path / "full.json"
            path.write_text(json.dumps(FULL_RAW))
            cfg = load_config(path)
        else:
            cfg = default_config(experiment)
        echo = json.dumps(config_to_raw(cfg), indent=1)
        path = tmp_path / "echo.json"
        path.write_text(echo)
        back = load_config(path)
        assert back == cfg
        assert json.dumps(config_to_raw(back), indent=1) == echo

    def test_degree_echo_reloads_to_the_same_radians(self, tmp_path):
        """An angle read from a file echoes as a degree value that reloads bit for bit.

        ``math.degrees(math.radians(105.0))`` is 105.00000000000001, whose
        radians miss those of 105 by an ulp; the echo gives 105.0 back.
        """
        assert math.degrees(math.radians(105.0)) != 105.0
        raw = {
            "interferometer": {"phase_a_deg": 105.0},
            "channel": {"stages": [{"type": "coherent", "plates_a": [
                {"kind": "half", "angle_deg": 105.0}], "plates_b": []}]},
            "sweep": {"parameter": "sum_phase", "values": [105.0, 210.0]},
        }
        path = tmp_path / "angles.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        echo = config_to_raw(cfg)
        assert echo["interferometer"]["phase_a_deg"] == 105.0
        assert echo["channel"]["stages"][0]["plates_a"][0]["angle_deg"] == 105.0
        assert echo["sweep"]["values"] == [105.0, 210.0]
        path.write_text(json.dumps(echo))
        assert load_config(path) == cfg
        rng = random.Random(11)
        for deg in [rng.uniform(-720.0, 720.0) for _ in range(2000)] + [1e300, 5e-324]:
            x = math.radians(deg)
            assert math.radians(cli._degrees(x)) == x, deg

    def test_degree_echo_stays_within_an_ulp_of_math_degrees(self):
        """Any radian float echoes within one step of math.degrees, or as it if none is exact."""
        rng = random.Random(12)
        inexact = 0
        for x in [rng.uniform(-10.0, 10.0) for _ in range(2000)]:
            deg, echo = math.degrees(x), cli._degrees(x)
            if math.radians(echo) == x:
                assert echo in (deg, math.nextafter(deg, -math.inf), math.nextafter(deg, math.inf))
            else:
                assert echo == deg
                inexact += 1
        assert 0 < inexact < 400  # some radian floats have no exact degree value

    def test_derive_seed_is_stable_and_distinct(self):
        """Stage seeds are deterministic and separated by their path."""
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
        assert derive_seed(7, 1) != derive_seed(8, 1)

    @pytest.mark.parametrize("tol", [1e-300, 1e-15, 5e-12])
    def test_validate_rejects_mle_tol_below_the_rounding_of_the_gap(self, tol):
        """An mle_tol below tomo.MLE_TOL_FLOOR is refused by name; the floor is accepted."""
        diags = validate({"tomography": {"mle_tol": tol}})
        assert len(diags) == 1, diags
        assert diags[0].startswith("tomography: mle_tol must be at least 1e-11"), diags
        assert validate({"tomography": {"mle_tol": 1e-11}}) == []
        with pytest.raises(ValueError, match="mle_tol must be at least"):
            TomographyConfig(mle_tol=tol)

    def test_python_tomography_config_rejects_an_infinite_mle_tol(self):
        """The config file refuses Infinity, and so does the dataclass built in Python."""
        with pytest.raises(ValueError, match="mle_tol must be finite"):
            TomographyConfig(mle_tol=math.inf)

    @pytest.mark.parametrize(
        "cls, field, extra",
        [
            (SourceConfig, "balance_p", {}),
            (SourceConfig, "franson_visibility", {}),
            (SourceConfig, "sum_phase", {}),
            (WaveplateSpec, "angle", {}),
            (InterferometerConfig, "phase_a", {}),
            (InterferometerConfig, "phase_b", {}),
            (InterferometerConfig, "delta_t_ns", {}),
            (InterferometerConfig, "coincidence_window_ns", {}),
            (InterferometerConfig, "phase_jitter_sigma", {}),
            (TomographyConfig, "mle_tol", {}),
            (SweepConfig, "values", {"parameter": "sum_phase"}),
            (TomographyConfig, "pairs_per_setting", {}),
            (TomographyConfig, "n_mc_samples", {}),
            (TomographyConfig, "mle_max_iter", {}),
            (ExperimentConfig, "seed", {}),
            (ExperimentConfig, "workers", {}),
            (RotatingPlateStage, "steps", {}),
        ],
    )
    def test_python_configs_reject_nan(self, cls, field, extra):
        """NaN in a numeric field built in Python is refused with the field named."""
        value = (0.1, math.nan) if field == "values" else math.nan
        with pytest.raises(ValueError, match=field):
            cls(**extra, **{field: value})

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (TomographyConfig, "pairs_per_setting", 1000.9),
            (TomographyConfig, "n_mc_samples", 100.5),
            (TomographyConfig, "mle_max_iter", math.inf),
            (ExperimentConfig, "seed", 3.7),
            (ExperimentConfig, "workers", 2.7),
            (ExperimentConfig, "workers", "2"),
            (RotatingPlateStage, "steps", "8"),
            (RotatingPlateStage, "steps", 6.5),
        ],
    )
    def test_python_configs_reject_fractional_integers(self, cls, field, value):
        """Integer fields built in Python refuse non-integral values, naming the field."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            cls(**{field: value})

    def test_python_configs_store_integral_values_as_int(self):
        """An integral float is accepted and stored as an int."""
        tcfg = TomographyConfig(pairs_per_setting=1000.0, mle_max_iter=np.int64(50))
        cfg = ExperimentConfig(workers=2.0, seed=7.0, tomography=tcfg)
        stage = RotatingPlateStage(steps=6.0)
        for val, want in ((tcfg.pairs_per_setting, 1000), (tcfg.mle_max_iter, 50),
                          (cfg.workers, 2), (cfg.seed, 7), (stage.steps, 6)):
            assert val == want and type(val) is int


    def test_a_bootstrap_budget_beyond_the_bound_is_refused_by_name(self):
        """n_mc_samples above MAX_MC_SAMPLES is refused by validate, before anything runs."""
        assert validate({"tomography": {"n_mc_samples": cli.MAX_MC_SAMPLES}}) == []
        for budget in (cli.MAX_MC_SAMPLES + 1, 10**12):
            [diag] = validate({"tomography": {"n_mc_samples": budget}})
            assert diag == (
                f"tomography: n_mc_samples must be in [10, {cli.MAX_MC_SAMPLES}], got {budget}"
            )
        [diag] = validate({"tomography": {"n_mc_samples": 9}})
        assert diag.startswith("tomography: n_mc_samples must be in [10, ")

    def test_pairs_beyond_the_poisson_range_are_refused(self, tmp_path, capsys):
        """A flux whose counts numpy cannot draw is refused by name, not at run time."""
        assert validate({"tomography": {"pairs_per_setting": 10**18}}) == []
        [diag] = validate({"tomography": {"pairs_per_setting": 2**63}})
        assert diag.startswith("tomography: pairs_per_setting must be in [1, 1e+18]")
        path = write_config(
            tmp_path, count_mode="sampled",
            tomography={"pairs_per_setting": 2**63, "method": "linear", "n_mc_samples": 10},
        )
        assert main(["purify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "pairs_per_setting" in capsys.readouterr().err


class TestPurifyPipeline:
    def test_analytic_flagship_numbers(self, tmp_path):
        """Scrambled input reads ~I/4; the output reads the dephased Bell."""
        report = run_purification(analytic_cfg(), tmp_path)
        tomo = report.stages["tomography"]
        m_in = tomo["input"]["metrics"]
        m_out = tomo["output"]["metrics"]
        assert m_in["concurrence"] == pytest.approx(0.0, abs=1e-9)
        assert m_out["fidelity"] == pytest.approx(0.9895, abs=1e-9)
        assert m_out["concurrence"] == pytest.approx(0.979, abs=1e-9)
        assert m_out["purity"] == pytest.approx((1 + 0.979**2) / 2, abs=1e-9)
        # analytic mode: no sampling, no spread
        assert m_out["fidelity_sigma"] == 0.0

    def test_gap_note_is_present(self, tmp_path):
        """The report points out that measured realizations sit lower."""
        report = run_purification(analytic_cfg(), tmp_path)
        notes = report.stages["notes"]
        assert any("0.976" in note for note in notes)

    def test_nonconverged_fits_get_a_note(self, tmp_path):
        """A run whose bootstrap fits stop at mle_max_iter says so in its notes."""
        cfg = analytic_cfg(
            count_mode="sampled",
            tomography=TomographyConfig(
                pairs_per_setting=20_000, n_mc_samples=10, mle_max_iter=3
            ),
        )
        report = run_purification(cfg, tmp_path)
        blocks = [report.stages["tomography"][b]["metrics"] for b in ("input", "output")]
        count = sum(m["n_nonconverged"] for m in blocks)
        assert count == 20
        notes = report.stages["notes"]
        assert len(notes) == 2
        assert notes[1].startswith("Non-converged fits: 20 bootstrap MLE fit(s)")
        assert "kept in the sigmas" in notes[1]
        saved = json.loads((tmp_path / "report_purify.json").read_text())
        assert saved["stages"]["notes"] == notes

    def test_converged_runs_keep_one_note(self, tmp_path):
        """Without non-converged fits the notes hold only the gap note."""
        cfg = analytic_cfg(
            count_mode="sampled",
            tomography=TomographyConfig(pairs_per_setting=20_000, n_mc_samples=10),
        )
        report = run_purification(cfg, tmp_path)
        assert report.stages["tomography"]["output"]["metrics"]["n_nonconverged"] == 0
        assert len(report.stages["notes"]) == 1
        for branch in ("input", "output"):
            recon = report.stages["tomography"][branch]["reconstruction"]
            assert recon["converged"]
            assert 0.0 < recon["gap"] <= cfg.tomography.mle_tol

    def test_nonconverged_point_fits_get_a_note(self, tmp_path):
        """Point fits stopped by mle_max_iter are counted even with no bootstrap fit."""
        cfg = analytic_cfg(tomography=TomographyConfig(n_mc_samples=10, mle_max_iter=3))
        report = run_purification(cfg, tmp_path)
        branches = [report.stages["tomography"][b] for b in ("input", "output")]
        assert [b["reconstruction"]["converged"] for b in branches] == [False, False]
        assert all(b["reconstruction"]["gap"] > 1e-10 for b in branches)
        assert [b["metrics"]["n_nonconverged"] for b in branches] == [0, 0]
        notes = report.stages["notes"]
        assert len(notes) == 2
        assert notes[1].startswith(
            "Non-converged fits: 0 bootstrap MLE fit(s) and 2 point fit(s)"
        )

    @pytest.mark.parametrize("count_mode", ["sampled", "analytic"])
    @pytest.mark.parametrize("method", ["mle", "linear"])
    def test_one_fitter_call_per_branch(self, monkeypatch, method, count_mode):
        """All branches of a run, with every resample, share one fitter call.

        The call fits 2 x points x (1 + n_mc_samples) rows when sampled and
        2 x points when analytic: purify has one point, the custom sweep three.
        """
        calls = []
        for name in ("_mle_fits", "_linear_fits"):
            real = getattr(tomo, name)

            def spy(counts, *args, _real=real, _name=name, **kwargs):
                calls.append((_name, len(counts)))
                return _real(counts, *args, **kwargs)

            monkeypatch.setattr(tomo, name, spy)
        cfg = analytic_cfg(
            count_mode=count_mode,
            tomography=TomographyConfig(
                pairs_per_setting=20_000, method=method, n_mc_samples=10
            ),
        )
        sweep = replace(cfg, sweep=SweepConfig("visibility", (0.5, 0.7, 0.9)))
        rows = 11 if count_mode == "sampled" else 1
        for run, run_cfg, points in ((run_purification, cfg, 1), (run_custom, sweep, 3)):
            calls.clear()
            run(run_cfg)
            assert calls == [(f"_{method}_fits", 2 * points * rows)]

    def test_artifacts_are_written(self, tmp_path):
        """Counts, reconstructions, bar tables, and the report land on disk."""
        run_purification(analytic_cfg(), tmp_path)
        for name in (
            "report_purify.json",
            "counts_input.csv",
            "counts_output.csv",
            "rho_input_reconstructed.txt",
            "rho_output_reconstructed.txt",
            "rho_input_bars.dat",
            "rho_output_bars.dat",
        ):
            assert (tmp_path / name).exists(), name
        # counts files: header plus 36 rows
        lines = (tmp_path / "counts_input.csv").read_text().strip().splitlines()
        assert len(lines) == 37

    def test_reconstruction_dump_is_loadable(self, tmp_path):
        """The dumped output matrix reloads to the reported fidelity."""
        report = run_purification(analytic_cfg(), tmp_path)
        rho = load_density_matrix(tmp_path / "rho_output_reconstructed.txt")
        want = report.stages["tomography"]["output"]["metrics"]["fidelity"]
        assert fidelity_to(rho, PHI_PLUS_KET) == pytest.approx(want, abs=1e-12)

    def test_bar_table_shape(self, tmp_path):
        """Bar tables hold one header and 16 rows with four 0.5 magnitudes."""
        run_purification(analytic_cfg(), tmp_path)
        lines = (tmp_path / "rho_output_bars.dat").read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 17
        mags = [float(line.split()[2]) for line in lines[1:]]
        big = [m for m in mags if abs(m - 0.4895) < 1e-6 or abs(m - 0.5) < 1e-6]
        assert len(big) == 4

    def test_port_probabilities_reported(self, tmp_path):
        """Exit-port populations appear in the transfer stage block."""
        report = run_purification(analytic_cfg(), tmp_path)
        ports = report.stages["transfer"]["port_probs"]
        assert len(ports) == 4
        assert sum(ports) == pytest.approx(1.0, abs=1e-9)

    def test_sampled_matches_analytic_within_error(self, tmp_path):
        """Sampled-mode metrics agree with analytic truth to five sigma."""
        sampled = analytic_cfg(
            count_mode="sampled",
            tomography=TomographyConfig(
                pairs_per_setting=20_000, method="linear", n_mc_samples=40
            ),
        )
        report = run_purification(sampled, tmp_path)
        m_out = report.stages["tomography"]["output"]["metrics"]
        assert m_out["fidelity_sigma"] > 0.0
        assert abs(m_out["fidelity"] - 0.9895) < 5.0 * m_out["fidelity_sigma"] + 1e-3


class TestSweepPipelines:
    def test_chsh_sweep_analytic_closed_form(self, tmp_path):
        """Input S follows the tilted-Bell formula; output is flat."""
        cfg = analytic_cfg(
            source=SourceConfig(pol_input="bell_p", franson_visibility=0.979),
            channel=NoisyChannelSpec(()),
            sweep=SweepConfig("p", (0.0, 0.25, 0.5)),
        )
        report = run_chsh_sweep(cfg, tmp_path)
        rows = report.stages["sweep_rows"]
        for row in rows:
            assert row["s_in"] == pytest.approx(s_formula(row["p"]), abs=1e-9)
            assert row["s_out"] == pytest.approx(
                math.sqrt(2.0) * (1.0 + 0.979), abs=1e-9
            )
        csv = (tmp_path / "chsh_sweep.csv").read_text().strip().splitlines()
        assert csv[0] == "p,s_in,s_in_sigma,s_out,s_out_sigma"
        assert len(csv) == 1 + len(rows)

    def test_sweep_note_counts_every_point(self):
        """The note sums n_nonconverged over every metrics block of a sweep."""
        cfg = analytic_cfg(
            count_mode="sampled",
            channel=NoisyChannelSpec(()),
            tomography=TomographyConfig(
                pairs_per_setting=20_000, n_mc_samples=10, mle_max_iter=3
            ),
            sweep=SweepConfig("p", (0.1, 0.5)),
        )
        report = run_chsh_sweep(cfg)
        assert report.stages["notes"][1].startswith(
            "Non-converged fits: 40 bootstrap MLE fit(s) and 4 point fit(s)"
        )
        for row in report.stages["sweep_rows"]:
            for branch in ("input", "output"):
                recon = row[f"{branch}_reconstruction"]
                assert (recon["iterations"], recon["converged"]) == (3, False)

    def test_chsh_sweep_rejects_other_parameters(self):
        """The balance sweep is the only supported chsh-sweep scan."""
        cfg = analytic_cfg(sweep=SweepConfig("visibility", (0.5,)))
        with pytest.raises(ConfigError, match="parameter"):
            run_chsh_sweep(cfg)

    @pytest.mark.parametrize("command, sweep", [
        ("purify", {"parameter": "visibility", "values": [0.5, 0.9]}),
        ("purify", {"parameter": "sum_phase", "values": [0.0]}),
        ("fringe-scan", {"parameter": "p", "values": [0.1]}),
        ("fringe-scan", {"parameter": "visibility", "values": [0.5, 0.9]}),
    ])
    def test_a_sweep_the_experiment_ignores_is_refused_by_name(
        self, tmp_path, capsys, command, sweep
    ):
        """purify takes no sweep and fringe-scan only a sum_phase one; the rest are refused.

        The refusal names sweep.parameter and comes before any output.
        """
        path, out = write_config(tmp_path, sweep=sweep), tmp_path / "out"
        assert validate(str(path)) == []
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sweep.parameter: {command} "), err
        assert repr(sweep["parameter"]) in err
        assert not out.exists()

    def test_custom_visibility_sweep(self):
        """Output concurrence tracks the swept source visibility."""
        cfg = analytic_cfg(
            source=SourceConfig(pol_input="bell_p"),
            channel=NoisyChannelSpec(()),
            sweep=SweepConfig("visibility", (0.0, 0.5, 1.0)),
        )
        report = run_custom(cfg)
        points = report.stages["points"]
        assert len(points) == 3
        for point, v in zip(points, (0.0, 0.5, 1.0)):
            got = point["output"]["metrics"]["concurrence"]
            assert got == pytest.approx(v, abs=1e-8)

    def test_custom_without_sweep_runs_single_point(self):
        """No sweep block means one pipeline evaluation."""
        report = run_custom(analytic_cfg())
        assert len(report.stages["points"]) == 1


class TestStageTimes:
    @pytest.mark.parametrize("run", [run_purification, run_chsh_sweep, run_custom])
    def test_run_block_times_every_stage(self, run):
        """The run block gives each stage's seconds; together they fit in elapsed_s.

        purify runs its one source point; the sweeps run two points.
        """
        cfg = analytic_cfg(
            count_mode="sampled",
            source=SourceConfig(pol_input="bell_p"),
            tomography=TomographyConfig(pairs_per_setting=2_000, n_mc_samples=10),
            sweep=None if run is run_purification else SweepConfig("p", (0.1, 0.5)),
        )
        block = run(cfg).as_dict()["run"]
        stage_s = block["stage_s"]
        assert tuple(stage_s) == STAGE_NAMES
        assert all(seconds >= 0.0 for seconds in stage_s.values())
        assert min(stage_s["resample"], stage_s["fit"], stage_s["metrics"]) > 0.0
        assert sum(stage_s.values()) <= block["elapsed_s"]

    def test_fringe_scan_times_its_three_stages(self):
        """The fringe scan's run block gives the seconds of its source, channel and scan."""
        block = run_fringe_scan(analytic_cfg()).as_dict()["run"]
        stage_s = block["stage_s"]
        assert tuple(stage_s) == ("source", "channel", "scan")
        assert all(seconds >= 0.0 for seconds in stage_s.values())
        assert stage_s["scan"] > 0.0
        assert sum(stage_s.values()) <= block["elapsed_s"]

    def test_the_bootstrap_adds_its_stages_to_a_given_accumulator(self):
        """The resample, fit and metrics seconds add to what the accumulator holds."""
        data = tomo.analytic_counts(DensityMatrix.pure(PHI_PLUS_KET), 2_000)
        stage_s = {"fit": 1.0}
        tomo._bootstrap_reports(data.counts[None], data.pairs_per_setting, [0], n_samples=10,
                                method="linear", stage_s=stage_s)
        assert tuple(stage_s) == ("fit", "resample", "metrics")
        assert stage_s["fit"] > 1.0


class TestFringePipeline:
    def test_visibility_matches_configuration(self):
        """The scanned fringe reproduces the configured visibility."""
        for v in (0.0, 0.5, 0.979, 1.0):
            cfg = analytic_cfg(
                source=SourceConfig(pol_input="bell_p", franson_visibility=v),
                channel=NoisyChannelSpec(()),
            )
            report = run_fringe_scan(cfg)
            assert report.stages["fringe"]["visibility"] == pytest.approx(
                v, abs=1e-10
            )

    def test_fringe_artifacts(self, tmp_path):
        """The scan writes a two-column plot table."""
        cfg = analytic_cfg(
            source=SourceConfig(pol_input="bell_p", franson_visibility=0.7),
            channel=NoisyChannelSpec(()),
        )
        run_fringe_scan(cfg, tmp_path)
        lines = (tmp_path / "fringe.dat").read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 26
        phi, prob = map(float, lines[1].split())
        assert prob == pytest.approx((1 + 0.7 * math.cos(phi)) / 2, abs=1e-12)


class TestDeterminism:
    def test_same_seed_same_report(self, tmp_path):
        """Two runs with one seed agree except for the run block."""
        cfg = analytic_cfg(
            count_mode="sampled",
            tomography=TomographyConfig(
                pairs_per_setting=2_000, method="linear", n_mc_samples=15
            ),
        )
        a = run_purification(cfg, tmp_path / "a").as_dict()
        b = run_purification(cfg, tmp_path / "b").as_dict()
        a.pop("run")
        b.pop("run")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_file_is_one_indented_json_dump(self, tmp_path):
        """A report file holds json.dumps of its dict with indent 2 and a newline."""
        report = run_purification(analytic_cfg(), tmp_path)
        want = json.dumps(report.as_dict(), indent=2) + "\n"
        assert (tmp_path / "report_purify.json").read_bytes() == want.encode("ascii")

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        """The workers setting must not leak into results."""
        base = dict(
            source=SourceConfig(pol_input="bell_p"),
            channel=NoisyChannelSpec(()),
            tomography=TomographyConfig(
                pairs_per_setting=2_000, method="linear", n_mc_samples=15
            ),
            count_mode="sampled",
            seed=9,
            sweep=SweepConfig("p", (0.0, 0.2, 0.4)),
        )
        run_chsh_sweep(ExperimentConfig(workers=1, **base), tmp_path / "w1")
        run_chsh_sweep(ExperimentConfig(workers=4, **base), tmp_path / "w4")
        csv1 = (tmp_path / "w1" / "chsh_sweep.csv").read_bytes()
        csv4 = (tmp_path / "w4" / "chsh_sweep.csv").read_bytes()
        assert csv1 == csv4

    def test_counts_csv_byte_identical(self, tmp_path):
        """Sampled count files repeat byte for byte under one seed."""
        cfg = analytic_cfg(
            count_mode="sampled",
            tomography=TomographyConfig(
                pairs_per_setting=2_000, method="linear", n_mc_samples=10
            ),
        )
        run_purification(cfg, tmp_path / "a")
        run_purification(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "counts_output.csv").read_bytes() == (
            tmp_path / "b" / "counts_output.csv"
        ).read_bytes()


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**65


# Values whose json text takes each branch of the report writer.
JSON_EDGE_VALUES = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, sys.float_info.max, 0.1, 1e22, 1e-7,
    0, -1, 2**70, -(2**70), True, False, None, "", "plain",
    'quote " backslash \\ slash / tab \t newline \n nul \x00 del \x7f',
    "caf\u00e9 \u2603 \U0001d11e \ud800", [], {}, [[]], [{}], {"a": []}, {"a": {}},
    [[[], {}], {"b": [{}]}], (), (1, (2.5, ())), [None, True, [False]],
    np.float64(0.1), np.float64(math.nan), np.float64(-math.inf), Level.LOW, Level.HIGH,
    {1: "int", 2.5: "float", None: "none", -0.0: "zero", math.inf: "inf"},
    {True: 1, False: 0}, {math.nan: [], 2**70: {}}, {Level.HIGH: 1, np.float64(0.5): 2},
    {"\u00e9\n": ["nested", {"deep": [1, 2.0, "3"]}]},
)


class TestReportWriter:
    @pytest.mark.parametrize("experiment", ["purify", "chsh-sweep", "custom", "fringe-scan"])
    @pytest.mark.parametrize("count_mode", ["analytic", "sampled"])
    def test_report_files_are_json_dumps_with_indent_2(self, tmp_path, experiment, count_mode):
        """Every experiment writes json.dumps(as_dict(), indent=2) and a newline."""
        tomography = TomographyConfig(pairs_per_setting=2_000, method="mle",
                                      n_mc_samples=10, mle_max_iter=30)
        cfg = analytic_cfg(count_mode=count_mode, tomography=tomography)
        if experiment == "chsh-sweep":
            report = run_chsh_sweep(replace(cfg, sweep=SweepConfig("p", (0.0, 0.3))), tmp_path)
        elif experiment == "custom":
            report = run_custom(replace(cfg, sweep=SweepConfig("visibility", (0.5, 0.9))),
                                tmp_path)
        elif experiment == "fringe-scan":
            report = run_fringe_scan(cfg, tmp_path, n_points=9)
        else:
            report = run_purification(cfg, tmp_path)
        [path] = tmp_path.glob("report_*.json")
        want = json.dumps(report.as_dict(), indent=2) + "\n"
        assert path.read_bytes() == want.encode("ascii")

    def test_edge_values_are_written_as_json_writes_them(self):
        """Each edge value alone, in a list and in a dict gives json.dumps(indent=2)."""
        for value in JSON_EDGE_VALUES:
            assert cli._json_dumps(value) == json.dumps(value, indent=2), value
        every = list(JSON_EDGE_VALUES)
        assert cli._json_dumps(every) == json.dumps(every, indent=2)
        keyed = {f"k{i}": value for i, value in enumerate(every)}
        assert cli._json_dumps(keyed) == json.dumps(keyed, indent=2)

    @pytest.mark.parametrize("value", [np.int64(3), {1, 2}, [1, {"a": np.int64(3)}],
                                       {np.int64(1): 1}, {(1, 2): 3}, {"a": {3j}}])
    def test_what_json_refuses_is_refused_with_its_type_error(self, value):
        """A numpy integer, a set or a tuple key raises the TypeError json raises."""
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json_dumps(value)
        assert str(got.value) == str(want.value)


class TestEmitPlotData:
    def test_emit_from_report_dict(self, tmp_path):
        """emit_plot_data works from the serialized report too."""
        cfg = analytic_cfg(
            source=SourceConfig(pol_input="bell_p", franson_visibility=0.9),
            channel=NoisyChannelSpec(()),
        )
        report = run_fringe_scan(cfg, tmp_path)
        (tmp_path / "fringe.dat").unlink()
        written = emit_plot_data(json.loads(json.dumps(report.as_dict())), tmp_path)
        assert any(path.endswith("fringe.dat") for path in written)

    def test_bars_text_format(self):
        """Bar tables carry row, column, magnitude, and phase columns."""
        text = density_matrix_bars(DensityMatrix.pure(PHI_PLUS_KET))
        lines = text.strip().splitlines()
        assert len(lines) == 17
        row = lines[1].split()
        assert len(row) == 4


class TestMainEntry:
    def test_validate_ok(self, tmp_path, capsys):
        """A sound config validates with exit code 0."""
        path = write_config(tmp_path)
        assert main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        """Diagnostics print and the exit code is 1."""
        path = write_config(
            tmp_path,
            interferometer={"coincidence_window_ns": 3.0, "delta_t_ns": 2.6},
        )
        assert main(["validate", "--config", str(path)]) == 1
        assert "window" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--seed", "--analytic", "--out", "--mc-samples"])
    def test_validate_takes_only_a_config(self, capsys, option):
        """validate refuses the run options it would ignore, with argparse's exit code 2."""
        argv = ["validate", option] + ([] if option == "--analytic" else ["1"])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert main(["validate"]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        """A nonexistent config path is a config error, not a crash."""
        missing = tmp_path / "nope.json"
        assert main(["purify", "--config", str(missing)]) == 1

    @pytest.mark.parametrize(
        "text", [b'{"output_dir": "\xff"}', b'{"seed": 1' + b"1" * 5000 + b"}"]
    )
    def test_unparsable_file_is_config_error(self, tmp_path, capsys, text):
        """Undecodable bytes and oversized integers are config errors too."""
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["purify", "--config", str(path)]) == 1
        assert "cannot parse" in capsys.readouterr().err

    def test_purify_end_to_end(self, tmp_path, capsys):
        """The purify subcommand runs and writes its artifacts."""
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["purify", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "report_purify.json").exists()
        out = capsys.readouterr().out
        assert "output" in out and "F =" in out

    def test_out_flag_overrides_directory(self, tmp_path):
        """--out redirects every artifact."""
        path = write_config(tmp_path)
        dest = tmp_path / "elsewhere"
        assert main(["purify", "--config", str(path), "--out", str(dest)]) == 0
        assert (dest / "report_purify.json").exists()

    def test_out_does_not_change_the_report_body(self, tmp_path):
        """Two runs of one config and seed into two --out directories give one report body.

        The config echo keeps the config's output_dir; only the run block differs.
        """
        path = write_config(tmp_path, count_mode="sampled")
        bodies = []
        for name in ("a", "b"):
            assert main(["purify", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            report = json.loads((tmp_path / name / "report_purify.json").read_text())
            del report["run"]
            assert report["config"]["output_dir"] == "."
            bodies.append(json.dumps(report))
        assert bodies[0] == bodies[1]

    def test_python_m_fransonsim_runs_the_command(self, tmp_path):
        """``python -m fransonsim validate`` exits 0, with no warning on stderr.

        RuntimeWarnings are errors in the child, as in this suite.
        """
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fransonsim", "validate"],
            capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == "config ok\n"

    def test_python_m_fransonsim_cli_runs_without_runpy_warning(self, tmp_path):
        """``python -m fransonsim.cli validate`` exits 0 with RuntimeWarnings as errors.

        The package imports ``cli`` only on first use of one of its names,
        so runpy does not find ``fransonsim.cli`` already imported.
        """
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fransonsim.cli", "validate"],
            capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == "config ok\n"

    def test_bad_override_is_config_error(self, tmp_path, capsys):
        """An out-of-range --mc-samples exits with code 1."""
        path = write_config(tmp_path)
        code = main(["purify", "--config", str(path), "--mc-samples", "5"])
        assert code == 1
        assert "n_mc_samples" in capsys.readouterr().err

    def test_runtime_failure_is_exit_two(self, tmp_path, capsys):
        """An unwritable output location exits with code 2."""
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        path = write_config(tmp_path, output_dir=str(blocker / "sub"))
        assert main(["purify", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "overrides, argv, field",
        [
            ({"output_dir": 5}, [], "config.output_dir"),
            ({"seed": -1}, [], "seed must be >= 0"),
            ({}, ["--seed", "-1"], "seed must be >= 0"),
        ],
    )
    def test_bad_field_exits_one(self, tmp_path, capsys, overrides, argv, field):
        """Wrong types and a negative seed are config errors naming the field."""
        path = write_config(tmp_path, **overrides)
        assert main(["purify", "--config", str(path), *argv]) == 1
        assert field in capsys.readouterr().err
        if not argv:
            assert main(["validate", "--config", str(path)]) == 1
            assert field in capsys.readouterr().out

    def test_fringe_scan_command(self, tmp_path, capsys):
        """The fringe-scan subcommand prints the visibility."""
        path = write_config(
            tmp_path,
            source={"pol_input": "bell_p", "franson_visibility": 0.5},
            channel={"stages": []},
            output_dir=str(tmp_path / "fr"),
        )
        assert main(["fringe-scan", "--config", str(path)]) == 0
        assert "visibility = 0.5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, report",
        [(["purify", "--analytic"], "report_purify.json"),
         (["fringe-scan"], "report_fringe.json")],
    )
    def test_huge_phase_jitter_runs_with_finite_reports(self, tmp_path, argv, report):
        """A jitter whose square overflows a float damps to zero instead of raising."""
        path = write_config(tmp_path, interferometer={"phase_jitter_sigma_deg": 1e300})
        dest = tmp_path / "out"
        assert main([*argv, "--config", str(path), "--out", str(dest)]) == 0
        floats = []  # every float token of the report, NaN and Infinity included

        def keep(token):
            floats.append(float(token))

        json.loads((dest / report).read_text(), parse_float=keep, parse_constant=keep)
        assert floats and all(math.isfinite(x) for x in floats)

    def test_seed_flag_changes_sampled_counts(self, tmp_path):
        """--seed reaches the counting stage."""
        path = write_config(
            tmp_path,
            count_mode="sampled",
            tomography={"pairs_per_setting": 1000, "method": "linear",
                        "n_mc_samples": 10},
        )
        a = tmp_path / "sa"
        b = tmp_path / "sb"
        assert main(["purify", "--config", str(path), "--seed", "1",
                     "--out", str(a)]) == 0
        assert main(["purify", "--config", str(path), "--seed", "2",
                     "--out", str(b)]) == 0
        assert (a / "counts_output.csv").read_bytes() != (
            b / "counts_output.csv"
        ).read_bytes()


# Edge values of the config fields, in file units. The budget fields stay
# small, so that each accepted config runs in milliseconds.
FUZZ_FLOATS = (
    0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.5, 0.5000000000000001, 0.9999999999999999, 1.0,
    1.0000000001, 2.6, 105.0, 360.0, -1.0, 1e300, -1e300, sys.float_info.max,
)
FUZZ_INTS = {
    "pairs_per_setting": (-1, 0, 1, 2, 1000, 10**18, 10**18 + 1, 2**63),
    "n_mc_samples": (-1, 9, 10, 11),
    "mle_max_iter": (-1, 0, 1, 2, 30),
    "steps": (-2, 0, 3, 4, 6, 360, 10**18),
    "seed": (-1, 0, 2**63, 10**30),
    "workers": (-1, 0, 1, 2),
}
FUZZ_CHOICES = {
    "pol_input": POL_INPUTS, "kind": WAVEPLATE_KINDS, "arm": ARMS, "method": RECON_METHODS,
    "count_mode": COUNT_MODES, "parameter": SWEEP_PARAMETERS,
}
FUZZ_WRONG_TYPES = (True, "1", None, [])


def fuzz_value(rng, name):
    """An edge value of the field ``name``: in range, just outside it, or of the wrong type."""
    if rng.random() < 0.05:
        return rng.choice(FUZZ_WRONG_TYPES)
    if name in FUZZ_INTS:
        return rng.choice(FUZZ_INTS[name])
    if name in FUZZ_CHOICES:
        return rng.choice((*FUZZ_CHOICES[name], "", "bogus"))
    return rng.choice(FUZZ_FLOATS)


def fuzz_fill(rng, section: dict, cls, names, touched: set) -> dict:
    """Set the scalar fields ``names`` of ``cls`` in ``section`` to edge values."""
    for name in names:
        section[cli._key(name)] = fuzz_value(rng, name)
        touched.add(name)
    return section


def scalar_fields(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.type in cli._TYPES and f.name != "output_dir"]


def fuzz_config(rng):
    """A default config with edge values in one to three fields, its stages or its sweep.

    Returns the command, the raw config in file units and the names of the
    fields it set.
    """
    command = rng.choice(("purify", "chsh-sweep", "custom", "fringe-scan"))
    raw = config_to_raw(default_config(command))
    raw["tomography"].update(pairs_per_setting=1000, n_mc_samples=10, mle_max_iter=30)
    touched = set()
    sections = [(raw, ExperimentConfig), (raw["source"], SourceConfig),
                (raw["interferometer"], InterferometerConfig),
                (raw["tomography"], TomographyConfig)]
    for _ in range(rng.randrange(1, 4)):
        section, cls = rng.choice(sections)
        fuzz_fill(rng, section, cls, [rng.choice(scalar_fields(cls))], touched)
    if rng.random() < 0.3:
        stages = []
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.5:
                stages.append(fuzz_fill(rng, {"type": "rotating_plate"}, RotatingPlateStage,
                                        scalar_fields(RotatingPlateStage), touched))
                continue
            stage = {"type": "coherent"}
            for arm in ("plates_a", "plates_b"):
                stage[arm] = [
                    fuzz_fill(rng, {}, WaveplateSpec, scalar_fields(WaveplateSpec), touched)
                    for _ in range(rng.randrange(3))
                ]
            stages.append(stage)
        raw["channel"]["stages"] = stages
    if rng.random() < 0.3:
        raw["sweep"] = {
            "parameter": fuzz_value(rng, "parameter"),
            "values": [fuzz_value(rng, "values") for _ in range(rng.randrange(1, 4))],
        }
        touched |= {"parameter", "values"}
    return command, raw, touched


class TestConfigFuzz:
    def test_every_config_is_refused_by_name_or_runs(self, tmp_path, capsys):
        """Edge configs: validate names a field they set, or main runs them to finite reports.

        The one refusal left to run time is of a sweep that the experiment
        would ignore (purify takes none, chsh-sweep scans p and fringe-scan
        sum_phase), which names sweep.parameter.
        """
        scans = {"purify": None, "chsh-sweep": "p", "fringe-scan": "sum_phase"}
        rng = random.Random(20211008)
        outcomes = {"refused": 0, "ran": 0}
        for i in range(400):
            command, raw, touched = fuzz_config(rng)
            diagnostics = validate(raw)
            for diag in diagnostics:
                assert any(name in diag for name in touched), (diag, raw)
            if diagnostics:
                outcomes["refused"] += 1
                continue
            path, out = tmp_path / "config.json", tmp_path / "out"
            path.write_text(json.dumps(raw))
            code = main([command, "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            sweep = raw["sweep"]
            if code == 1 and sweep and command in scans and sweep["parameter"] != scans[command]:
                assert err.startswith(f"sweep.parameter: {command} "), err
                continue
            assert code == 0, (err, raw)
            floats = []  # every float token of the reports, NaN and Infinity included
            for report in out.glob("report_*.json"):
                json.loads(report.read_text(), parse_float=floats.append,
                           parse_constant=floats.append)
                # the config echo reloads to the config the run used, bit for bit
                echo = tmp_path / "echo.json"
                echo.write_text(json.dumps(json.loads(report.read_text())["config"]))
                assert load_config(echo) == load_config(path), raw
            assert floats and all(math.isfinite(float(x)) for x in floats), raw
            shutil.rmtree(out)
            outcomes["ran"] += 1
        assert min(outcomes.values()) >= 50, outcomes
