import csv
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_mimo.baselines import WMMSE_MAX_ITERS
from circle_mimo.cli import main as cli_main
from circle_mimo.dftcore import PermutedDftFamily
from circle_mimo.harness import (
    KNOWN_METHODS,
    PRESET_NAMES,
    ExperimentConfig,
    _SweepContext,
    load_config_file,
    preset,
    run_experiment,
    summarize,
    write_csv,
)
from conftest import _comparable, assert_trial_rows_order_free


def quick_config(**overrides):
    base = dict(
        n_devices=6,
        n_trials=3,
        n_subcarriers=2,
        cp_len=1,
        q_levels=32,
        methods=("bound", "circle", "r-circle"),
        seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_needs_exactly_one_power_spec(self):
        with pytest.raises(ValueError):
            quick_config(snr_db=10.0, p_t_db=0.0).validate()
        with pytest.raises(ValueError):
            quick_config(snr_db=None, p_t_db=None).validate()
        quick_config(snr_db=None, p_t_db=0.0).validate()

    def test_device_count_limits(self):
        with pytest.raises(ValueError):
            quick_config(n_devices=7, n_antennas=8).validate()
        quick_config(n_devices=6, n_antennas=8).validate()
        # baselines alone allow up to N devices
        quick_config(n_devices=8, n_antennas=8, methods=("mrt",)).validate()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            quick_config(methods=("circle", "dirty-paper")).validate()

    def test_unavailable_benchmark_is_documented_stub(self):
        with pytest.raises(NotImplementedError) as err:
            quick_config(methods=("wo-csit-feedback",)).validate()
        assert "uplink pilots" in str(err.value)

    def test_trial_and_sweep_checks(self):
        with pytest.raises(ValueError):
            quick_config(n_trials=0).validate()
        with pytest.raises(ValueError):
            quick_config(sweep_param="nonsense", sweep_values=(1,)).validate()
        with pytest.raises(ValueError):
            quick_config(sweep_param="n_devices", sweep_values=()).validate()

    def test_repeated_method_rejected(self):
        # a method named twice ran twice per trial and doubled its summary's n_trials
        with pytest.raises(ValueError, match="method 'circle' is named more than once"):
            quick_config(methods=("bound", "circle", "circle")).validate()

    def test_repeated_sweep_value_rejected(self):
        # a value listed twice ran its point twice and doubled its summary's n_trials;
        # values compare by ==, as summarize's buckets do
        for values in ((10.0, 10.0), (10, 5.0, 10.0)):
            cfg = quick_config(sweep_param="snr_db", sweep_values=values)
            with pytest.raises(ValueError, match="^sweep value snr_db=10.0 is listed more than once$"):
                cfg.validate()
        quick_config(sweep_param="snr_db", sweep_values=(10.0, 5.0)).validate()

    def test_sweep_values_without_sweep_param_rejected(self):
        # they were ignored: the config ran one unswept point
        with pytest.raises(ValueError, match="sweep_values is set but sweep_param is not"):
            quick_config(sweep_values=(2, 3)).validate()

    def test_power_sweep_over_a_set_snr_rejected(self):
        cfg = quick_config(sweep_param="p_t_db", sweep_values=(0.0, 5.0))
        with pytest.raises(ValueError, match="exactly one of snr_db and p_t_db"):
            cfg.validate()
        quick_config(snr_db=None, sweep_param="p_t_db", sweep_values=(0.0, 5.0)).validate()

    def test_every_sweep_point_checked_before_the_first_trial(self):
        for param, values, message in (
            ("q_levels", (8, 0), "q_levels must be at least 1"),
            ("rho", (2, 3), "rho must lie in"),
        ):
            cfg = quick_config(sweep_param=param, sweep_values=values)
            with pytest.raises(ValueError, match=message):
                cfg.validate()
            with pytest.raises(ValueError, match=message):
                next(iter(run_experiment(cfg)))

    def test_nan_rho_rejected(self):
        # nan fails no ordering test, so "rho <= 0 or rho > 2" let it through
        with pytest.raises(ValueError, match="rho must lie in"):
            quick_config(rho=float("nan")).validate()

    def test_nan_sweep_point_rejected_before_the_first_trial(self):
        cfg = replace(
            preset("fig4d"), n_devices=4, n_trials=2, sweep_param="rho",
            sweep_values=(2.0, float("nan")),
        )
        with pytest.raises(ValueError, match="sweep point rho=nan: rho must lie in"):
            next(iter(run_experiment(cfg)))

    def test_non_integer_device_count_rejected(self):
        cfg = quick_config(sweep_param="n_devices", sweep_values=(4, 4.7))
        with pytest.raises(ValueError, match="n_devices must be an integer"):
            cfg.validate()
        with pytest.raises(ValueError, match="q_levels must be an integer"):
            quick_config(q_levels=32.0).validate()

    def test_frequency_plan_checked(self):
        # the point's ArrayGeometry and ChannelProfile make these checks, before
        # the first trial
        for match, overrides in (
            ("n_subcarriers", {"n_subcarriers": 0}),
            ("cp_len", {"cp_len": -1}),
            ("carrier_freq_hz", {"carrier_freq_hz": 0.0}),
            ("carrier_freq_hz", {"carrier_freq_hz": math.inf}),
            ("bandwidth_hz", {"bandwidth_hz": math.nan}),
            ("bandwidth_hz", {"bandwidth_hz": math.inf}),
            ("n_nlos", {"n_nlos": -1}),
            # subcarrier 1 sits at f_c - B/4 for M = 2
            ("lowest subcarrier", {"carrier_freq_hz": 10e9, "bandwidth_hz": 40e9}),
        ):
            with pytest.raises(ValueError, match=match):
                quick_config(**overrides).validate()
            with pytest.raises(ValueError, match=match):
                next(iter(run_experiment(quick_config(**overrides))))

    def test_antenna_count_leaves_a_symbol_slot(self):
        # a frame is two pilots plus at least one symbol, even for baselines
        cfg = quick_config(n_devices=1, n_antennas=2, methods=("mrt",))
        with pytest.raises(ValueError, match="n_antennas=2"):
            cfg.validate()
        quick_config(n_devices=1, n_antennas=3, methods=("mrt",)).validate()

    @settings(max_examples=150, deadline=None)
    @given(
        fields=st.fixed_dictionaries({
            "n_devices": st.integers(1, 5),
            "n_antennas": st.none() | st.integers(1, 8),
            "n_nlos": st.integers(0, 3),
            "rho": st.floats(0.01, 2.0),
            "q_levels": st.integers(1, 16),
            "n_subcarriers": st.integers(1, 3),
            "cp_len": st.integers(0, 3),
            "bandwidth_hz": st.sampled_from([0.0, 10e9, 250e9]),
            "carrier_freq_hz": st.sampled_from([100e9, 28e9, math.inf, math.nan]),
            "sigma2_db": st.floats(-30.0, 10.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
            "snr_db": st.floats(-30.0, 60.0),
            "delta2_db": st.floats(-40.0, 0.0),
            "csir": st.sampled_from(["genie", "estimated"]),
            "symbol_source": st.sampled_from(["gaussian", "qpsk"]),
            "methods": st.lists(
                st.sampled_from(KNOWN_METHODS), min_size=1, max_size=6, unique=True
            ).map(tuple),
            "seed": st.integers(0, 2**32),
        }),
        sweep=st.none() | st.tuples(
            st.just("n_devices"),
            st.lists(st.integers(1, 6), min_size=1, max_size=2),
        ),
    )
    # N = 8 at 250 GHz bandwidth: the stacked channel of subcarrier 1, at
    # 17 GHz, has condition number 7e14, and ZF once raised mid-run on it
    @example(
        fields={
            "n_devices": 1, "n_antennas": None, "n_nlos": 0, "rho": 0.015625, "q_levels": 1,
            "n_subcarriers": 3, "cp_len": 0, "bandwidth_hz": 250e9, "snr_db": 0.0,
            "delta2_db": 0.0, "csir": "genie", "symbol_source": "gaussian",
            "methods": ("circle", "r-circle", "bound", "mrt", "zf"), "seed": 36,
        },
        sweep=("n_devices", [6]),
    )
    def test_every_accepted_config_completes_its_trials(self, fields, sweep):
        cfg = ExperimentConfig(n_trials=1, **fields)
        if sweep is not None:
            cfg.sweep_param, cfg.sweep_values = sweep[0], tuple(sweep[1])
        try:
            cfg.validate()
        except ValueError:
            return
        rows = list(run_experiment(cfg))
        points = 1 if sweep is None else len(sweep[1])
        assert len(rows) == points * len(cfg.methods)
        assert all(np.isfinite(row.per_device_se).all() for row in rows)

    def test_validation_happens_before_trials(self):
        bad = quick_config(n_trials=0)
        with pytest.raises(ValueError):
            next(iter(run_experiment(bad)))

    @pytest.mark.parametrize("field, overrides", [
        ("snr_db", {"snr_db": 4000.0}),
        ("delta2_db", {"delta2_db": 4000.0}),
        ("delta2_db", {"delta2_db": -4000.0}),
        ("sigma2_db", {"sigma2_db": -4000.0}),
        ("sigma2_db", {"sigma2_db": 4000.0}),
        ("p_t_db", {"snr_db": None, "p_t_db": -4000.0}),
        ("p_t_db", {"snr_db": None, "p_t_db": 4000.0}),
        ("snr_db", {"snr_db": 300.0, "sigma2_db": 3000.0}),  # p_t = 1e30 * 1e300
        ("sigma2_db", {"sigma2_db": math.nan}),
        ("delta2_db", {"delta2_db": -math.inf}),
        ("snr_db", {"snr_db": math.nan}),
        ("p_t_db", {"snr_db": None, "p_t_db": math.inf}),
    ])
    def test_db_powers_must_be_finite_and_positive(self, field, overrides):
        with pytest.raises(ValueError, match=f"^{field}="):
            quick_config(**overrides).validate()

    def test_db_power_of_a_sweep_point_rejected_before_the_first_trial(self):
        cfg = quick_config(sweep_param="snr_db", sweep_values=(10.0, 4000.0))
        with pytest.raises(ValueError, match="sweep point snr_db=4000.0: snr_db=4000.0 dB"):
            next(iter(run_experiment(cfg)))


class TestPresets:
    def test_fig2_parameters(self):
        cfg = preset("fig2")
        assert cfg.p_t_db == 0.0
        assert cfg.sigma2_db == -10.0
        assert cfg.n_nlos == 3
        assert cfg.snr_db is None
        assert cfg.csir == "genie"
        assert cfg.n_subcarriers == 1 and cfg.bandwidth_hz == 0.0
        assert cfg.sweep_param == "delta2_db"

    def test_fig4_rho_values(self):
        assert preset("fig4a").rho == pytest.approx(1 / 32)
        assert preset("fig4b").rho == pytest.approx(1 / 8)
        assert preset("fig4c").rho == pytest.approx(1 / 2)
        assert preset("fig4d").rho == pytest.approx(2.0)

    def test_fig5_fig6(self):
        assert preset("fig5").sweep_param == "n_devices"
        cfg6 = preset("fig6")
        assert cfg6.n_devices == 30
        assert cfg6.rho == 2.0
        assert cfg6.sweep_param == "snr_db"

    def test_shared_defaults(self):
        cfg = preset("fig4d")
        assert cfg.carrier_freq_hz == 100e9
        assert cfg.bandwidth_hz == 10e9
        assert cfg.n_subcarriers == 10
        assert cfg.cp_len == 4
        assert cfg.q_levels == 512
        assert cfg.delta2_db == -15.0
        assert cfg.snr_db == 10.0

    # every field a preset sets away from ExperimentConfig()'s defaults,
    # written out; the rest of each resolved config must be the defaults
    RESOLVED = {
        "fig2": dict(
            n_antennas=32, snr_db=None, p_t_db=0.0, n_subcarriers=1, cp_len=0,
            bandwidth_hz=0.0, csir="genie", methods=("bound", "circle"),
            sweep_param="delta2_db", sweep_values=(-40.0, -30.0, -20.0, -10.0, -5.0),
        ),
        "fig4a": dict(rho=0.03125, sweep_param="n_devices", sweep_values=(10, 20, 30)),
        "fig4b": dict(rho=0.125, sweep_param="n_devices", sweep_values=(10, 20, 30)),
        "fig4c": dict(rho=0.5, sweep_param="n_devices", sweep_values=(10, 20, 30)),
        "fig4d": dict(sweep_param="n_devices", sweep_values=(10, 20, 30)),
        "fig5": dict(
            methods=("bound", "r-circle", "wmmse", "zf", "mrt"),
            sweep_param="n_devices", sweep_values=(10, 20, 30),
        ),
        "fig6": dict(
            methods=("bound", "r-circle", "wmmse", "zf", "mrt"),
            sweep_param="snr_db", sweep_values=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        ),
    }

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_resolved_config(self, name):
        got = dataclasses.asdict(preset(name))
        want = {**dataclasses.asdict(ExperimentConfig()), **self.RESOLVED[name]}
        assert got == want
        assert repr(got) == repr(want)  # an int sweep value stays an int

    def test_resolved_configs_cover_every_preset(self):
        assert set(PRESET_NAMES) == set(self.RESOLVED)

    def test_every_preset_validates(self):
        for name in PRESET_NAMES:
            preset(name).validate()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("fig9")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_codebook_spans_the_channel_angle_domain(self, name):
        # the receivers sweep the interval the channel draws its angles from
        cfg = preset(name)
        ctx = _SweepContext(cfg, cfg.sweep_values[0])
        span = ctx.profile.angular_range
        assert span == cfg.rho * math.pi
        assert ctx.codebook.range_span == span
        angles = ctx.codebook.angles
        assert angles.size == cfg.q_levels and angles[0] == 0.0
        assert np.all((angles >= 0.0) & (angles < span))


class TestRunExperiment:
    def test_row_shape_and_invariants(self):
        cfg = quick_config()
        rows = list(run_experiment(cfg))
        assert len(rows) == 3 * 3  # trials x methods
        for row in rows:
            assert row.sum_se_bits_per_use == pytest.approx(
                float(np.sum(row.per_device_se)), abs=1e-9
            )
            assert np.all(row.per_device_se >= 0.0)
            if row.method == "r-circle":
                assert len(row.q_star) == 6
                assert all(1 <= q <= 32 for q in row.q_star)
            if row.method == "circle":
                assert len(row.q_star) == 6 * 2  # device-major, per subcarrier
            if row.method == "bound":
                assert row.psi == 0
            else:
                assert row.psi == 2 * (2 * 8 * 8 + 32 * 8)

    def test_repeat_runs_identical(self):
        cfg = quick_config()
        a = list(run_experiment(cfg))
        b = list(run_experiment(cfg))
        for x, y in zip(a, b):
            assert x.method == y.method
            assert x.sum_se_bits_per_use == y.sum_se_bits_per_use
            assert (x.per_device_se == y.per_device_se).all()

    def test_trial_rows_depend_only_on_config_and_index(self):
        fig4d = replace(preset("fig4d"), sweep_values=(6,), n_trials=3, seed=5)
        fig5 = replace(preset("fig5"), sweep_param=None, sweep_values=None, n_devices=6,
                       n_subcarriers=2, n_trials=3, seed=5)
        assert fig4d.csir == "estimated" and "wmmse" in fig5.methods
        for cfg in (fig4d, fig5):
            one = list(run_experiment(cfg))
            two = list(run_experiment(cfg))
            assert [r.sum_se_bits_per_use for r in one] == [r.sum_se_bits_per_use for r in two]
            assert_trial_rows_order_free(cfg)

    def test_contiguous_set_up_tensors_give_the_same_rows(self):
        # the set-up tensors are strided read-only windows; every product on
        # them must take the path it takes on contiguous copies, bit for bit
        cfg = replace(preset("fig4d"), sweep_param=None, sweep_values=None, n_devices=30,
                      n_trials=3, seed=1)
        assert cfg.csir == "estimated"
        windows = _SweepContext(cfg, None)
        copies = _SweepContext(cfg, None)
        copies.family = PermutedDftFamily(copies.n, np.ascontiguousarray(copies.family.members))
        copies.precoders = np.ascontiguousarray(copies.precoders)
        copies.diagonals = np.ascontiguousarray(copies.diagonals)
        for trial in range(3):
            assert ([_comparable(row) for row in windows.run_trial(trial)]
                    == [_comparable(row) for row in copies.run_trial(trial)])

    def test_genie_mode_matches_bound_structure(self):
        cfg = quick_config(csir="genie", methods=("bound", "circle"), n_subcarriers=1,
                           cp_len=0, bandwidth_hz=0.0, delta2_db=-300.0, n_nlos=0)
        rows = list(run_experiment(cfg))
        by_method = {}
        for r in rows:
            by_method.setdefault(r.method, []).append(r.sum_se_bits_per_use)
        # pure LoS with perfect receiver knowledge meets the narrowband bound
        np.testing.assert_allclose(by_method["circle"], by_method["bound"], rtol=1e-6)

    def test_sweep_produces_tagged_rows(self):
        cfg = quick_config(sweep_param="n_devices", sweep_values=(4, 6), n_antennas=None)
        rows = list(run_experiment(cfg))
        assert len(rows) == 2 * 3 * 3
        assert {r.sweep_value for r in rows} == {4, 6}
        for r in rows:
            assert len(r.per_device_se) == r.sweep_value


class TestCsv:
    def test_schema_and_row_count(self, tmp_path):
        cfg = quick_config(methods=("bound", "circle"), n_trials=3)
        path = tmp_path / "out.csv"
        write_csv(run_experiment(cfg), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,method,sweep_value,sum_se,psi,wall_time_s"
        assert len(lines) == 1 + 3 * 2

    def test_empty_results(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == "trial,method,sweep_value,sum_se,psi,wall_time_s\n"

    def test_lf_line_endings_and_precision(self, tmp_path):
        cfg = quick_config(n_trials=1, methods=("bound",))
        path = tmp_path / "fmt.csv"
        write_csv(run_experiment(cfg), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        value = raw.decode().splitlines()[1].split(",")[3]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12

    def test_deterministic_bytes_across_runs(self, tmp_path):
        cfg = quick_config(n_trials=5)
        digests = []
        for i in range(3):
            path = tmp_path / f"t{i}.csv"
            write_csv(run_experiment(cfg), path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1] == digests[2]
        assert_trial_rows_order_free(cfg)

    def test_timing_column_gated(self, tmp_path):
        cfg = quick_config(n_trials=1, methods=("bound",))
        rows = list(run_experiment(cfg))
        p0 = tmp_path / "notime.csv"
        p1 = tmp_path / "time.csv"
        write_csv(rows, p0)
        write_csv(rows, p1, timing=True)
        assert p0.read_text().splitlines()[1].endswith(",0")
        assert not p1.read_text().splitlines()[1].endswith(",0")

    def test_write_error_carries_path(self):
        with pytest.raises(OSError) as err:
            write_csv([], "/nonexistent-dir/x.csv")
        assert "/nonexistent-dir/x.csv" in str(err.value)

    def test_summary_matches_csv_recomputation(self, tmp_path):
        cfg = quick_config(n_trials=4, sweep_param="n_devices", sweep_values=(4, 6))
        rows = list(run_experiment(cfg))
        path = tmp_path / "agg.csv"
        write_csv(rows, path)
        stats = {
            (s["method"], s["sweep_value"]): s["mean_sum_se"] for s in summarize(rows)
        }
        buckets = {}
        with open(path) as fh:
            for rec in csv.DictReader(fh):
                key = (rec["method"], int(rec["sweep_value"]))
                buckets.setdefault(key, []).append(float(rec["sum_se"]))
        for key, values in buckets.items():
            assert stats[key] == pytest.approx(np.mean(values), abs=1e-9)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        text = """
# comment line
n_devices = 6
n_antennas = 8
n_trials = 2
n_subcarriers = 2
cp_len = 1
q_levels = 16
seed = 9
methods = bound, circle
symbol_source = qpsk
sweep_param = none
"""
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        cfg = load_config_file(path)
        assert cfg.n_devices == 6
        assert cfg.methods == ("bound", "circle")
        assert cfg.symbol_source == "qpsk"
        assert cfg.sweep_param is None
        cfg.validate()

    def test_sweep_values_parse(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("sweep_param = delta2_db\nsweep_values = -40, -30.5, -20\n")
        cfg = load_config_file(path)
        assert cfg.sweep_values == (-40, -30.5, -20)

    def test_nan_rho_rejected(self, tmp_path):
        path = tmp_path / "nan.cfg"
        path.write_text("n_devices = 4\nn_trials = 2\nrho = nan\n")
        cfg = load_config_file(path)
        with pytest.raises(ValueError, match="rho must lie in"):
            cfg.validate()

    def test_unknown_key_rejected(self, tmp_path):
        # sinr_cap is no config field: receiver.SINR_CAP is the only cap
        for key, line in (("antennas", "antennas = 8"), ("sinr_cap", "sinr_cap = 1e6")):
            path = tmp_path / "bad.cfg"
            path.write_text(line + "\n")
            with pytest.raises(ValueError) as err:
                load_config_file(path)
            assert str(err.value) == f"{path}:1: unknown config key {key!r}"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("n_devices 8\n")
        with pytest.raises(ValueError):
            load_config_file(path)


class TestCli:
    def run_cli(self, args, env=None):
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "circle_mimo.cli"] + args,
            capture_output=True,
            text=True,
            env=full_env,
        )

    def test_preset_run_writes_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = cli_main(["run", "--preset", "fig2", "--trials", "2", "--out", str(out), "--quiet"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 5  # trials x methods x sweep points

    def test_config_run_and_seed_override(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "n_devices = 4\nn_trials = 2\nn_subcarriers = 1\ncp_len = 0\n"
            "bandwidth_hz = 0\nq_levels = 8\nmethods = bound\nseed = 1\n"
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli_main(["run", "--config", str(cfgfile), "--out", str(out1), "--quiet"]) == 0
        assert cli_main(
            ["run", "--config", str(cfgfile), "--seed", "2", "--out", str(out2), "--quiet"]
        ) == 0
        assert out1.read_text() != out2.read_text()

    def test_env_seed_override(self, tmp_path):
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        r1 = self.run_cli(
            ["run", "--preset", "fig2", "--trials", "1", "--out", str(out1), "--quiet"],
            env={"CIRCLE_SEED": "77"},
        )
        r2 = self.run_cli(
            ["run", "--preset", "fig2", "--trials", "1", "--seed", "77", "--out", str(out2),
             "--quiet"],
        )
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_text() == out2.read_text()

    def test_non_integer_env_seed_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CIRCLE_SEED", "abc")
        out = tmp_path / "r.csv"
        assert cli_main(["run", "--preset", "fig2", "--trials", "1", "--out", str(out),
                         "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: CIRCLE_SEED must be an integer, got 'abc'"]
        assert captured.out == "" and not out.exists()

    def test_nonzero_exit_on_bad_input(self, tmp_path):
        rc = cli_main(["run", "--preset", "fig2", "--trials", "0", "--quiet"])
        assert rc != 0
        missing = tmp_path / "nope" / "x.csv"
        rc = cli_main(["run", "--preset", "fig2", "--trials", "1", "--out", str(missing),
                       "--quiet"])
        assert rc != 0

    def test_unwritable_out_fails_before_the_first_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(self, trial):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(_SweepContext, "run_trial", no_trials)
        out = tmp_path / "missing" / "out.csv"
        assert cli_main(["run", "--preset", "fig4d", "--trials", "20", "--out", str(out),
                         "--quiet"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write results to {str(out)!r}")
        assert captured.out == "" and not out.parent.exists()

    def test_stub_method_fails_cleanly(self, tmp_path):
        cfgfile = tmp_path / "stub.cfg"
        cfgfile.write_text("methods = wo-csit-feedback\n")
        rc = cli_main(["run", "--config", str(cfgfile), "--quiet"])
        assert rc != 0

    def test_wmmse_report_counts_solves_and_leaves_the_csv_alone(self, tmp_path, capsys):
        # fig5 at K = 30: most solves run out of outer iterations
        cfgfile = tmp_path / "fig5.cfg"
        cfgfile.write_text(
            "n_devices = 30\nn_subcarriers = 2\nn_trials = 2\nseed = 5\n"
            "methods = bound, wmmse, mrt\n"
        )
        out = tmp_path / "fig5.csv"
        assert cli_main(["run", "--config", str(cfgfile), "--out", str(out), "--quiet"]) == 0
        err = capsys.readouterr().err

        results = list(run_experiment(load_config_file(cfgfile)))
        iterations = [i for r in results if r.method == "wmmse" for i in r.iterations]
        converged = [c for r in results if r.method == "wmmse" for c in r.converged]
        assert len(iterations) == len(converged) == 2 * 2
        assert converged == [i < WMMSE_MAX_ITERS for i in iterations]
        assert all(r.iterations == () for r in results if r.method != "wmmse")
        stopped = converged.count(False)
        assert stopped > 0
        assert (
            f"wmmse: {stopped} of 4 solves stopped at the {WMMSE_MAX_ITERS}-iteration cap "
            "(baselines.WMMSE_MAX_ITERS) without converging"
        ) in err

        # the solver outcomes never reach the CSV
        bare = tmp_path / "bare.csv"
        write_csv([replace(r, iterations=(), converged=()) for r in results], bare)
        assert out.read_bytes() == bare.read_bytes()

    def test_no_wmmse_report_without_wmmse(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli_main(["run", "--preset", "fig2", "--trials", "1", "--out", str(out), "--quiet"]) == 0
        assert "wmmse" not in capsys.readouterr().err


# config-file values that used to reach validate() as None, an empty method
# list, and a key the file already set (n_devices, on line 1)
BAD_CONFIG_LINES = [
    "rho = none", "sigma2_db = none", "delta2_db = none",
    "methods = none", "methods =", "n_devices = 6",
]


class TestConfigFileValues:
    def write(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"n_devices = 4\nn_trials = 1\n{line}\n")
        return path, line.split("=")[0].strip()

    @pytest.mark.parametrize("line", BAD_CONFIG_LINES)
    def test_rejected_naming_file_line_and_key(self, tmp_path, line):
        path, key = self.write(tmp_path, line)
        with pytest.raises(ValueError) as err:
            load_config_file(path)
        assert str(err.value).startswith(f"{path}:3: {key}:")

    @pytest.mark.parametrize("line", BAD_CONFIG_LINES)
    def test_cli_exits_1_with_one_error_line(self, tmp_path, capsys, line):
        path, key = self.write(tmp_path, line)
        out = tmp_path / "out.csv"
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}:3: {key}:")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("line", [
        "snr_db = 4000", "delta2_db = 4000", "sigma2_db = -4000", "snr_db = none\np_t_db = -4000",
    ])
    def test_cli_exits_1_on_a_db_power_out_of_range(self, tmp_path, capsys, line):
        path, _ = self.write(tmp_path, line)
        key = line.split("\n")[-1].split("=")[0].strip()
        out = tmp_path / "out.csv"
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key}=")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("methods = bound, circle, circle", "method 'circle' is named more than once"),
        ("sweep_values = 2, 3", "sweep_values is set but sweep_param is not"),
        ("sweep_param = snr_db\nsweep_values = 10, 10", "sweep value snr_db=10 is listed more than once"),
    ])
    def test_cli_exits_1_on_a_config_validate_rejects(self, tmp_path, capsys, line, message):
        path, _ = self.write(tmp_path, line)
        out = tmp_path / "out.csv"
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == "" and not out.exists()

    def test_repeated_key_names_both_lines(self, tmp_path):
        path, _ = self.write(tmp_path, "n_trials = 3")
        with pytest.raises(ValueError) as err:
            load_config_file(path)
        assert str(err.value) == f"{path}:3: n_trials: already set on line 2"

    def test_unparsable_number_names_file_line_and_key(self, tmp_path):
        path, _ = self.write(tmp_path, "n_nlos = three")
        with pytest.raises(ValueError, match=r":3: n_nlos:"):
            load_config_file(path)

    def test_optional_fields_accept_none(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(
            "n_devices = 4\nn_trials = 1\nn_antennas = none\nsnr_db = none\np_t_db = 0\n"
            "sweep_param = none\nsweep_values = none\n"
        )
        cfg = load_config_file(path)
        assert cfg.n_antennas is cfg.snr_db is cfg.sweep_param is cfg.sweep_values is None
        cfg.validate()

    def test_empty_method_list_rejected_by_validate(self):
        with pytest.raises(ValueError, match="at least one method"):
            quick_config(methods=()).validate()
