import json
import math

import numpy as np
import pytest

import emcool as em
import emcool.cli as cli
from emcool.device import parse_device_text

from test_estimation import calibration_trace, cooling_sweep_entries

TWO_PI = 2.0 * math.pi


def run(argv):
    return cli.main([str(a) for a in argv])


class TestSimulate:
    def test_noiseless_round_trip(self, device, device_model, tmp_path):
        code = run(
            ["simulate", "--noiseless", "--n-d", 4000, "--n-m-t", 40, "--n-c", 0,
             "--points", 2048, "--halfspan-hz", 60e3, "--out", tmp_path]
        )
        assert code == 0
        trace = em.read_trace(tmp_path / "trace.csv")
        fit = em.fit_full_model(trace, device_model)
        n_m = em.final_occupancy(
            em.ThermalState(fit.params["n_m_T"], max(fit.params["n_c"], 0.0)),
            fit.params["g"],
            device.cavity.kappa,
            device.mech.gamma_m,
        )
        assert n_m < 1.0
        assert n_m == pytest.approx(0.40, abs=0.05)

    def test_zero_drive_gives_flat_floor(self, tmp_path):
        code = run(["simulate", "--noiseless", "--n-d", 0, "--out", tmp_path])
        assert code == 0
        trace = em.read_trace(tmp_path / "trace.csv")
        assert np.ptp(trace.values) < 1e-9
        assert trace.values[0] == pytest.approx(2.6, rel=1e-9)

    def test_seeded_noise_reproducible(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for out in (a_dir, b_dir):
            assert run(["simulate", "--n-d", 600, "--seed", 9, "--points", 256, "--out", out]) == 0
        a = (a_dir / "trace.csv").read_text()
        b = (b_dir / "trace.csv").read_text()
        assert a == b

    def test_invalid_device_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("omega_m_hz=1e6\n")
        code = run(["simulate", "--device", bad, "--out", tmp_path])
        assert code == 2

    def test_invalid_device_lists_missing(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("omega_m_hz=1e6\n")
        run(["simulate", "--device", bad, "--out", tmp_path])
        err = capsys.readouterr().err
        assert "missing keys" in err
        assert "mass_kg" in err


class TestFit:
    def test_full_model_fit_json(self, tmp_path):
        assert run(["simulate", "--n-d", 4000, "--n-m-t", 40, "--n-avg", 20000,
                    "--points", 2048, "--halfspan-hz", 600e3, "--out", tmp_path]) == 0
        code = run(["fit", tmp_path / "trace.csv", "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["params"]["n_m_T"] == pytest.approx(40.0, rel=0.2)

    def test_readme_example_recovers_g(self, device, tmp_path):
        # the README flow at its defaults once returned g ~ 3.6e30 with zero sigmas
        assert run(["simulate", "--n-d", 4000, "--seed", 0, "--out", tmp_path]) == 0
        assert run(["fit", tmp_path / "trace.csv", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        g_true = em.coupling_rate(device.coupling, device.mech, 4000.0)
        assert 0.5 <= payload["params"]["g"] / g_true <= 2.0
        sigma_g = payload["sigmas"]["g"]
        assert math.isfinite(sigma_g) and sigma_g > 0.0

    def test_lorentzian_model_option(self, device, tmp_path):
        gamma_total = 0.0
        assert run(["simulate", "--n-d", 600, "--n-m-t", 40, "--n-avg", 20000,
                    "--points", 1024, "--halfspan-hz", 6e3, "--out", tmp_path]) == 0
        code = run(["fit", tmp_path / "trace.csv", "--model", "lorentzian", "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["params"]["center_hz"] == pytest.approx(device.mech.omega_m / TWO_PI, abs=50.0)

    def test_seed_only_on_simulate(self, tmp_path, capsys):
        # only simulate draws noise, so only simulate takes --seed
        for out in ("a", "b"):
            assert run(["simulate", "--n-d", 600, "--seed", 1, "--points", 256, "--out", tmp_path / out]) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
        with pytest.raises(SystemExit) as exc:
            run(["fit", tmp_path / "a" / "trace.csv", "--seed", 1, "--out", tmp_path])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_missing_trace_exits_2(self, tmp_path):
        assert run(["fit", tmp_path / "nope.csv", "--out", tmp_path]) == 2

    def test_empty_trace_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["fit", empty, "--out", tmp_path]) == 2

    def test_malformed_row_exits_2_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(BAD_NUMBER_TRACE)
        assert run(["fit", bad, "--out", tmp_path]) == 2
        assert f"{bad}:3: expected a 'freq,value' row" in capsys.readouterr().err

    def test_free_kappa_widens_uncertainty(self, tmp_path):
        assert run(["simulate", "--n-d", 4000, "--n-m-t", 40, "--n-avg", 20000,
                    "--points", 2048, "--halfspan-hz", 600e3, "--out", tmp_path]) == 0
        out_a = tmp_path / "default"
        out_b = tmp_path / "free_kappa"
        assert run(["fit", tmp_path / "trace.csv", "--out", out_a]) == 0
        assert run(
            ["fit", tmp_path / "trace.csv", "--out", out_b,
             "--free", "n_m_T", "n_c", "g", "n_add_eff", "kappa"]
        ) == 0
        sig_a = json.loads((out_a / "fit.json").read_text())["sigmas"]["n_m_T"]
        sig_b = json.loads((out_b / "fit.json").read_text())["sigmas"]["n_m_T"]
        assert sig_b > sig_a

    def test_two_freed_shapes_exit_2(self, tmp_path, capsys):
        assert run(["simulate", "--n-d", 4000, "--points", 256, "--out", tmp_path]) == 0
        capsys.readouterr()
        assert run(["fit", tmp_path / "trace.csv", "--out", tmp_path,
                    "--free", "n_m_T", "n_c", "g", "n_add_eff", "kappa", "gamma_m"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot free kappa and gamma_m together")
        assert "probe-tone" in err and "line width" in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("model", ["full", "lorentzian"])
    def test_flat_trace_exits_3(self, tmp_path, capsys, model):
        # no line on a window far narrower than kappa: the full model's n_m_T
        # and n_add_eff columns are degenerate, and the Lorentzian finds no peak
        assert run(["simulate", "--noiseless", "--n-d", 0, "--points", 256,
                    "--halfspan-hz", 1e4, "--out", tmp_path]) == 0
        capsys.readouterr()
        assert run(["fit", tmp_path / "trace.csv", "--model", model, "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()


class TestCalibrateAndSweep:
    def write_calibration_manifest(self, device, tmp_path, drop_one=False, n_temps=8, malformed=()):
        temps = [0.015 + 0.03 * i for i in range(n_temps)]
        entries = []
        for i, T in enumerate(temps):
            trace = calibration_trace(device, T, 3.0, seed=300 + i, n_avg=5000, points=512)
            name = f"cal_{i}.csv"
            em.write_trace(trace, tmp_path / name)
            entries.append({"label": f"T{i}", "T": T, "trace_path": name})
        if drop_one:
            entries.append({"label": "ghost", "T": 0.3, "trace_path": "missing.csv"})
        entries += write_malformed(tmp_path, malformed, "T", 0.3)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        return manifest

    def write_sweep_manifest(self, device, tmp_path, malformed=()):
        specs = [(60, 0.0), (600, 0.0), (6000, 0.02), (5e4, 0.28)]
        entries = cooling_sweep_entries(device, specs)
        manifest_entries = []
        for i, (n_d, trace) in enumerate(entries):
            name = f"sweep_{i}.csv"
            em.write_trace(trace, tmp_path / name)
            manifest_entries.append({"label": f"p{i}", "n_d": n_d, "trace_path": name})
        manifest_entries += write_malformed(tmp_path, malformed, "n_d", 3e3)
        manifest = tmp_path / "sweep.json"
        manifest.write_text(json.dumps(manifest_entries))
        return manifest

    def test_calibrate(self, device, tmp_path):
        manifest = self.write_calibration_manifest(device, tmp_path)
        assert run(["calibrate", manifest, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["G"] == pytest.approx(device.coupling.G, rel=0.04)
        assert payload["linearity_r2"] > 0.99

    def test_calibrate_skips_bad_path(self, device, tmp_path, capsys):
        manifest = self.write_calibration_manifest(device, tmp_path, drop_one=True)
        code = run(["calibrate", manifest, "--out", tmp_path])
        assert code == 0
        assert "skipping point" in capsys.readouterr().err

    def test_calibrate_without_peaks_exits_3(self, device, tmp_path, capsys):
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 1e3, center + 1e3, 256)
        entries = []
        for i in range(4):
            flat = em.SpectrumTrace(freq, np.full(256, 1e-20), em.SpectrumUnit.WATTS_PER_HZ, {})
            em.write_trace(flat, tmp_path / f"flat_{i}.csv")
            entries.append({"label": f"T{i}", "T": 0.015 + 0.03 * i, "trace_path": f"flat_{i}.csv"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        assert run(["calibrate", manifest, "--out", tmp_path]) == 3
        assert capsys.readouterr().err.startswith("error: no resolved peak")

    def test_sweep_takes_no_n_add_eff(self, tmp_path, capsys):
        # the sweep always fits n_add_eff; simulate, fit and report keep the flag
        with pytest.raises(SystemExit) as exc:
            run(["sweep", tmp_path / "manifest.json", "--n-add-eff", 3, "--out", tmp_path])
        assert exc.value.code == 2
        assert "--n-add-eff" in capsys.readouterr().err

    def test_sweep(self, device, tmp_path):
        manifest = self.write_sweep_manifest(device, tmp_path)
        code = run(["sweep", manifest, "--n-m-t", 39, "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "cooling_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "n_d,g_hz,gamma_total_hz,n_m,n_m_sigma,n_c,n_c_sigma,n_imp"
        n_ms = [float(line.split(",")[3]) for line in lines[1:]]
        # monotone decreasing until the cavity-population plateau
        assert n_ms[0] > n_ms[1] > n_ms[2]
        payload = json.loads((tmp_path / "cooling_curve.json").read_text())
        assert len(payload["points"]) == 4

    def test_sweep_reports_excluded_point(self, device, tmp_path, capsys):
        # a trace in detected power reads, but the full-model fit needs quanta
        watts = "# unit=watts_per_hz\nfreq_hz,value\n" + "".join(f"{1e6 + i},1e-20\n" for i in range(16))
        manifest = self.write_sweep_manifest(device, tmp_path, malformed=[("watts", watts)])
        assert run(["sweep", manifest, "--n-m-t", 39, "--out", tmp_path]) == 0
        assert "point n_d=3000 excluded: UnitError: " in capsys.readouterr().err
        payload = json.loads((tmp_path / "cooling_curve.json").read_text())
        assert len(payload["points"]) == 4
        [excluded] = payload["excluded"]
        assert excluded["n_d"] == 3e3 and excluded["reason"].startswith("UnitError: ")

    @pytest.mark.parametrize("command", ["calibrate", "sweep"])
    def test_manifest_not_an_array_exits_2(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"T": 0.02, "trace_path": "a.csv"}))
        assert run([command, manifest, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"error: {manifest}: manifest must be a JSON array\n"

    @pytest.mark.parametrize("command,key", [("calibrate", "T"), ("sweep", "n_d")])
    @pytest.mark.parametrize("entry,message", [
        (1, "[1]: entry must be a JSON object, got 1"),
        ({"trace_path": "a.csv"}, "[1]: entries need '{key}' and 'trace_path'"),
        ({"{key}": 0.02, "trace_path": 5}, "[1]: 'trace_path' must be a string, got 5"),
        ({"{key}": None, "trace_path": "a.csv"}, "[1]: '{key}' must be a number, got None"),
        ({"{key}": "hot", "trace_path": "a.csv"}, "[1]: '{key}' must be a number, got 'hot'"),
    ], ids=["not-object", "missing-key", "path-not-string", "value-null", "value-not-number"])
    def test_malformed_entry_exits_2_naming_it(self, tmp_path, capsys, command, key, entry, message):
        # the bad entry follows a good one; no trace is read before the manifest is checked
        if isinstance(entry, dict):
            entry = {name.format(key=key): value for name, value in entry.items()}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{key: 0.02, "trace_path": "a.csv"}, entry]))
        assert run([command, manifest, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"error: {manifest}{message.format(key=key)}\n"

    def test_calibrate_skips_malformed_trace(self, device, tmp_path, capsys):
        manifest = self.write_calibration_manifest(device, tmp_path, malformed=[("bad", BAD_NUMBER_TRACE)])
        assert run(["calibrate", manifest, "--out", tmp_path]) == 0
        err = capsys.readouterr().err
        assert "skipping point 'bad': " in err and "bad.csv:3: expected a 'freq,value' row" in err
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert len(payload["points"]) == 8
        assert payload["G"] == pytest.approx(device.coupling.G, rel=0.04)

    def test_calibrate_counts_only_readable_traces(self, device, tmp_path, capsys):
        malformed = [("bad", BAD_NUMBER_TRACE), ("no_unit", "freq_hz,value\n1,2\n")]
        manifest = self.write_calibration_manifest(device, tmp_path, n_temps=3, malformed=malformed)
        assert run(["calibrate", manifest, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "skipping point 'bad'" in err and "skipping point 'no_unit'" in err
        assert "need at least 4 temperatures, got 3" in err

    def test_sweep_skips_malformed_trace(self, device, tmp_path, capsys):
        manifest = self.write_sweep_manifest(device, tmp_path, malformed=[("bad", BAD_NUMBER_TRACE)])
        assert run(["sweep", manifest, "--n-m-t", 39, "--out", tmp_path]) == 0
        err = capsys.readouterr().err
        assert "skipping point 'bad': " in err and "bad.csv:3: expected a 'freq,value' row" in err
        payload = json.loads((tmp_path / "cooling_curve.json").read_text())
        assert len(payload["points"]) == 4


# one unreadable number on line 3
BAD_NUMBER_TRACE = "# unit=quanta\nfreq_hz,value\n1,abc\n" + "".join(f"{i},1\n" for i in range(2, 10))


def write_malformed(tmp_path, malformed, key, value):
    """Write each (label, text) pair to <label>.csv; return its manifest entries."""
    entries = []
    for label, text in malformed:
        (tmp_path / f"{label}.csv").write_text(text)
        entries.append({"label": label, key: value, "trace_path": f"{label}.csv"})
    return entries


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    assert run(["report", "--out", out]) == 0
    return out


class TestReport:
    def test_drive_table(self, report_dir):
        lines = (report_dir / "drive_sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["n_d", "g_hz", "gamma_opt_hz", "gamma_total_hz",
                          "s_x_imp_m2_per_hz", "n_imp", "n_m"]
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        n_ds = [r[0] for r in rows]
        assert n_ds == sorted(n_ds)
        assert all(b > a for a, b in zip(n_ds, n_ds[1:]))
        by_nd = {r[0]: r for r in rows}
        # displacement imprecision at n_d=1e5 close to the best quoted value
        assert by_nd[1e5][4] == pytest.approx(5.5e-34, rel=0.15)
        # imprecision quanta approach the chain asymptote
        assert rows[-1][5] == pytest.approx(1.95, abs=0.1)

    def test_occupancy_table(self, report_dir):
        lines = (report_dir / "occupancy_vs_temperature.csv").read_text().strip().splitlines()
        assert lines[0] == "temperature_k,n_m"
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == pytest.approx(0.015)
        assert first[1] == pytest.approx(29.1, rel=0.01)

    def test_limit_report(self, report_dir):
        payload = json.loads((report_dir / "limit_report.json").read_text())
        assert payload["product_over_hbar"] == pytest.approx(
            4 * math.sqrt(payload["n_imp"] * payload["n_ba"])
        )
        assert payload["product_over_hbar"] < 6.0
        assert payload["storage_time_s"] > 100e-6
        assert "upper bound" in payload["note"]

    def test_rerun_overwrites_identically(self, report_dir, tmp_path):
        assert run(["report", "--out", tmp_path]) == 0
        assert (tmp_path / "drive_sweep.csv").read_text() == (
            report_dir / "drive_sweep.csv"
        ).read_text()


class TestTopLevel:
    def test_print_paper_defaults_round_trips(self, device, capsys):
        assert run(["--print-paper-defaults"]) == 0
        text = capsys.readouterr().out
        assert parse_device_text(text) == device
        assert "#" in text  # provenance comments present

    def test_no_command_shows_help(self, capsys):
        assert run([]) == 2
        assert "simulate" in capsys.readouterr().out

    def test_parser_built_once_and_reused_unchanged(self):
        # main parses every call with one parser per process; a parse leaves
        # nothing in it for the next one
        parser = cli.build_parser()
        first = parser.parse_args(["simulate", "--n-d", "600", "--seed", "3"])
        again = cli.build_parser().parse_args(["simulate"])
        assert cli.build_parser() is parser
        assert (first.n_d, first.seed, again.n_d, again.seed) == (600.0, 3, 4000.0, 0)
