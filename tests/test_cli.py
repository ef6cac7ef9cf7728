import json
import math
import stat
import threading

import numpy as np
import pytest

from gekde.cli import _atomic_write, main


def write_csv(path, values, header=None):
    lines = ([header] if header else []) + [str(v) for v in values]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def narrow_sample_csv(tmp_path):
    # 119 observations, mean ~20 and sd ~1: every default kernel keeps its
    # mass inside the automatic grid
    rng = np.random.default_rng(2024)
    vals = rng.gamma(400.0, 0.05, size=119)
    path = tmp_path / "obs.csv"
    write_csv(path, vals, header="value")
    return path


class TestEstimate:
    def test_fixed_bandwidth_single_point(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        write_csv(data, [1.0, 1.0])
        out = tmp_path / "out"
        rc = main(["estimate", str(data), "--kernel", "ge", "--bandwidth", "1",
                   "--grid", "0:0:1", "--output", str(out)])
        assert rc == 0
        text = (out / "two_ge.csv").read_text().strip().split("\n")
        assert text[0] == "x,fhat"
        x, fhat = map(float, text[1].split(","))
        assert x == 0.0
        assert fhat == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_default_kernels_write_five_files(self, narrow_sample_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["estimate", str(narrow_sample_csv), "--output", str(out)])
        assert rc == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["obs_gam1.csv", "obs_gam2.csv", "obs_ge.csv",
                        "obs_ge2.csv", "obs_rig.csv"]
        for p in out.glob("*.csv"):
            arr = np.loadtxt(p, delimiter=",", skiprows=1)
            assert np.all(arr[:, 1] >= 0.0), p.name
            mass = np.trapezoid(arr[:, 1], arr[:, 0])
            assert mass == pytest.approx(1.0, abs=0.02), p.name

    def test_sidecar_metadata(self, narrow_sample_csv, tmp_path):
        out = tmp_path / "out"
        main(["estimate", str(narrow_sample_csv), "--kernel", "ge", "--output", str(out)])
        meta = json.loads((out / "obs_ge.json").read_text())
        assert meta["kernel"] == "ge"
        assert meta["bandwidth_method"] == "silverman"
        assert meta["n"] == 119
        assert meta["grid_size"] == 512

    def test_round_trip_precision(self, narrow_sample_csv, tmp_path):
        from gekde import Kernel, Sample, default_grid, estimate_density, silverman_bandwidth

        out = tmp_path / "out"
        main(["estimate", str(narrow_sample_csv), "--kernel", "ge2", "--output", str(out)])
        arr = np.loadtxt(out / "obs_ge2.csv", delimiter=",", skiprows=1)
        vals = np.loadtxt(narrow_sample_csv, skiprows=1)
        s = Sample(vals)
        est = estimate_density(s, Kernel.GE2, silverman_bandwidth(s, Kernel.GE2),
                               default_grid(s))
        np.testing.assert_allclose(arr[:, 0], est.grid, rtol=1e-12)
        np.testing.assert_allclose(arr[:, 1], est.values, rtol=1e-12)

    def test_byte_identical_reruns(self, narrow_sample_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["estimate", str(narrow_sample_csv), "--output", str(out)])
        for p in sorted(out1.iterdir()):
            assert p.read_bytes() == (out2 / p.name).read_bytes()

    def test_negative_entry_exit_2(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        write_csv(data, [1.0, -1.0, 2.0])
        rc = main(["estimate", str(data)])
        assert rc == 2
        assert "row 2" in capsys.readouterr().err

    def test_non_numeric_entry_exit_2(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("value\n1.0\noops\n2.0\n")
        rc = main(["estimate", str(data)])
        assert rc == 2
        assert "row 3" in capsys.readouterr().err

    def test_too_few_rows_exit_2(self, tmp_path):
        data = tmp_path / "one.csv"
        write_csv(data, [1.0])
        assert main(["estimate", str(data)]) == 2

    def test_rig_explicit_grid_violation_exit_3(self, tmp_path):
        data = tmp_path / "two.csv"
        write_csv(data, [5.0, 6.0])
        rc = main(["estimate", str(data), "--kernel", "rig", "--bandwidth", "2.0",
                   "--grid", "1:10:20"])
        assert rc == 3

    def test_rig_explicit_grid_at_zero_exit_2(self, tmp_path):
        data = tmp_path / "two.csv"
        write_csv(data, [5.0, 6.0])
        rc = main(["estimate", str(data), "--kernel", "rig", "--bandwidth", "2.0",
                   "--grid", "0:10:20", "--output", str(tmp_path / "out")])
        assert rc == 2

    def test_unknown_kernel_exit_2(self, tmp_path):
        data = tmp_path / "two.csv"
        write_csv(data, [1.0, 2.0])
        assert main(["estimate", str(data), "--kernel", "gauss"]) == 2

    def test_named_column(self, tmp_path):
        data = tmp_path / "wide.csv"
        data.write_text("a,b\n1.0,5.0\n2.0,6.0\n3.0,7.0\n")
        out = tmp_path / "out"
        rc = main(["estimate", str(data), "--column", "b", "--kernel", "ge",
                   "--output", str(out)])
        assert rc == 0
        meta = json.loads((out / "wide_ge.json").read_text())
        assert meta["n"] == 3

    def test_missing_column_exit_2(self, tmp_path):
        data = tmp_path / "wide.csv"
        data.write_text("a,b\n1.0,5.0\n2.0,6.0\n")
        assert main(["estimate", str(data), "--column", "zz"]) == 2

    @pytest.mark.parametrize("header, row", [("a,b\n", 2), ("", 1)], ids=["header", "no_header"])
    def test_wider_file_without_column_exit_2(self, tmp_path, capsys, header, row):
        data = tmp_path / "wide.csv"
        data.write_text(header + "1.0,5.0\n2.0,6.0\n3.0,7.5\n4.5,8.0\n")
        out = tmp_path / "out"
        assert main(["estimate", str(data), "--kernel", "ge", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"row {row}: more than one value; pass --column NAME to pick one" in err
        assert not out.exists()

    def test_trailing_empty_cell_is_one_value(self, tmp_path):
        data = tmp_path / "trail.csv"
        data.write_text("value,\n1.0,\n2.0,\n3.0,\n")
        out = tmp_path / "out"
        assert main(["estimate", str(data), "--kernel", "ge", "--output", str(out)]) == 0
        assert json.loads((out / "trail_ge.json").read_text())["n"] == 3

    def test_json_format(self, narrow_sample_csv, tmp_path):
        from gekde import Sample, default_grid, estimate_density, silverman_bandwidth

        out = tmp_path / "out"
        rc = main(["estimate", str(narrow_sample_csv), "--kernel", "ge",
                   "--format", "json", "--output", str(out)])
        assert rc == 0
        payload = json.loads((out / "obs_ge.json").read_text())
        assert len(payload["x"]) == len(payload["fhat"]) == 512
        # numbers, as the bandwidth is, with the estimate's bits
        assert all(type(v) is float for v in payload["x"] + payload["fhat"])
        sample = Sample(np.loadtxt(narrow_sample_csv, skiprows=1))
        est = estimate_density(sample, "ge", silverman_bandwidth(sample, "ge"),
                               default_grid(sample))
        assert payload["x"] == est.grid.tolist()
        assert payload["fhat"] == est.values.tolist()

    def test_plug_in_bandwidth_methods(self, narrow_sample_csv, tmp_path):
        for method in ("optimal-ge2", "numeric-ge"):
            out = tmp_path / method
            rc = main(["estimate", str(narrow_sample_csv), "--kernel", "ge2",
                       "--kernel", "gam1", "--bandwidth-method", method,
                       "--output", str(out)])
            assert rc == 0
            ge2 = json.loads((out / "obs_ge2.json").read_text())
            gam1 = json.loads((out / "obs_gam1.json").read_text())
            assert ge2["bandwidth_method"] == method.replace("-", "_")
            # gamma-family kernels take the squared bandwidth
            assert gam1["bandwidth"] == pytest.approx(ge2["bandwidth"] ** 2, rel=1e-12)

    @pytest.mark.parametrize("method", ["optimal-ge2", "numeric-ge"])
    def test_plug_in_sidecar_is_select_bandwidth(self, narrow_sample_csv, tmp_path, method):
        from gekde import Kernel, Sample, select_bandwidth

        out = tmp_path / "out"
        rc = main(["estimate", str(narrow_sample_csv), "--bandwidth-method", method,
                   "--output", str(out)] + [a for k in Kernel for a in ("--kernel", k.value)])
        assert rc == 0
        sample = Sample(np.loadtxt(narrow_sample_csv, skiprows=1))
        for kernel in Kernel:
            meta = json.loads((out / f"obs_{kernel.value}.json").read_text())
            want = select_bandwidth(sample, kernel, method.replace("-", "_"))
            assert (meta["bandwidth"], meta["bandwidth_method"]) == (want.value, want.method)

    def test_bandwidth_flags_mutually_exclusive(self, narrow_sample_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(narrow_sample_csv), "--bandwidth", "1",
                  "--bandwidth-method", "silverman"])
        assert exc.value.code == 2

    def test_rig_clips_automatic_grid(self, narrow_sample_csv, tmp_path):
        from gekde import Kernel, Sample, default_grid, estimate_density, silverman_bandwidth

        # at 100 times the fixture's scale the rig bandwidth, h**2, lies inside the grid
        data = tmp_path / "wide.csv"
        write_csv(data, np.loadtxt(narrow_sample_csv, skiprows=1) * 100.0)
        out = tmp_path / "out"
        names = [k.value for k in Kernel]
        rc = main(["estimate", str(data), "--output", str(out)]
                  + [arg for name in names for arg in ("--kernel", name)])
        assert rc == 0
        s = Sample(np.loadtxt(data))
        grid = default_grid(s)
        for name in names:
            meta = json.loads((out / f"wide_{name}.json").read_text())
            assert meta["grid_truncated"] is (name == "rig"), name
            assert (meta["grid_size"] < grid.size) is (name == "rig"), name
        b = silverman_bandwidth(s, Kernel.RIG).value
        kept = grid[grid > b]
        meta = json.loads((out / "wide_rig.json").read_text())
        assert meta["bandwidth"] == b
        assert meta["grid_min"] == kept[0] and meta["grid_size"] == kept.size
        arr = np.loadtxt(out / "wide_rig.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(arr[:, 0], kept)
        np.testing.assert_array_equal(arr[:, 1], estimate_density(s, Kernel.RIG, b, kept).values)

    def test_rig_bandwidth_above_automatic_grid_exit_3(self, narrow_sample_csv, tmp_path,
                                                        capsys):
        data = tmp_path / "huge.csv"
        write_csv(data, np.loadtxt(narrow_sample_csv, skiprows=1) * 1e40)
        rc = main(["estimate", str(data), "--kernel", "rig", "--output", str(tmp_path / "out")])
        assert rc == 3
        assert "leaves no valid grid point" in capsys.readouterr().err


class TestPlugInScale:
    """The plug-in rules run on a unit-scale reference: h scales exactly with the data."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["optimal-ge2", "numeric-ge"])
    @pytest.mark.parametrize("k", [-600, -260, 0, 260, 600])
    def test_power_of_two_scaling(self, narrow_sample_csv, tmp_path, capsys, method, k):
        values = np.loadtxt(narrow_sample_csv, skiprows=1)

        def run(scale, kernels=("ge", "gam1")):
            data = tmp_path / f"obs{scale}.csv"
            write_csv(data, np.ldexp(values, scale))
            out = tmp_path / f"out{scale}_{len(kernels)}"
            flags = [arg for kernel in kernels for arg in ("--kernel", kernel)]
            rc = main(["estimate", str(data), *flags, "--bandwidth-method", method,
                       "--output", str(out)])
            bws = {p.stem.split("_")[-1]: json.loads(p.read_text())["bandwidth"]
                   for p in out.glob("*.json")}
            return rc, bws

        rc, unit = run(0)
        assert rc == 0
        rc, got = run(k)
        if abs(k) < 500:
            assert rc == 0
            assert got["gam1"] == math.ldexp(unit["gam1"], 2 * k)
        else:  # h**2 leaves the double range: the run fails and writes no kernel's file
            assert rc == 2 and got == {}
            err = capsys.readouterr().err
            assert "h**2" in err and "rescale the data" in err
            rc, got = run(k, ("ge",))
            assert rc == 0
        assert got["ge"] == math.ldexp(unit["ge"], k)


class TestPlugInReferenceShape:
    """A gamma reference whose plug-in functional diverges is rejected, not integrated."""

    @staticmethod
    def _samples(tmp_path):
        """Samples of 2000 from Gamma(1.5), Gamma(2) and Gamma(2.4): fitted k 1.58, 2.09, 2.42."""
        rng = np.random.default_rng(5)
        paths = []
        for k in (1.5, 2.0, 2.4):
            path = tmp_path / f"gamma{k}.csv"
            write_csv(path, rng.gamma(k, 1.0, 2000))
            paths.append(path)
        return paths

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method, bound, accepted", [
        ("optimal-ge2", 2.5, []),
        ("numeric-ge", 2.0, [1, 2]),
    ])
    def test_divergent_functional(self, tmp_path, capsys, method, bound, accepted):
        for i, path in enumerate(self._samples(tmp_path)):
            out = tmp_path / f"out{i}{method}"
            rc = main(["estimate", str(path), "--kernel", "ge", "--bandwidth-method", method,
                       "--output", str(out)])
            err = capsys.readouterr().err
            if i in accepted:
                assert rc == 0, err
                meta = json.loads((out / f"{path.stem}_ge.json").read_text())
                assert meta["bandwidth_method"] == method.replace("-", "_")
                assert 0.0 < meta["bandwidth"] < math.inf
            else:
                assert rc == 2
                assert not out.exists() or not any(out.iterdir())
                fitted = ("1.581", "2.086", "2.424")[i]
                assert f"k <= {bound}" in err and f"k = {fitted}" in err, err


class TestSimulate:
    def test_single_replication_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--config", "A", "--n", "40", "--reps", "1",
                "--seed", "9", "--grid-size", "64"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert (out1 / "mise_A_n40.csv").read_bytes() == (out2 / "mise_A_n40.csv").read_bytes()
        lines = (out1 / "mise_A_n40.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 5  # header + one row per default kernel

    def test_table_printed(self, tmp_path, capsys):
        rc = main(["simulate", "--config", "B", "--n", "40", "--reps", "2",
                   "--seed", "1", "--grid-size", "64", "--kernel", "ge",
                   "--kernel", "gam1", "--output", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "config" in captured and "ge" in captured and "gam1" in captured

    def test_unknown_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", "Q", "--output", str(tmp_path)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        rc = main(["simulate", "--config", "A", "--n", "40", "--reps", "2",
                   "--grid-size", "64", "--threads", threads, "--output", str(tmp_path)])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_summary_json(self, tmp_path):
        rc = main(["simulate", "--config", "A", "--n", "40", "--reps", "3",
                   "--seed", "4", "--grid-size", "64", "--kernel", "ge",
                   "--output", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "mise_A_n40_summary.json").read_text())
        cell, = payload["cells"]
        assert cell["replications"] == 3 and cell["kernel"] == "ge"


class TestDiagnose:
    def test_ge2_interior_convergence(self, tmp_path, capsys):
        rc = main(["diagnose", "--kernel", "ge2", "--density", "gamma:3,1",
                   "--x", "2", "--bandwidth", "0.02", "--bandwidth", "0.01",
                   "--output", str(tmp_path)])
        assert rc == 0
        arr = np.loadtxt(tmp_path / "diagnose_ge2.csv", delimiter=",", skiprows=1)
        f2 = (4.0 - 8.0 + 2.0) * math.exp(-2.0) / 2.0
        target = math.pi ** 2 / 12.0 * f2
        for b, bias in zip(arr[:, 0], arr[:, 2]):
            assert bias / (b * b) == pytest.approx(target, rel=0.1)

    def test_boundary_mode(self, tmp_path):
        rc = main(["diagnose", "--kernel", "ge", "--density", "gamma:1,1",
                   "--boundary", "0", "--bandwidth", "0.01",
                   "--output", str(tmp_path)])
        assert rc == 0
        arr = np.loadtxt(tmp_path / "diagnose_ge.csv", delimiter=",", skiprows=1, ndmin=2)
        b, bias = arr[0, 0], arr[0, 2]
        assert bias / b == pytest.approx(-1.0, rel=0.05)  # f'(0) of the unit exponential

    def test_boundary_table_at_any_scale(self, tmp_path):
        # f(0), f'(0) and f''(0) are read at a fixed fraction of the median:
        # at scale 2**-40 the table is the unit-scale one, each column scaled
        tables = []
        for theta in (1.0, 2.0 ** -40):
            bandwidths = [a for b in (0.01, 0.02) for a in ("--bandwidth", repr(b * theta))]
            out = tmp_path / repr(theta)
            assert main(["diagnose", "--kernel", "ge", "--density", f"gamma:2,{theta!r}",
                         "--boundary", "1", *bandwidths, "--output", str(out)]) == 0
            tables.append(np.loadtxt(out / "diagnose_ge.csv", delimiter=",", skiprows=1))
        # b and x in data units, the rest in density units
        powers = np.array([-40, -40, 40, 40, 40, 40, 40])
        np.testing.assert_allclose(tables[1], np.ldexp(tables[0], powers), rtol=1e-9, atol=0.0)

    def test_interior_precondition_exit_2(self, tmp_path):
        rc = main(["diagnose", "--kernel", "ge", "--density", "gamma:3,1",
                   "--x", "0.1", "--bandwidth", "0.05", "--output", str(tmp_path)])
        assert rc == 2

    def test_ge2_boundary_rejected(self, tmp_path):
        rc = main(["diagnose", "--kernel", "ge2", "--density", "gamma:3,1",
                   "--boundary", "0", "--bandwidth", "0.01", "--output", str(tmp_path)])
        assert rc == 2

    def test_config_letter_density(self, tmp_path):
        rc = main(["diagnose", "--kernel", "ge", "--density", "A",
                   "--x", "12.5", "--bandwidth", "0.2", "--output", str(tmp_path)])
        assert rc == 0

    def test_bad_density_spec_exit_2(self, tmp_path):
        rc = main(["diagnose", "--kernel", "ge", "--density", "cauchy:1,2",
                   "--x", "2", "--bandwidth", "0.05", "--output", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flags, message", [
        (["--kernel", "gam1", "--x", "2", "--bandwidth", "0.05"],
         "diagnose supports the ge and ge2 kernels only"),
        (["--kernel", "ge", "--x", "2"], "diagnose needs at least one --bandwidth value"),
        (["--kernel", "ge", "--x", "2", "--bandwidth=-0.05"],
         "bandwidths must be positive and finite"),
        (["--kernel", "ge", "--x", "2", "--bandwidth", "inf"],
         "bandwidths must be positive and finite"),
        (["--kernel", "ge", "--bandwidth", "0.05"],
         "diagnose needs --x unless --boundary is given"),
    ], ids=["kernel", "no-bandwidth", "negative-bandwidth", "inf-bandwidth", "no-x"])
    def test_input_error_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        rc = main(["diagnose", "--density", "gamma:3,1", *flags, "--output", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_far_beyond_the_density(self, tmp_path):
        # x = 600 is 50 times Gamma(3, 1)'s 99.95% quantile: both quadrature
        # rules give a negligible mean, which the rule's tolerance accepts
        rc = main(["diagnose", "--kernel", "ge", "--density", "gamma:3,1",
                   "--x", "600", "--bandwidth", "30", "--output", str(tmp_path)])
        assert rc == 0


class TestAtomicWrite:
    def test_concurrent_writers_leave_one_full_payload(self, tmp_path):
        target = tmp_path / "out.csv"
        payloads = ["a" * 1_000_000 + "\n", "b" * 1_500_000 + "\n"]
        for _ in range(10):
            barrier = threading.Barrier(2)
            errors = []

            def write(text):
                barrier.wait(timeout=30)
                try:
                    _atomic_write(target, text)
                except Exception as exc:  # surfaced by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert target.read_text() in payloads
            assert list(tmp_path.glob("*.tmp")) == []

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x\n")
        target = tmp_path / "atomic.txt"
        _atomic_write(target, "x\n")
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_failed_write_removes_temporary(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(target, "\udcff")  # a lone surrogate cannot be encoded
        assert target.read_text() == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []


class TestExitPaths:
    """Exit codes and payloads that the end-to-end runs above never reach."""

    def test_numerical_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        import gekde.cli
        from gekde import IntegrationError

        def fail(*args, **kwargs):
            raise IntegrationError("quadrature error estimate exceeds tolerance", achieved=1e-3)

        monkeypatch.setattr(gekde.cli, "exact_estimator_moments", fail)
        rc = main(["diagnose", "--kernel", "ge", "--density", "gamma:3,1",
                   "--x", "2", "--bandwidth", "0.05", "--output", str(tmp_path)])
        assert rc == 4
        assert "quadrature error estimate exceeds tolerance" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_default_grid_of_subnormal_data_exit_2(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        write_csv(data, ["5e-324", "1e-323", "2e-323"])
        out = tmp_path / "out"
        for kernel in ("ge", "gam1"):
            rc = main(["estimate", str(data), "--kernel", kernel, "--bandwidth", "1e-300",
                       "--output", str(out)])
            assert rc == 2
            err = capsys.readouterr().err
            assert "no default grid of 512 increasing positive points for a sample from " \
                   "5e-324 to 2e-323; rescale the data" in err
        assert not out.exists()

    def test_failed_estimate_writes_nothing(self, tmp_path, capsys):
        # ge, ge2, gam1 and gam2 estimate; then the rig bandwidth, about 1e79,
        # leaves no point of the automatic grid: no kernel's file is written
        data = tmp_path / "huge.csv"
        write_csv(data, np.random.default_rng(7).gamma(3.0, 1.0, 50) * 1e40)
        out = tmp_path / "out"
        rc = main(["estimate", str(data), "--output", str(out)])
        assert rc == 3
        assert "rig bandwidth" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _run_module(*args):
        """``python -W error -m gekde args``, on this checkout's gekde."""
        import os
        import subprocess
        import sys

        import gekde

        src = os.path.dirname(os.path.dirname(gekde.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-W", "error", "-m", "gekde", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_module_help(self):
        proc = self._run_module("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: gekde")
        for command in ("estimate", "simulate", "diagnose"):
            assert command in proc.stdout

    def test_default_grid_near_the_largest_double(self, tmp_path):
        # 1.1 times the largest datum overflows: the automatic grid stops at
        # the largest double, and no warning or traceback escapes
        data = tmp_path / "huge.csv"
        write_csv(data, ["1e308", "1.7e308", "1.2e308"])
        out = tmp_path / "out"
        proc = self._run_module("estimate", str(data), "--kernel", "ge", "--kernel", "ge2",
                                "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        for kernel in ("ge", "ge2"):
            arr = np.loadtxt(out / f"huge_{kernel}.csv", delimiter=",", skiprows=1)
            assert np.all(np.isfinite(arr)) and arr[-1, 0] == np.finfo(float).max
        proc = self._run_module("estimate", str(data), "--kernel", "gam1", "--output", str(out))
        assert proc.returncode == 2
        assert "gam1 bandwidth: h**2 overflows" in proc.stderr
        assert "rescale the data" in proc.stderr and "Traceback" not in proc.stderr

    def test_diagnose_json_payload(self, tmp_path, capsys):
        args = ["diagnose", "--kernel", "ge2", "--density", "gamma:3,1", "--x", "2",
                "--bandwidth", "0.02", "--bandwidth", "0.01"]
        assert main(args + ["--output", str(tmp_path / "csv")]) == 0
        assert main(args + ["--output", str(tmp_path / "json"), "--format", "json"]) == 0
        payload = json.loads((tmp_path / "json" / "diagnose_ge2.json").read_text())
        assert sorted(payload) == ["kernel", "rows"] and payload["kernel"] == "ge2"
        cols = ["b", "x", "exact_bias", "theory_bias", "four_b_n_variance",
                "theory_four_b_n_variance", "f_x"]
        table = np.loadtxt(tmp_path / "csv" / "diagnose_ge2.csv", delimiter=",", skiprows=1)
        assert len(payload["rows"]) == 2
        for row, line in zip(payload["rows"], table):
            assert sorted(row) == sorted(cols)
            assert [row[c] for c in cols] == line.tolist()

    @pytest.mark.parametrize("case", ["missing", "empty", "blank", "short_row"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, case):
        data = tmp_path / "in.csv"
        extra = []
        if case == "empty":
            data.write_text("")
        elif case == "blank":
            data.write_text("\n , \n\n")
        elif case == "short_row":
            data.write_text("a,b\n1.0,5.0\n2.0\n3.0,7.0\n")
            extra = ["--column", "b"]
        rc = main(["estimate", str(data), "--kernel", "ge", "--output",
                   str(tmp_path / "out")] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        expect = {"missing": "does not exist", "empty": "is empty", "blank": "is empty",
                  "short_row": "row 3: missing column value"}[case]
        assert expect in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["1:2", "a:2:10", "1:2:x", "5:1:10", "2:2:10", "1:2:0"])
    def test_bad_grid_exit_2(self, tmp_path, capsys, grid):
        data = tmp_path / "two.csv"
        write_csv(data, [1.0, 2.0])
        rc = main(["estimate", str(data), "--kernel", "ge", "--bandwidth", "1",
                   "--grid", grid, "--output", str(tmp_path / "out")])
        assert rc == 2
        assert f"grid spec {grid!r}" in capsys.readouterr().err

    def test_two_bandwidths_exit_2(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        write_csv(data, [1.0, 2.0])
        rc = main(["estimate", str(data), "--kernel", "ge", "--bandwidth", "1",
                   "--bandwidth", "2", "--output", str(tmp_path / "out")])
        assert rc == 2
        assert "exactly one --bandwidth" in capsys.readouterr().err
