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

    def test_json_format(self, narrow_sample_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["estimate", str(narrow_sample_csv), "--kernel", "ge",
                   "--format", "json", "--output", str(out)])
        assert rc == 0
        payload = json.loads((out / "obs_ge.json").read_text())
        assert len(payload["x"]) == len(payload["fhat"]) == 512

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

    def test_bandwidth_flags_mutually_exclusive(self, narrow_sample_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(narrow_sample_csv), "--bandwidth", "1",
                  "--bandwidth-method", "silverman"])
        assert exc.value.code == 2


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
