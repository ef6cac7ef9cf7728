"""The repository tools that CI gates on: ``tools/check_tier1.py`` and
``tools/output_digests.py --against``, fed small inputs."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_tier1 = _load("check_tier1")

_PASS = '<testcase classname="{cls}" name="{name}" time="0.001" />'
_FAIL = ('<testcase classname="{cls}" name="{name}" time="0.001">'
         '<failure message="assert 0">assert 0</failure></testcase>')
_COLLECTION_ERROR = ('<testcase classname="" name="tests.test_kernels" time="0.000">'
                     '<error message="collection failure">ImportError</error></testcase>')
_CRITERION_8 = {"cls": "tests.test_acceptance", "name": "test_criterion_8_config_f_ge2_minimal"}
_OTHER = {"cls": "tests.test_estimator.TestSample", "name": "test_needs_two_positive"}


def _run_check(tmp_path, monkeypatch, capsys, *cases):
    xml = tmp_path / "tier1.xml"
    xml.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                   '<testsuite name="pytest" time="21.347">'
                   + "".join(cases) + "</testsuite></testsuites>")
    monkeypatch.chdir(ROOT)  # node ids resolve against the module files
    code = check_tier1.main([str(xml)])
    return code, capsys.readouterr().out


def test_check_tier1_passes_when_only_criterion_8_fails(tmp_path, monkeypatch, capsys):
    code, out = _run_check(tmp_path, monkeypatch, capsys,
                           _FAIL.format(**_CRITERION_8), _PASS.format(**_OTHER))
    assert code == 0
    assert "2 test cases, 1 failed: as expected; wall time 21.3 s" in out


def test_check_tier1_fails_on_an_extra_failure(tmp_path, monkeypatch, capsys):
    code, out = _run_check(tmp_path, monkeypatch, capsys,
                           _FAIL.format(**_CRITERION_8), _FAIL.format(**_OTHER))
    assert code == 1
    assert ("unexpected failure: tests/test_estimator.py::TestSample::test_needs_two_positive"
            in out)
    assert "2 test cases, 2 failed: check FAILED; wall time 21.3 s" in out


def test_check_tier1_fails_on_a_collection_error(tmp_path, monkeypatch, capsys):
    code, out = _run_check(tmp_path, monkeypatch, capsys,
                           _FAIL.format(**_CRITERION_8), _COLLECTION_ERROR)
    assert code == 1
    assert "unexpected failure: tests.test_kernels" in out


def test_check_tier1_fails_when_criterion_8_passes(tmp_path, monkeypatch, capsys):
    code, out = _run_check(tmp_path, monkeypatch, capsys,
                           _PASS.format(**_CRITERION_8), _PASS.format(**_OTHER))
    assert code == 1
    assert ("expected to fail, but passed or did not run: "
            "tests/test_acceptance.py::test_criterion_8_config_f_ge2_minimal") in out


@pytest.fixture
def digests(monkeypatch):
    """``tools/output_digests.py`` on stand-in outputs, its edits of the environment undone.

    Returns the module and the outputs its ``_collect`` returns, which a test
    may change between runs.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    module = _load("output_digests")
    outputs = {("mc_cells", "ge"): [np.array([1.0, 2.0])],
               ("diagnose_exact", "ge2"): [np.array([0.5, 0.25])]}
    monkeypatch.setattr(module, "_collect", lambda workloads: outputs)
    return module, outputs


def test_output_digests_against_exits_1_on_any_difference(tmp_path, digests, capsys):
    tool, outputs = digests
    dump = tmp_path / "ref.npz"
    assert tool.main(["--dump", str(dump)]) == 0
    assert tool.main(["--against", str(dump)]) == 0
    assert capsys.readouterr().out.count("same bits") == 2

    outputs["mc_cells", "ge"] = [np.array([1.0, np.nextafter(2.0, 3.0)])]
    assert tool.main(["--against", str(dump)]) == 1
    assert "differs: max deviation" in capsys.readouterr().out

    del outputs["mc_cells", "ge"]
    outputs["estimate_large", "ig"] = [np.array([3.0])]
    assert tool.main(["--against", str(dump)]) == 1
    assert "(not in the dump)" in capsys.readouterr().out
