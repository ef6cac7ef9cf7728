"""Check that a Tier-1 run failed exactly where it is meant to.

Run from the repository root, on the JUnit XML file of a Tier-1 run::

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python3 tools/check_tier1.py tier1.xml

Exits 0 when the failed and errored tests are exactly ``EXPECTED_FAILURES``,
and 1 otherwise, naming each test that failed unexpectedly and each expected
failure that passed or did not run.  A collection error counts as an errored
test, so a module that no longer imports fails the check.  The summary line
also gives the run's wall time, the ``time`` of its JUnit test suites.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET
from pathlib import Path

#: Criterion 8 pins an externally reported ordering that honest ISE does not
#: reproduce; it stays failing and visible (see ROADMAP.md, "State").
EXPECTED_FAILURES = frozenset({
    "tests/test_acceptance.py::test_criterion_8_config_f_ge2_minimal",
})


def _node_id(case: ET.Element, root: Path) -> str:
    """pytest's node id of a JUnit test case: the module file, then class and test."""
    parts = [p for p in case.get("classname", "").split(".") if p]
    name = case.get("name", "")
    for i in range(len(parts), 0, -1):
        path = "/".join(parts[:i]) + ".py"
        if (root / path).is_file():
            return "::".join([path, *parts[i:], name])
    return "::".join([*parts, name])  # a collection error names its module here


def failed_tests(suites: ET.Element, root: Path) -> tuple[set, int]:
    """The node ids of the failed and errored test cases, and the number of cases."""
    cases = list(suites.iter("testcase"))
    failed = {_node_id(c, root) for c in cases
              if c.find("failure") is not None or c.find("error") is not None}
    return failed, len(cases)


def wall_time(suites: ET.Element) -> float:
    """The run's wall time in seconds: the sum of its test suites' ``time`` attributes."""
    return sum(float(s.get("time", "nan")) for s in suites.iter("testsuite"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: check_tier1.py JUNIT_XML", file=sys.stderr)
        return 2
    suites = ET.parse(Path(args[0])).getroot()
    failed, total = failed_tests(suites, Path.cwd())
    unexpected = sorted(failed - EXPECTED_FAILURES)
    missing = sorted(EXPECTED_FAILURES - failed)
    for node in unexpected:
        print(f"unexpected failure: {node}")
    for node in missing:
        print(f"expected to fail, but passed or did not run: {node}")
    ok = not unexpected and not missing
    print(f"{total} test cases, {len(failed)} failed: "
          + ("as expected" if ok else "check FAILED") + f"; wall time {wall_time(suites):.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
