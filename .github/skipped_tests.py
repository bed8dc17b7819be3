"""Fail when a pytest JUnit XML report records a skipped test.

Usage: python .github/skipped_tests.py REPORT [ALLOWED ...]

Each ALLOWED is a test that may skip, named ``<classname>::<name>`` as the
report writes it, such as
``tests.test_cli::test_module_and_script_invocations``.
"""

import sys
import xml.etree.ElementTree as ET


def main(argv: list[str]) -> int:
    report, allowed = argv[0], set(argv[1:])
    skipped = [
        f"{case.get('classname')}::{case.get('name')}"
        for case in ET.parse(report).iter("testcase")
        if case.find("skipped") is not None
    ]
    unexpected = [test for test in skipped if test not in allowed]
    for test in unexpected:
        print(f"skipped: {test}")
    print(f"{len(skipped)} skipped, {len(unexpected)} of them not allowed")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
