import os
import sys

import hypothesis

# ten times the default examples, with no deadline; CI runs the oracle and
# padding properties under it (HYPOTHESIS_PROFILE=deep)
hypothesis.settings.register_profile("deep", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "deep":
    hypothesis.settings.load_profile("deep")


def pytest_terminal_summary(terminalreporter):
    # replay the acceptance lines outside capture so they always show
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
