"""Time one cold set-up of a workload in a fresh interpreter.

    python3 setup_child.py <checkout root> <workload> <work directory>

The clock starts before ``import polyperc``, so the program's own imports
are counted, and stops once the objects the timed phase uses are built.
Prints one JSON line: the raw seconds and how many modules importing
polyperc and polyperc.cli added.  Only ``load`` (which imports ``os``)
and the modules below are loaded before the clock starts.
"""

import json
import os
import sys
import time

import load


def main(root, workload, workdir):
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as handle:
        files = json.load(handle)
    sys.path.insert(0, os.path.join(root, "src"))
    before = len(sys.modules)
    start = time.perf_counter()
    import polyperc
    import polyperc.cli  # noqa: F401 - the workloads call console_main

    loaded = len(sys.modules) - before
    load.load(workload, polyperc, workdir, files)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "modules": loaded}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
