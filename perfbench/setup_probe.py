"""Child process that times the fixed cost before a run's first transition.

    PYTHONPATH=src python3 perfbench/setup_probe.py BUILDS_JSON

Imports ``extreme_chains.cli`` (the CLI's whole import graph), then builds the
workload's kernels, norming schemes and limit laws through ``make_kernel``,
``make_norming`` and ``limit_law``.  Prints ``{"import_s": .., "build_s": ..}``.
"""

import json
import sys
import time


def main(argv):
    builds = json.loads(argv[0])
    start = time.perf_counter()
    from extreme_chains import cli, kernels, norming  # noqa: F401
    imported = time.perf_counter()
    for make, specs in ((kernels.make_kernel, builds["kernels"]),
                        (norming.make_norming, builds["schemes"]),
                        (norming.limit_law, builds["laws"])):
        for spec in specs:
            params = dict(spec)
            make(params.pop("id"), **params)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
