"""One set-up sample of the benchmark, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/probe.py '{"workload": "library", "n3s": [32, 1024, 2048], "seed": null, "workdir": "..."}'

Times ``import ctprod`` plus ``build_context`` for each n3.  With a seed it
then makes the workload's inputs and runs one cycle unchecked, so the peak
resident memory it reports is the program's, with none of the benchmark's
reference arrays in the process.  Prints one JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(spec: dict) -> None:
    t = time.perf_counter()
    import ctprod

    ctxs = {n: ctprod.build_context(n) for n in spec["n3s"]}
    secs = time.perf_counter() - t
    rss = None
    if spec["seed"] is not None:
        import workloads

        for op in workloads.BUILDERS[spec["workload"]](spec["seed"], ctxs, Path(spec["workdir"])).cycle:
            try:
                op.run()
            except Exception:  # failures are counted by the checked run
                pass
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": secs, "source": ctprod.__file__, "peak_rss_mb": rss}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
