"""One cold-factor gen_fbm in a fresh process: its time and RSS growth.

    python3 bench/gen_probe.py N_POINTS SEED OUT_JSON   (with src on the path)
"""

import json
import resource
import sys
import time

from youngflow.drivers import FbmSpec, gen_fbm

spec = FbmSpec(hurst=0.75, n_points=int(sys.argv[1]), seed=int(sys.argv[2]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
gen_fbm(spec)
elapsed = time.perf_counter() - t0
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
with open(sys.argv[3], "w") as fh:
    json.dump({"s": elapsed, "rss_mb": grown / 1024.0}, fh)
