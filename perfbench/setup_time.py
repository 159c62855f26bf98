"""Set-up time of a fresh process: import and the program's preparation.

Prints the seconds from before ``import mmaprobe`` until the grid is
enumerated and every shipped preset is loaded.  ``run.py`` starts this
script several times per run and reports the median.
"""

import time

t0 = time.perf_counter()
from mmaprobe import presets, selftest  # noqa: E402

grid = list(selftest.iter_grid())
configs = [presets.load_config(name) for name in presets.PRESET_NAMES]
print(time.perf_counter() - t0)
