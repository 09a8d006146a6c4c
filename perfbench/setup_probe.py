"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <preset> <experiment seed>

Prints the seconds taken to import pencil_doa from this checkout's src/ and
run the preset's first sweep point for one trial at the given seed.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import pencil_doa  # noqa: E402
from dataclasses import replace  # noqa: E402

if not Path(pencil_doa.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"pencil_doa imported from {pencil_doa.__file__}, not {SRC}")
cfg = pencil_doa.preset(sys.argv[1])
pencil_doa.run_experiment(replace(cfg, trials=1, seed=int(sys.argv[2]),
                                  grid=cfg.grid[:1]))
print(time.perf_counter() - start)
