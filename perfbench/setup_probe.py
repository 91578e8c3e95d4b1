"""Time the set-up a fresh interpreter pays: import isodeform, load a scene.

Usage: python3 setup_probe.py <source dir> <scene file>

numpy is imported first, on its own, as the probe's yardstick.  Prints
three numbers on stdout: the CPU seconds of the numpy import, the CPU
seconds of the whole set-up (numpy, isodeform, load_scene) and the wall
seconds of the whole set-up.
"""

import sys
import time

w0, c0 = time.perf_counter(), time.process_time()
import numpy  # noqa: E402, F401

c1 = time.process_time()
sys.path.insert(0, sys.argv[1])
import isodeform  # noqa: E402

isodeform.load_scene(sys.argv[2])
c2, w2 = time.process_time(), time.perf_counter()
print(repr(c1 - c0), repr(c2 - c0), repr(w2 - w0))
