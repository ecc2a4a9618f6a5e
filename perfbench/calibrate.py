"""Fixed calibration process: a yardstick for the machine's current speed.

The benchmark launches this script just before every timed nearwave
process and times it from launch to exit. It does not use nearwave, so no
change to the program changes its time. Its mix resembles one nearwave
process: interpreter start, ``import numpy``, complex exponentials and
FFTs on 4096-point grids, and a pure-Python loop.
"""

import numpy as np

x = np.linspace(0.0, 1.0, 4096)
total = 0.0
for i in range(1500):
    total += abs(np.fft.fft(np.exp(1j * i * x))[1])
count = 0
for i in range(1_000_000):
    count += i * i
