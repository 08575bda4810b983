"""Host-speed reference, so host times taken at different moments compare.

On a shared VM the host's speed drifts by tens of percent over minutes: in
one set of ten ``lstm_chain`` runs the engine's passes took 1.5 s in some
runs and 2.5 s in others.  So the benchmark times a fixed,
engine-independent kernel next to each simulated pass and each set-up, and
also gives those host times in reference seconds, the time they would take
on a host where the kernel takes ``REFERENCE_S``::

    reference seconds = host seconds * REFERENCE_S / kernel seconds

The kernel does the kind of work the engine's host time is made of: it
allocates linked objects that each own a dict, reads them back in
scattered order, and runs a full collection.  Alternated with engine
passes it followed the host's drift better than a pure arithmetic loop or
an allocation loop on a small working set; over ten seeds per workload,
rescaling each pass by the samples on either side of it cut the spread of
``host_req_per_s`` from 0.185 to 0.061 (``lstm_chain``), 0.179 to 0.044
(``treelstm``) and 0.139 to 0.072 (``seq2seq_fleet``).  The kernel runs in
a fresh process (``python3 perfbench/calibrate.py`` prints its times), so
it neither walks nor grows the heap of the process being measured.  A
faster engine lowers host seconds and leaves the kernel as it was, so a
speed-up shows in full; the raw host times are printed next to the
rescaled ones.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time

# The kernel's median time in a fresh process on the 2-core x86-64 VM the
# baseline was recorded on (Python 3.11).
REFERENCE_S = 0.12

# Kernel runs per fresh process; the sample is their median.
REPEAT = 3
SAMPLE_TIMEOUT_S = 60.0

_NODES = 60_000
# Coprime with _NODES, so ``i * _STRIDE % _NODES`` visits every node once.
_STRIDE = 7_919


class _Node:
    def __init__(self, key, prev, attrs):
        self.key = key
        self.prev = prev
        self.attrs = attrs


def run_kernel() -> float:
    """Process CPU time of one run of the host-speed kernel, here."""
    gc.collect()
    start = time.process_time()
    nodes = []
    prev = None
    for i in range(_NODES):
        prev = _Node(i, prev, {"i": i})
        nodes.append(prev)
    total = 0
    for i in range(_NODES):
        node = nodes[i * _STRIDE % _NODES]
        total += node.key + len(node.attrs)
    gc.collect()
    nodes = prev = node = None
    return time.process_time() - start


def kernel_seconds() -> float:
    """The kernel's median time over ``REPEAT`` runs in a fresh process."""
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         check=True, timeout=SAMPLE_TIMEOUT_S).stdout
    return statistics.median(json.loads(out)["kernel_s"])


def to_reference(host_s: float, kernel_s: float) -> float:
    """``host_s`` measured next to a kernel sample of ``kernel_s``, in
    reference seconds."""
    return host_s * REFERENCE_S / kernel_s


if __name__ == "__main__":
    print(json.dumps({"kernel_s": [run_kernel() for _ in range(REPEAT)]}))
