"""Host-speed probe: a fixed piece of work that does not touch mhexlab.

The machines this benchmark runs on are shared virtual machines whose CPU
speed drifts by up to about a quarter over minutes, and the drift moves
process CPU time as much as wall time. The probe measures that speed next to
every timed pass and set-up: ``probe()`` times a fixed mix of the three kinds
of work the workloads do (interpreted Python with small numpy calls, float64
matrix products, strided adds over a few MB). Times are reported both as
measured and scaled by ``PROBE_NOMINAL_S / probe time``, i.e. in seconds at
the speed the reference box had when the baseline was taken.

The probe runs in a separate interpreter (``Probe``) that does nothing else,
so its figure depends on the host and not on the heap or caches of the
process being measured. Its code and sizes are part of the benchmark's
definition: changing them changes every scaled figure.

    python3 perfbench/hostspeed.py     # prints this host's probe time
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Typical probe time on the reference box (see README, "Baseline"), so a
# scaled time reads like a wall time measured there.
PROBE_NOMINAL_S = 0.1

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((16, 32))
_W = _rng.standard_normal((64, 288))
_COLS = _rng.standard_normal((288, 256))
_IMG = _rng.standard_normal((4, 32, 34, 34))


def _python_and_small_numpy():
    a = _SMALL
    acc = 0.0
    for i in range(4000):
        b = np.maximum(a * 0.5 + 0.1, 0.0)
        acc += float(b.sum()) + (i & 7)
        a = b.T.reshape(16, 32)
    return acc


def _matmul():
    acc = 0.0
    for _ in range(120):
        acc += float((_W @ _COLS)[0, 0])
    return acc


def _strided_add():
    acc = 0.0
    for _ in range(10):
        out = np.zeros_like(_IMG)
        for i in range(3):
            for j in range(3):
                out[:, :, i:i + 32, j:j + 32] += _IMG[:, :, 1:33, 1:33]
        acc += float(out[0, 0, 0, 0])
    return acc


def probe(repeats=2):
    """Mean seconds of ``repeats`` runs of the fixed work mix (about 0.08 s
    each on the reference box). A mean, like a pass time, integrates the
    speed over the whole probe."""
    t0 = perf_counter()
    for _ in range(repeats):
        _python_and_small_numpy()
        _matmul()
        _strided_add()
    return (perf_counter() - t0) / repeats


def scaled(times, probes):
    """Each of ``times`` scaled to the reference speed by the mean of the
    probes just before and after it: ``probes[k]`` and ``probes[k + 1]``."""
    return [t * 2 * PROBE_NOMINAL_S / (a + b) for t, a, b in zip(times, probes, probes[1:])]


class Probe:
    """``with Probe() as p: p()`` runs probe() in a separate interpreter
    and returns its time. The interpreter ends when the block exits, or
    when its caller dies and its stdin closes."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed probe exited with code {self.proc.poll()}")
        return float(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _serve():
    probe()                     # warm-up: first-call costs stay out of every figure
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        _serve()
    else:
        ts = [probe() for _ in range(20)]
        print(f"probe median {statistics.median(ts):.5f} s, min {min(ts):.5f}, "
              f"max {max(ts):.5f}")
