"""Host-speed reference: a fixed pure-Python loop timed while requests run.

On a shared host the speed of one virtual CPU can drift by a third within
seconds and by a fifth between runs minutes apart (measured on a 2-vCPU
Xeon VM).  gitgr is pure Python, so it slows by about the same factor as a
pure-Python loop run at the same moment on the same CPU.

A request child times one chunk of the loop when it starts and
one more after every PROBE_PERIOD_S of its CPU time, from a SIGPROF handler
between the program's bytecodes.  The parent takes the probe time off the
child's wall and CPU time and scales what is left by REFERENCE_CHUNK_S over
the measured time per chunk.  A timing metric then reads the time the
request would take on a CPU that runs one chunk in REFERENCE_CHUNK_S.
A set-up interpreter times its chunks with ``probe`` after its work.
"""

import signal
import time

CHUNK_ITERATIONS = 20_000
#: Nominal time of one chunk: about the median on the 2-vCPU Xeon host the
#: bounds in BENCHMARK.json were set on.
REFERENCE_CHUNK_S = 0.0016
#: CPU time of a request child between two probe chunks.
PROBE_PERIOD_S = 0.05


def _chunk() -> int:
    total = 0
    for j in range(CHUNK_ITERATIONS):
        total += j * j
    return total


def _timed_chunk() -> float:
    start = time.perf_counter()
    _chunk()
    return time.perf_counter() - start


class Sampler:
    """Probe chunks of one request child: total seconds and count."""

    def __init__(self):
        self.seconds = 0.0
        self.chunks = 0

    def sample(self, *_) -> None:
        self.seconds += _timed_chunk()
        self.chunks += 1

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> tuple | None:
        """(seconds, chunks) of the probes, or None if it never started."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        return (self.seconds, self.chunks) if self.chunks else None


def scaled(seconds: float, probe) -> float:
    """``seconds`` of a request child, less its probe time, at reference speed."""
    probe_s, chunks = probe
    return (seconds - probe_s) * REFERENCE_CHUNK_S * chunks / probe_s


def probe(seconds: float) -> tuple:
    """Time whole chunks in this process for ``seconds`` (one at least);
    return (seconds, chunks)."""
    spent, chunks = 0.0, 0
    while not chunks or spent < seconds:
        spent += _timed_chunk()
        chunks += 1
    return spent, chunks
