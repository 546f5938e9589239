"""Run one request in a forked child and time it from fork to reap.

The parent has imported gitgr but called nothing in it, so every child
starts with the empty memo caches a fresh ``gitgr`` command would have.
The child caps its own address space and wall time, runs the CLI entry
point or the normality library call with stdout and stderr on pipes, and
exits.  Each child samples the host's speed as it runs (see ``speed``),
a traced one also records spans, and the child sends both on a third pipe.  The parent reads the pipes until they close, reaps the child with
``os.wait4`` and keeps the child's own CPU time and peak RSS.
"""

import json
import os
import resource
import selectors
import signal
import sys
import time
import traceback
from dataclasses import dataclass

from . import speed, tracing
from .workloads import NORMALITY_CALL

#: Address-space cap of a request child; the largest request peaks near 100 MB.
MEMORY_LIMIT_BYTES = 1 << 30
#: Wall-time cap of a request child; the slowest request takes about 3 s.
TIMEOUT_S = 60

_EXIT_MEMORY = 120
_EXIT_EXCEPTION = 121


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    out: bytes
    error: str | None            # None when the child exited 0
    probe: tuple | None = None   # (seconds, chunks) of speed probes
    trace: dict | None = None    # {"spans": [...], "counts": {...}} when traced


def _execute(gitgr, request) -> int:
    if request.command == NORMALITY_CALL:
        n, r, s, degree = map(int, request.argv[1:])
        call = getattr(gitgr.reps, NORMALITY_CALL)
        print(call(gitgr.GrassParams(n, r, s), degree))
        return 0
    return gitgr.cli.main(list(request.argv))


def _child(gitgr, request, pipes, traced: bool) -> None:
    """Body of the forked child; never returns."""
    code = _EXIT_EXCEPTION
    tracer = None
    sampler = speed.Sampler()
    try:
        for read_end, _ in pipes:
            os.close(read_end)
        os.dup2(pipes[0][1], 1)
        os.dup2(pipes[1][1], 2)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
        signal.alarm(TIMEOUT_S)
        sampler.start()
        if traced:
            tracer = tracing.Tracer()
            tracer.install(gitgr)
        code = _execute(gitgr, request)
        sys.stdout.flush()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except MemoryError:
        code = _EXIT_MEMORY
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
            report = {"trace": tracer and tracer.dump(),
                      "probe": sampler.stop()}
            os.write(pipes[2][1], json.dumps(report).encode())
        except BaseException:
            code = code or _EXIT_EXCEPTION
        os._exit(code)


def _drain(fds) -> dict:
    """Read every pipe until its writer closes it."""
    data = {fd: bytearray() for fd in fds}
    with selectors.DefaultSelector() as selector:
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    data[key.fd] += chunk
                else:
                    selector.unregister(key.fd)
    return data


def _failure(status: int, err: bytes) -> str | None:
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        return "timeout" if sig == signal.SIGALRM else f"killed by signal {sig}"
    code = os.WEXITSTATUS(status)
    if code == 0:
        return None
    if code == _EXIT_MEMORY:
        return "memory limit"
    last = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
    return f"exit code {code}: {last[0]}"


def run_request(gitgr, request, traced: bool) -> Outcome:
    """Fork a child for ``request``, wait for it and report what it cost."""
    pipes = [os.pipe() for _ in range(3)]
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(gitgr, request, pipes, traced)
    for _, write_end in pipes:
        os.close(write_end)
    reads = [read_end for read_end, _ in pipes]
    try:
        data = _drain(reads)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in reads:
            os.close(fd)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    out, err = bytes(data[reads[0]]), bytes(data[reads[1]])
    error = _failure(status, err)
    report = json.loads(data[reads[2]]) if data[reads[2]] else {}  # none if killed
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   out, error, report.get("probe"), report.get("trace"))
