"""The four workloads: fixed request lists, ordered and twisted by a seed.

Why these requests:

* ``analyze`` is the main user call.  Its 140 small requests (every triple
  with n <= 8) expose the per-call layers (cli, weyl, quotient, cohomology,
  JSON output) in the median latency; the four larger triples expose
  semistability and reps in the tail and in wall time.
* ``hilbert`` is almost all chain DP in reps; semistability does nothing.
* ``cells`` is almost all pair enumeration in semistability; reps does
  nothing.  Three requests only count, one lists every pair, one lists a
  prefix.
* ``normality`` is the only route into plucker; no CLI command reaches it.
  (5,2,2) at D=2 is left out: it exhausts 3 GB in the current engine.
"""

import random
from dataclasses import dataclass

from . import checks

WORKLOADS = ("analyze", "hilbert", "cells", "normality")

#: Library call run by the normality requests.
NORMALITY_CALL = "generation_in_degree_one"

ANALYZE_LARGE = ((10, 5, 5), (11, 4, 3), (11, 5, 3), (12, 5, 4))
ANALYZE_MAX_DEGREE = 6  # the CLI default
HILBERT_INPUTS = ((10, 5, 5, 12), (9, 3, 3, 24), (11, 4, 3, 22), (8, 4, 2, 32),
                  (10, 4, 5, 16))
#: (n, r, s, --limit), None listing every pair.
CELLS_INPUTS = ((12, 5, 4, 0), (13, 6, 4, 0), (14, 6, 5, 0), (11, 5, 3, None),
                (12, 6, 6, 1000))
NORMALITY_INPUTS = tuple(checks.NORMALITY_VERDICTS)


@dataclass(frozen=True)
class Request:
    """One call: CLI arguments, or the normality library call and its inputs."""
    argv: tuple
    n: int
    r: int
    s: int
    degree: int            # largest Plücker degree the request computes
    option: object = None  # bundles, degrees, limit or D, by command

    @property
    def command(self) -> str:
        return self.argv[0]


def _analyze(n, r, s, rng) -> Request:
    argv = ("analyze", str(n), str(r), str(s), "--json")
    bundles = ()
    if checks.is_induction_case(n, r, s) and r + s != n:
        bundles = tuple((rng.randint(-3, 3), rng.randint(-2, 3)) for _ in range(2))
        argv += ("--bundles", ";".join(f"({a},{b})" for a, b in bundles))
    degree = max(ANALYZE_MAX_DEGREE, checks.d_min(n, r, s))
    return Request(argv, n, r, s, degree, bundles)


def build(workload: str, seed: int) -> list:
    """The workload's request list; the same seed gives the same list."""
    rng = random.Random(f"{workload}-{seed}")
    if workload == "analyze":
        triples = [(n, r, s) for n in range(2, 9) for r in range(1, n)
                   for s in range(1, n)] + list(ANALYZE_LARGE)
        requests = [_analyze(n, r, s, rng) for n, r, s in triples]
    elif workload == "hilbert":
        requests = [Request(("hilbert", str(n), str(r), str(s), "--degrees", str(d)),
                            n, r, s, d, d)
                    for n, r, s, d in HILBERT_INPUTS]
    elif workload == "cells":
        requests = [Request(("cells", str(n), str(r), str(s))
                            + (() if limit is None else ("--limit", str(limit))),
                            n, r, s, 0, limit)
                    for n, r, s, limit in CELLS_INPUTS]
    elif workload == "normality":
        requests = [Request((NORMALITY_CALL, str(n), str(r), str(s), str(d)),
                            n, r, s, d * checks.d_min(n, r, s), d)
                    for n, r, s, d in NORMALITY_INPUTS]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(requests)
    return requests


def check(request: Request, out: bytes):
    """None when ``out`` is the correct output of ``request``, else a reason."""
    n, r, s, option = request.n, request.r, request.s, request.option
    try:
        if request.command == "analyze":
            return checks.check_analyze(n, r, s, option, ANALYZE_MAX_DEGREE, out)
        if request.command == "hilbert":
            return checks.check_hilbert(n, r, s, option, out)
        if request.command == "cells":
            return checks.check_cells(n, r, s, option, out)
        return checks.check_normality(n, r, s, option, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
