"""Tests of the benchmark's own code: request lists, validators and tracing."""

import contextlib
import io
import json
import math
import random
import sys
import time
import types

import pytest

import gitgr.cli
from perfbench import checks, harness, speed, tracing, workloads
from perfbench.workloads import Request


def _cli_output(request) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert gitgr.cli.main(list(request.argv)) == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    first = workloads.build(workload, 7)
    assert first == workloads.build(workload, 7)
    other = workloads.build(workload, 8)
    assert sorted(r.argv[:4] for r in first) == sorted(r.argv[:4] for r in other)


def test_analyze_list_and_twists():
    requests = workloads.build("analyze", 3)
    assert len(requests) == 144
    twisted = [r for r in requests if "--bundles" in r.argv]
    assert twisted and all(checks.is_induction_case(r.n, r.r, r.s) and r.r + r.s != r.n
                           for r in twisted)
    assert requests != workloads.build("analyze", 4)


def test_levi_hilbert_matches_known_values():
    assert checks.levi_hilbert(3, 2, 2, 3) == 3
    assert checks.levi_hilbert(4, 2, 2, 2) == 10
    assert checks.levi_hilbert(4, 2, 2, 1) == 4
    assert checks.levi_hilbert(5, 2, 2, 3) == 0


def test_class_counts_cover_every_subset():
    for n, r, s in [(5, 2, 2), (8, 3, 5), (12, 5, 4)]:
        assert sum(checks.class_counts(n, r, s).values()) == math.comb(n, r)


def test_pinned_pair_counts_agree_with_brute_count():
    for key in [(10, 5, 5), (11, 4, 3)]:
        assert checks.PINNED_PAIR_COUNTS[key] == checks.brute_pair_count(*key)


def _corrupt_json(out: bytes, edit) -> bytes:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc).encode()


def test_analyze_validator_rejects_corruption():
    request = workloads._analyze(5, 2, 2, random.Random(1))
    out = _cli_output(request)
    assert workloads.check(request, out) is None
    edits = [
        lambda d: d["semistability"]["class_counts"].update(zero=1),
        lambda d: d["semistability"].update(num_pairs=d["semistability"]["num_pairs"] + 1),
        lambda d: d["hilbert"].update({"5": d["hilbert"]["5"] + 1}),
        lambda d: d["hilbert"].pop("6"),
        lambda d: d["diagnostics"][0].update(ok=False),
        lambda d: d["cohomology"].pop(),
        lambda d: d["cohomology"][0].update(euler=d["cohomology"][0]["euler"] + 1),
        lambda d: d["quotient"].update(induction_case=False),
        lambda d: d.pop("decomposition"),
    ]
    for edit in edits:
        assert workloads.check(request, _corrupt_json(out, edit)) is not None
    assert workloads.check(request, out[:-10]) is not None


def test_hilbert_validator_rejects_corruption():
    request = Request(("hilbert", "4", "2", "2", "--degrees", "6"), 4, 2, 2, 6, 6)
    out = _cli_output(request)
    assert workloads.check(request, out) is None
    lines = out.decode().splitlines()
    assert workloads.check(request, "\n".join(lines[:-1]).encode()) is not None
    lines[3] = lines[3] + "1"
    assert workloads.check(request, "\n".join(lines).encode()) is not None


@pytest.mark.parametrize("limit", [None, 3])
def test_cells_validator_rejects_corruption(limit):
    argv = ("cells", "5", "2", "2") + (() if limit is None else ("--limit", str(limit)))
    request = Request(argv, 5, 2, 2, 0, limit)
    out = _cli_output(request)
    assert workloads.check(request, out) is None
    lines = out.decode().splitlines()
    v, phi = lines[0].split(" <= ")
    corrupted = [
        [f"{phi} <= {v}"] + lines[1:],          # v not below phi
        [lines[0]] + lines,                      # repeated pair
        lines[1:],                               # a pair missing
        lines[:-1] + [lines[-1].replace("pairs", "pair")],
        ["{1,2} <= {1,2}"] + lines[1:],          # phi of positive weight
    ]
    for bad in corrupted:
        assert workloads.check(request, "\n".join(bad).encode()) is not None


def test_normality_validator_rejects_wrong_verdict():
    request = workloads.build("normality", 1)[0]
    assert workloads.check(request, b"True\n") is None
    assert workloads.check(request, b"False\n") is not None
    assert workloads.check(request, b"") is not None


@pytest.mark.parametrize("argv", [
    ("analyze", "7", "3", "2", "--json", "--bundles", "(1,1);(-2,0)"),
    (workloads.NORMALITY_CALL, "4", "2", "2", "3"),
])
def test_layer_self_times_add_up_to_root_span(argv):
    n, r, s = map(int, argv[1:4])
    outcome = harness.run_request(gitgr, Request(argv, n, r, s, 0), traced=True)
    assert outcome.error is None
    spans = outcome.trace["spans"]
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    assert len(roots) == 1
    root = spans[roots[0]]
    assert root[0] == ("cli.main" if argv[0] == "analyze" else "reps." + argv[0])
    totals = tracing.summarize(spans, outcome.trace["counts"])
    layer_self = sum(totals[layer + ".self_ns"] for layer in tracing.LAYERS)
    assert layer_self == root[2] - root[1]
    assert all(end >= start for _, start, end, _, _ in spans)


def test_failed_child_is_reported_not_raised():
    request = Request(("analyze", "3", "5", "1"), 3, 5, 1, 0)
    outcome = harness.run_request(gitgr, request, traced=False)
    assert outcome.error is not None and outcome.error.startswith("exit code 2")


def _fake_package(monkeypatch, **layers):
    """A stand-in gitgr package whose layer modules hold the given functions."""
    package = types.ModuleType("fakegitgr")
    monkeypatch.setitem(sys.modules, "fakegitgr", package)
    for layer, functions in layers.items():
        module = types.ModuleType(f"fakegitgr.{layer}")
        for fn in functions:
            fn.__module__ = module.__name__
            setattr(module, fn.__name__, fn)
        setattr(package, layer, module)
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return package


def test_tracer_skips_missing_targets_and_counts_zero(monkeypatch):
    def evaluate_word(word):
        return tuple(word)
    package = _fake_package(monkeypatch, weyl=[evaluate_word])
    tracer = tracing.Tracer()
    assert tracer.install(package) == 1
    assert package.weyl.evaluate_word((1, 2)) == (1, 2)
    totals = tracing.summarize(tracer.spans, tracer.counts)
    assert totals["weyl.calls"] == 1
    assert totals["semistability.pairs"] == 0 and totals["plucker.calls"] == 0


def test_tracer_counts_pairs_a_generator_yields(monkeypatch):
    def enumerate_A(params, w=None):
        yield from ((1,), (2,), (3,))
    package = _fake_package(monkeypatch, semistability=[enumerate_A])
    tracer = tracing.Tracer()
    assert tracer.install(package) == 1
    pairs = package.semistability.enumerate_A(None)
    assert next(pairs) == (1,) and next(pairs) == (2,)
    totals = tracing.summarize(tracer.spans, tracer.counts)
    assert totals["semistability.calls"] == 1 and totals["semistability.pairs"] == 2
    assert list(pairs) == [(3,)]
    assert tracing.summarize(tracer.spans, tracer.counts)["semistability.pairs"] == 3


def test_timeout_and_memory_cap_fail_the_request(monkeypatch):
    request = Request(("analyze", "3", "2", "2"), 3, 2, 2, 0)
    monkeypatch.setattr(harness, "TIMEOUT_S", 1)
    monkeypatch.setattr(harness, "_execute", lambda gitgr, request: time.sleep(30))
    assert harness.run_request(gitgr, request, traced=False).error == "timeout"

    def allocate(gitgr, request):
        bytearray(2 * harness.MEMORY_LIMIT_BYTES)
        return 0
    monkeypatch.setattr(harness, "_execute", allocate)
    assert harness.run_request(gitgr, request, traced=False).error == "memory limit"


def test_untraced_child_samples_speed_and_scaled_time_drops_probes():
    request = Request((workloads.NORMALITY_CALL, "4", "2", "2", "5"), 4, 2, 2, 0)
    outcome = harness.run_request(gitgr, request, traced=False)
    assert outcome.error is None and outcome.trace is None
    probe_s, chunks = outcome.probe
    assert chunks >= 1 + int(outcome.cpu_s / speed.PROBE_PERIOD_S) // 2
    assert 0 < probe_s < outcome.wall_s
    ref = speed.REFERENCE_CHUNK_S
    assert speed.scaled(1 + 4 * ref, (4 * ref, 2)) == pytest.approx(0.5)
    seconds, chunks = speed.probe(0)
    assert chunks == 1 and seconds > 0
