"""Command line front end: analyze, hilbert and cells subcommands.

``analyze`` prints the structural report for one (n, r, s), as text or as
versioned JSON; ``hilbert`` prints the invariant Hilbert function as CSV;
``cells`` lists the Richardson pairs of the semistable locus.  Exit codes:
0 success, 1 a self-check failed or an internal invariant broke, 2 bad
arguments, 3 enumeration budget exceeded, 141 (128 + SIGPIPE) the reader
closed standard output early.

The arguments are read by ``_parse`` from the literal table ``_COMMANDS``;
nothing is built at import, and an option is matched by its whole name.
"""

import json
import math
import os
import sys
from types import SimpleNamespace

from . import cohomology, quotient, reps, semistability, weyl
from .errors import (EnumerationCapError, InvariantViolationError,
                     UnsupportedCaseError, check_budget)
from .params import GrassParams

SCHEMA_VERSION = "1"
_JSON_INT_LIMIT = 2**53
#: Lines ``cells`` gathers before a write; a write ends with a whole v's group.
_CELLS_BLOCK = 4096


def _jsonable(value):
    """Ints beyond 2^53 become decimal strings so any JSON reader loads them."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _JSON_INT_LIMIT else value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _diagnostics(params: GrassParams, doc: dict) -> list:
    """Check the printed values of ``doc`` against independent re-derivations."""
    checks = []

    def add(name, ok):
        checks.append({"name": name, "ok": bool(ok)})

    n, r = params.n, params.r
    ss, q = doc["semistability"], doc["quotient"]
    word = ss["w_sr"]["word"]
    w_sr = weyl.evaluate_word(word, n)  # one evaluation serves every w_sr check
    add("w_sr word is reduced", weyl.inversion_count(w_sr) == len(word))
    add("w_sr subset matches closed form",
        weyl.coset_subset(w_sr, r) == tuple(ss["w_sr"]["subset"]))
    # w~ and w0 are evaluated once, against the printed w_sr; a w~ that is
    # not reduced, whose length and w_sr's do not add up to w0's, or whose
    # product with w_sr is not w0 raises InvariantViolationError, as in
    # factor_w_tilde, so the check is recorded once it holds
    _, w_tilde = weyl._checked_w_tilde(params, word, w_sr)
    add("factorization w0 = w~ * w_sr", True)
    add("pair count is duality invariant",
        ss["num_pairs"] == semistability.count_pairs(params.dual()))
    add("fixed-point classes sum to C(n, r)",
        sum(ss["class_counts"].values()) == math.comb(n, r))
    add("induction test matches reflection test",
        q["induction_case"] == (not weyl._moves_prefix(w_tilde, params.s)))
    if q["base"] is not None:  # the induction case
        u, v = q["fiber_dims"]
        add("dimension identity base + fiber = dim X",
            q["base"]["dim"] + u * v - 1 == r * (n - r) - 1)
    return checks


def _count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(f"must be nonnegative, got {value}")
    return value


def _integer(raw: str):
    """The int of one optional "-" then decimal digits, else None."""
    digits = raw[1:] if raw[:1] == "-" else raw
    return int(raw) if digits.isdecimal() else None


def _bundle_list(raw: str) -> list:
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        inner = chunk[1:-1] if chunk[0] == "(" and chunk[-1] == ")" else chunk
        pair = [_integer(part.strip()) for part in inner.split(",")]
        if len(pair) != 2 or None in pair:
            raise ValueError(
                f"cannot parse bundle {chunk!r}; expected \"(a,b);(a,b);...\"")
        pairs.append(tuple(pair))
    return pairs


def build_document(params: GrassParams, max_degree: int, bundles) -> dict:
    """The ``analyze`` report; its diagnostics check the values it prints."""
    positive, zero, negative = semistability.fixed_point_counts(params)
    rep = quotient.report(params)

    decomposition = decomposition_error = twist = None
    try:
        twist = reps._descent_twist(params)
    except UnsupportedCaseError as exc:
        decomposition_error = str(exc)
    # one budget total for the table and the calibration's h(d_min), each
    # degree's summands counted once, before the first sum
    degrees = sorted(set(range(max_degree + 1)).union([params.d_min] if twist else []))
    hilbert = dict(zip(degrees, reps._hilbert_values(params, degrees)))
    if twist:
        cal = reps._calibration(params, twist, hilbert[params.d_min])
        decomposition = {
            "d_min": cal.d_min,
            "a": cal.a,
            "b": cal.b,
            "convention": cal.convention,
            "total_dim": cal.dimension,
            "pairs": [{"left": list(p.left), "right": list(p.right), "dim": p.dim}
                      for p in cal.pairs],
        }

    tables = []
    for a, b in bundles:
        try:
            table = cohomology.cohomology_on_X(params, a, b)
            tables.append({"a": a, "b": b,
                           "table": {str(k): v for k, v in sorted(table.items())},
                           "euler": cohomology.alternating_sum(table)})
        except (UnsupportedCaseError, ValueError) as exc:
            tables.append({"a": a, "b": b, "error": str(exc)})

    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": {"n": params.n, "r": params.r, "s": params.s,
                   "p": params.p, "k": params.k},
        "quotient": rep,
        "semistability": {
            "weights": list(semistability.lambda_weights(params)),
            "class_counts": {"positive": positive, "zero": zero,
                             "negative": negative},
            "num_pairs": semistability.count_pairs(params),
            "w_sr": {"word": list(weyl.build_w_sr(params)),
                     "subset": list(semistability.minimal_semistable_subset(params))},
            "ss_equals_stable": rep["ss_eq_stable"],
        },
        "hilbert": {str(m): hilbert[m] for m in range(max_degree + 1)},
        "decomposition": decomposition,
        "decomposition_error": decomposition_error,
        "cohomology": tables,
    }
    doc["diagnostics"] = _diagnostics(params, doc)
    return doc


def _print_text(doc: dict):
    p = doc["params"]
    print(f"GIT quotient report for G(r={p['r']}, n={p['n']}), subgroup index s={p['s']}")
    print(f"  p = {p['p']}, k = {p['k']}")
    q = doc["quotient"]
    print(f"  dim X = {q['dim_X']}, induction case: {q['induction_case']}, "
          f"semistable = stable: {q['ss_eq_stable']}")
    if q["explicit_model"]:
        model, degree = q["explicit_model"]
        print(f"  explicit model: X = {model} with bundle degree {degree}")
    if q["base"]:
        base = q["base"]
        if base["point"]:
            print("  base: point (stabilizer is the whole Levi)")
        else:
            idx, rank = base["grassmannian"]
            print(f"  base: G({idx}, {rank}) in {base['factor']}, dim {base['dim']}")
        u, v = q["fiber_dims"]
        print(f"  fiber: P(M({u} x {v}))")
        print(f"  orbits: {q['orbit_count']} with dims {q['orbit_dims']}")
        print(f"  Picard rank {q['picard_rank']}, Fano: {q['fano']}, "
              f"wonderful: {q['wonderful']}, Aut0 = {q['aut0']}")
    ss = doc["semistability"]
    print(f"  fixed points (+/0/-): {ss['class_counts']['positive']}"
          f"/{ss['class_counts']['zero']}/{ss['class_counts']['negative']}, "
          f"Richardson pairs: {ss['num_pairs']}")
    print(f"  w_sr word {ss['w_sr']['word']} with subset {ss['w_sr']['subset']}")
    hil = ", ".join(f"h({m})={v}" for m, v in doc["hilbert"].items())
    print(f"  hilbert: {hil}")
    if doc["decomposition"]:
        d = doc["decomposition"]
        print(f"  sections at d_min={d['d_min']}: (a,b)=({d['a']},{d['b']}), "
              f"{len(d['pairs'])} summands, total dim {d['total_dim']}")
    elif doc["decomposition_error"]:
        print(f"  sections: unavailable ({doc['decomposition_error']})")
    for entry in doc["cohomology"]:
        if "error" in entry:
            print(f"  H*(a={entry['a']}, b={entry['b']}): {entry['error']}")
        else:
            print(f"  H*(a={entry['a']}, b={entry['b']}): {entry['table']} "
                  f"(chi = {entry['euler']})")
    bad = [c["name"] for c in doc["diagnostics"] if not c["ok"]]
    for check in doc["diagnostics"]:
        print(f"  [{'PASS' if check['ok'] else 'FAIL'}] {check['name']}")
    if bad:
        print(f"  {len(bad)} diagnostic(s) FAILED", file=sys.stderr)


def _cmd_analyze(params: GrassParams, args) -> int:
    doc = build_document(params, args.max_degree, args.bundles or [])
    if args.json:
        print(json.dumps(_jsonable(doc), sort_keys=True, separators=(",", ":")))
    else:
        _print_text(doc)
    return 1 if any(not c["ok"] for c in doc["diagnostics"]) else 0


def _cmd_hilbert(params: GrassParams, args) -> int:
    values = reps._hilbert_values(params, range(args.degrees + 1))
    print("m,h")
    for m, value in enumerate(values):
        print(f"{m},{value}")
    return 0


class _Braced(dict):
    """Subset -> "{i,j,...}\n", formatted on first use."""

    def __missing__(self, subset):
        text = self[subset] = "{" + ",".join(map(str, subset)) + "}\n"
        return text


def _cmd_cells(params: GrassParams, args) -> int:
    total = semistability.count_pairs(params)
    shown = total if args.limit is None else min(args.limit, total)
    check_budget(shown, stage="cells listing",
                 what=f"listing {shown} Richardson pairs exceeds the enumeration cap")
    emitted = 0
    tails = _Braced()
    texts = {}  # id of a shared phi list -> (the list, which keeps the id, its tails)
    block, lines = [], 0  # whole v groups, and the lines they hold
    # with nothing to show the scan never starts: it may exceed the cap
    for v, phis in semistability.pairs_by_v(params) if shown else ():
        entry = texts.get(id(phis))
        if entry is None:  # the lines left only shrink, so no later v needs more
            entry = texts[id(phis)] = (phis, list(map(tails.__getitem__, phis[:shown - emitted])))
        text = entry[1]
        if len(text) > shown - emitted:
            text = text[:shown - emitted]
        head = "{" + ",".join(map(str, v)) + "} <= "
        block.append(head + head.join(text))
        emitted += len(text)
        lines += len(text)
        if lines >= _CELLS_BLOCK:
            sys.stdout.write("".join(block))
            block, lines = [], 0
        if emitted == shown:
            break
    sys.stdout.write("".join(block))
    if emitted != shown:
        raise InvariantViolationError(
            f"listed {emitted} Richardson pairs for {params}, expected {shown}")
    if shown < total:
        print(f"... truncated; {total} pairs total")
    else:
        print(f"{total} pairs")
    return 0


#: Each command's runner and its options, option -> (attribute, converter,
#: default); a converter of None marks a flag.  Every command takes n r s.
_COMMANDS = {
    "analyze": (_cmd_analyze, {"--json": ("json", None, False),
                               "--max-degree": ("max_degree", _count, 6),
                               "--bundles": ("bundles", _bundle_list, [])}),
    "hilbert": (_cmd_hilbert, {"--degrees": ("degrees", _count, 8)}),
    "cells": (_cmd_cells, {"--limit": ("limit", _count, None)}),
}

_USAGE = """\
usage: gitgr analyze n r s [--json] [--max-degree D] [--bundles LIST]
       gitgr hilbert n r s [--degrees D]
       gitgr cells n r s [--limit L]
"""

_HELP = """
Exact structure of the GIT quotient of G(r, n) by the diagonal
one-parameter subgroup with weights n - s (s times) and -s (n - s times).

commands:
  analyze          full structural report
  hilbert          invariant Hilbert function h(0..D) as CSV
  cells            Richardson pairs of the semistable locus

options (each --opt value may also be written --opt=value):
  --json           analyze: emit versioned, deterministic JSON
  --max-degree D   analyze: Hilbert degrees 0..D in the report (default 6)
  --bundles LIST   analyze: cohomology twists "(a,b);(a,b);..."
  --degrees D      hilbert: degrees 0..D (default 8)
  --limit L        cells: list at most L pairs (default all)
  -h, --help       print this text and exit

exit codes: 0 success, 1 self-check failed or internal invariant broken,
2 bad arguments or GITGR_MAX_ENUM not a positive integer,
3 enumeration budget exceeded (GITGR_MAX_ENUM),
141 output closed early (as by `| head`)
"""


def _exit_with_help():
    sys.stdout.write(_USAGE + _HELP)
    raise SystemExit(0)


def _usage_error(reason: str):
    sys.stderr.write(f"{_USAGE}gitgr: error: {reason}\n")
    raise SystemExit(2)


def _parse(argv) -> tuple:
    """(command, params, options) from the arguments after the program name.

    Bad arguments exit 2 with the usage on stderr, and a GITGR_MAX_ENUM
    that is not a positive integer with one error line; ``-h`` and ``--help``
    print the help on stdout and exit 0.  Options are matched whole, never
    by a prefix.
    """
    if not argv:
        _usage_error("missing command")
    command, *rest = argv
    if command in ("-h", "--help"):
        _exit_with_help()
    if command not in _COMMANDS:
        _usage_error(f"unknown command {command!r}")
    table = _COMMANDS[command][1]
    options = {attr: default for attr, _, default in table.values()}
    positionals = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-") or token[1:].isdigit():
            positionals.append(token)  # a negative n, r or s fails in GrassParams
            continue
        if token in ("-h", "--help"):
            _exit_with_help()
        name, inline, value = token.partition("=")
        if name not in table:
            _usage_error(f"{command} has no option {name}")
        attr, convert, _ = table[name]
        if convert is None:
            if inline:
                _usage_error(f"{name} takes no value")
            options[attr] = True
            continue
        if not inline:
            value = next(tokens, None)
            if value is None:
                _usage_error(f"{name} needs a value")
        try:
            options[attr] = convert(value)
        except ValueError as exc:
            _usage_error(f"{name}: {exc}")
    if len(positionals) != 3:
        _usage_error(f"{command} takes the three integers n r s, "
                     f"got {len(positionals)} positional arguments")
    try:
        params = GrassParams(*map(int, positionals))
    except ValueError as exc:
        _usage_error(str(exc))
    try:  # a malformed GITGR_MAX_ENUM is refused here, before any output
        check_budget(0, stage="arguments", what="")
    except ValueError as exc:
        sys.stderr.write(f"gitgr: error: {exc}\n")
        raise SystemExit(2)
    return command, params, SimpleNamespace(**options)


def main(argv=None) -> int:
    command, params, options = _parse(sys.argv[1:] if argv is None else argv)
    try:
        status = _COMMANDS[command][0](params, options)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # point fd 1 at devnull so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
