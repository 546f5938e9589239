"""Independent routes to the numbers gitgr prints, and output validators.

Nothing here imports gitgr.  Each validator takes a request and the bytes
the child wrote to stdout and returns None when the output is correct, or
a one-line reason when it is not.
"""

import json
import math
import re
from functools import lru_cache
from itertools import combinations

#: Richardson-pair counts of the inputs with n >= 10, computed once with
#: brute_pair_count (about 3 s in all).  Smaller inputs are counted directly.
PINNED_PAIR_COUNTS = {
    (10, 5, 5): 10502, (11, 4, 3): 14238, (11, 5, 3): 31752,
    (12, 5, 4): 91644, (12, 6, 6): 107106, (13, 6, 4): 376020,
    (14, 6, 5): 1124760,
}

#: generation_in_degree_one verdicts of the normality workload, (n, r, s, D).
NORMALITY_VERDICTS = {
    (3, 2, 2, 6): True, (4, 2, 2, 5): True, (5, 1, 1, 2): True,
    (5, 1, 2, 2): True, (4, 3, 2, 3): True,
}


def plucker_weight(subset, n: int, r: int, s: int) -> int:
    """Weight n*|I meet {1..s}| - r*s of the Plücker coordinate p_I."""
    return n * sum(1 for i in subset if i <= s) - r * s


def is_induction_case(n: int, r: int, s: int) -> bool:
    """p = 0, or p = r + s - n with r + s >= n, where p = floor(rs/n)."""
    p = r * s // n
    return p == 0 or (r + s >= n and p == r + s - n)


def d_min(n: int, r: int, s: int) -> int:
    """Least degree d >= 1 with n | r*s*d."""
    return n // math.gcd(n, r * s)


def class_counts(n: int, r: int, s: int) -> dict:
    """Fixed points by weight sign: sum_j C(s, j) C(n-s, r-j), j small entries."""
    counts = {"positive": 0, "zero": 0, "negative": 0}
    for j in range(max(0, r - (n - s)), min(s, r) + 1):
        weight = n * j - r * s
        key = "positive" if weight > 0 else "zero" if weight == 0 else "negative"
        counts[key] += math.comb(s, j) * math.comb(n - s, r - j)
    return counts


def brute_pair_count(n: int, r: int, s: int) -> int:
    """Pairs v <= phi (componentwise) with weight(v) > 0 >= weight(phi)."""
    subsets = list(combinations(range(1, n + 1), r))
    pos = [v for v in subsets if plucker_weight(v, n, r, s) > 0]
    nonpos = [phi for phi in subsets if plucker_weight(phi, n, r, s) <= 0]
    return sum(1 for v in pos for phi in nonpos
               if all(a <= b for a, b in zip(v, phi)))


@lru_cache(maxsize=None)
def pair_count(n: int, r: int, s: int) -> int:
    """Pinned count for the large inputs, brute count for the rest."""
    pinned = PINNED_PAIR_COUNTS.get((n, r, s))
    return brute_pair_count(n, r, s) if pinned is None else pinned


def _conjugate(mu) -> list:
    return [sum(1 for part in mu if part > j) for j in range(mu[0] if mu else 0)]


def hook_content_dim(k: int, mu) -> int:
    """dim of the GL_k module of shape mu: prod (k + content) / hook."""
    conj = _conjugate(mu)
    num = den = 1
    for i, row in enumerate(mu):
        for j in range(row):
            num *= k + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def _box_partitions(rows: int, width: int, size: int, cap=None):
    """Weakly decreasing tuples of ``rows`` parts in 0..width summing to size."""
    cap = width if cap is None else cap
    if rows == 0:
        if size == 0:
            yield ()
        return
    for first in range(min(cap, size), -1, -1):
        if first * rows < size:
            break
        for rest in _box_partitions(rows - 1, width, size - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def levi_hilbert(n: int, r: int, s: int, m: int) -> int:
    """Invariant Hilbert value by branching V(m*omega_r) to GL_s x GL_{n-s}.

    h(m) = sum over mu in the r x m box with |mu| = r*s*m/n of
    hc_s(mu) * hc_{n-s}(mu^c), mu^c the 180-degree complement in the box.
    """
    if m == 0:
        return 1
    if (r * s * m) % n:
        return 0
    total = 0
    for mu in _box_partitions(r, m, r * s * m // n):
        left = hook_content_dim(s, tuple(x for x in mu if x))
        if left:
            comp = tuple(m - mu[r - 1 - i] for i in range(r))
            total += left * hook_content_dim(n - s, tuple(x for x in comp if x))
    return total


def check_analyze(n, r, s, bundles, max_degree, out: bytes):
    doc = json.loads(out)
    p = doc["params"]
    if (p["n"], p["r"], p["s"]) != (n, r, s):
        return f"params {p} do not match ({n},{r},{s})"
    ss = doc["semistability"]
    if ss["class_counts"] != class_counts(n, r, s):
        return f"class counts {ss['class_counts']} != {class_counts(n, r, s)}"
    if ss["num_pairs"] != pair_count(n, r, s):
        return f"num_pairs {ss['num_pairs']} != {pair_count(n, r, s)}"
    if ss["ss_equals_stable"] != bool((r * s) % n):
        return "ss_equals_stable disagrees with n | rs"
    q = doc["quotient"]
    if q["induction_case"] != is_induction_case(n, r, s):
        return f"induction_case {q['induction_case']} disagrees with p"
    if q["dim_X"] != r * (n - r) - 1:
        return f"dim_X {q['dim_X']} != r(n-r)-1"
    if list(doc["hilbert"]) != [str(m) for m in range(max_degree + 1)]:
        return f"hilbert degrees {list(doc['hilbert'])} are not 0..{max_degree}"
    # ints beyond 2^53 arrive as decimal strings, hence int() on every value
    for m, value in doc["hilbert"].items():
        if int(value) != levi_hilbert(n, r, s, int(m)):
            return f"h({m}) = {value} != {levi_hilbert(n, r, s, int(m))}"
    dec = doc["decomposition"]
    if dec is None:
        if not doc["decomposition_error"]:
            return "neither a decomposition nor a decomposition_error"
    else:
        d = d_min(n, r, s)
        if dec["d_min"] != d or int(dec["total_dim"]) != levi_hilbert(n, r, s, d):
            return f"decomposition total {dec['total_dim']} != h({d})"
    tables = doc["cohomology"]
    if [(t["a"], t["b"]) for t in tables] != list(bundles):
        return f"cohomology twists {[(t['a'], t['b']) for t in tables]} != {bundles}"
    for t in tables:
        if "error" in t or len(t["table"]) > 1:
            return f"cohomology table {t} is not a single-degree table"
        signed = sum(int(v) * (-1) ** int(k) for k, v in t["table"].items())
        if int(t["euler"]) != signed:
            return f"euler {t['euler']} disagrees with table {t['table']}"
    failed = [c["name"] for c in doc["diagnostics"] if not c["ok"]]
    if failed:
        return f"diagnostics failed: {failed}"
    return None


def check_hilbert(n, r, s, degrees, out: bytes):
    lines = out.decode().splitlines()
    expected = ["m,h"] + [f"{m},{levi_hilbert(n, r, s, m)}" for m in range(degrees + 1)]
    if lines != expected:
        bad = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b),
                   min(len(lines), len(expected)))
        got = lines[bad] if bad < len(lines) else "<missing>"
        return f"line {bad}: {got!r}, expected {expected[bad] if bad < len(expected) else '<end>'!r}"
    return None


def _is_subset(entries, n: int, r: int) -> bool:
    """A strictly increasing r-tuple in 1..n."""
    return (len(entries) == r and 1 <= entries[0] and entries[-1] <= n
            and all(a < b for a, b in zip(entries, entries[1:])))


_CELL = re.compile(r"\{([\d,]+)\} <= \{([\d,]+)\}")


def check_cells(n, r, s, limit, out: bytes):
    lines = out.decode().splitlines()
    total = pair_count(n, r, s)
    shown = total if limit is None else min(limit, total)
    if len(lines) != shown + 1:
        return f"{len(lines)} lines, expected {shown} pairs and a count line"
    tail = f"{total} pairs" if shown == total else f"... truncated; {total} pairs total"
    if lines[-1] != tail:
        return f"count line {lines[-1]!r}, expected {tail!r}"
    previous = None
    for line in lines[:-1]:
        match = _CELL.fullmatch(line)
        if not match:
            return f"cannot parse {line!r}"
        v = tuple(map(int, match.group(1).split(",")))
        phi = tuple(map(int, match.group(2).split(",")))
        if not (_is_subset(v, n, r) and _is_subset(phi, n, r)):
            return f"{line!r} is not a pair of sorted {r}-subsets of 1..{n}"
        if not all(a <= b for a, b in zip(v, phi)):
            return f"{line!r} has v not below phi"
        if plucker_weight(v, n, r, s) <= 0 or plucker_weight(phi, n, r, s) > 0:
            return f"{line!r} has the wrong weight signs"
        if previous is not None and (v, phi) <= previous:
            return f"{line!r} is out of order or repeated"
        previous = (v, phi)
    return None


def check_normality(n, r, s, degree, out: bytes):
    expected = NORMALITY_VERDICTS[(n, r, s, degree)]
    if out.decode() != f"{expected}\n":
        return f"verdict {out.decode().strip()!r}, expected {expected}"
    return None
