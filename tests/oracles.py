"""Independent brute-force oracles used to pin expected values.

Everything here recomputes quantities from first principles, by exhaustive
search or by a classical formula on a different route than the library:

* minimal semistable subset, fixed-point weight classes, Hilbert-Mumford
  values and Richardson pairs by scanning all r-subsets, and the number of
  pairs by a walk over the prefix counts of both subsets;
* the Richardson pairs grouped by v, as the listing filtered them before
  it used threshold masks: one comparison of packed prefix-count keys per
  nonpositive subset and join v ∨ m0;
* reduced words, minimal coset representatives and Bruhat order on
  permutations by the subword criterion;
* semistandard tableau counts, and Kostka numbers, by the hook content
  formula and by cell-by-cell enumeration;
* the invariant Hilbert function by a dynamic program over
  componentwise-increasing chains of column subsets, and by the Levi
  branching sum over every partition in the r x m box, with two Weyl
  dimensions a summand;
* standard monomials: weight-zero multichains of r-subsets listed under
  ``weyl.bruhat_leq``, and whether each splits into weight-zero chains of
  a smaller degree, or each weight-zero vector of counts per weight into
  such vectors, and the atoms of the monoid those vectors form, each not
  above a smaller one; the weight-zero Plücker monomials of a degree, by
  filtering every monomial of that degree; and the distinct products of m
  degree-one invariants, by merging every combination of m of them;
* the rank over F_p of a whole degree's products in one echelon, as the
  projective-normality check ranked it before it split the products by
  torus weight, and the contents of the semistandard tableaux of a
  rectangle, by listing every multiset of its columns;
* the blocked normality check, as it ran before it ranked only the Levi
  highest weights: every product of an open degree listed, grouped by
  content and ranked block by block at shared points;
* Plücker monomials as polynomials in the entries of a generic r x n
  matrix (dicts from sorted variable multisets to integer coefficients,
  variables being (row, column) pairs), with their rank and a kernel
  vector over the rationals;
* determinants over F_p by Gaussian elimination, against the Laplace
  expansion of ``plucker.random_minors``;
* the 180-degree complement of a partition in a box, on three routes:
  mu^c in the r x m box of the Levi branching, the dual SL(m) weight in
  the m x lambda_1 box, and the node x b box of the SL(n-s) section
  weights, each by padding with zeros, reversing and stripping zeros;
* the ``gitgr`` command line as the argparse front end read it, with the
  checks its ``main`` made after parsing, and ``--bundles`` by the regular
  expression it used.
"""

import argparse
import math
import random
import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations, product
from typing import NamedTuple

from gitgr import reps
from gitgr.errors import InvariantViolationError, NotCertifiedError, check_budget
from gitgr.params import GrassParams
from gitgr.plucker import PRIME, echelon_rank, random_minors
from gitgr.reps import partitions_of, weyl_dim
from gitgr.semistability import all_subsets, minimal_semistable_subset, plucker_weight
from gitgr.weyl import bruhat_leq


def weight_of(subset, n, r, s):
    """Plücker weight straight from the diagonal weights, no shortcut."""
    diag = [n - s] * s + [-s] * (n - s)
    return sum(diag[i - 1] for i in subset)


def minimal_semistable_scan(n, r, s):
    """Unique componentwise-minimal r-subset of nonpositive weight."""
    good = [I for I in combinations(range(1, n + 1), r)
            if weight_of(I, n, r, s) <= 0]
    minimal = [I for I in good
               if not any(J != I and all(a <= b for a, b in zip(J, I))
                          for J in good)]
    assert len(minimal) == 1, (n, r, s, minimal)
    return minimal[0]


class FixedPointClasses(NamedTuple):
    """Torus fixed points split by the sign of their weight."""
    positive: tuple
    zero: tuple
    negative: tuple

    @property
    def counts(self):
        return (len(self.positive), len(self.zero), len(self.negative))


def classify_fixed_points(params):
    """Every r-subset, in lexicographic order, in its weight class."""
    classes = ([], [], [])
    for subset in combinations(range(1, params.n + 1), params.r):
        weight = weight_of(subset, params.n, params.r, params.s)
        classes[0 if weight > 0 else 1 if weight == 0 else 2].append(subset)
    return FixedPointClasses(*map(tuple, classes))


def mu(subset, sign, params):
    """Hilbert-Mumford value on the cell at ``subset`` along the subgroup
    (sign +1, Borel cells) or its inverse (sign -1, opposite cells)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return -sign * weight_of(subset, params.n, params.r, params.s)


def dual_subset(subset, n):
    """Reversed complement {n+1-i : i not in subset}, the Plücker index of
    the orthogonal complement."""
    return tuple(sorted(n + 1 - i for i in range(1, n + 1) if i not in subset))


def _below(lhs, rhs):
    return all(a <= b for a, b in zip(lhs, rhs))


def brute_pairs(params, w=None):
    """Richardson pairs (v, phi), weight(v) > 0 >= weight(phi), v <= phi and
    phi <= w when ``w`` is given, by a componentwise test on every
    candidate pair, in lexicographic order."""
    n, r, s = params.n, params.r, params.s
    subsets = list(combinations(range(1, n + 1), r))
    nonpos = [phi for phi in subsets if weight_of(phi, n, r, s) <= 0
              and (w is None or _below(phi, w))]
    return [(v, phi) for v in subsets if weight_of(v, n, r, s) > 0
            for phi in nonpos if _below(v, phi)]


def _prefix_keys(n: int, r: int):
    """Packed prefix-count keys of the r-subsets of {1..n}, and their guard.

    ``key(I)`` holds |I meet {1..i}| for i = 1..n, one field of
    ``r.bit_length() + 1`` bits per position; a count is at most r, so the
    top bit of every field is free, and ``guard`` sets exactly those bits.
    Each entry e of I adds one to the fields of positions e..n, so the key
    is a sum of n precomputed steps.

    >>> key, guard = _prefix_keys(4, 2)
    >>> [key((2, 4)) >> 3 * i & 0b11 for i in range(4)], bin(guard)
    ([0, 1, 1, 2], '0b100100100100')
    """
    width = r.bit_length() + 1
    ones = sum(1 << width * i for i in range(n))
    steps = [0] + [ones >> width * e << width * e for e in range(n)]
    return (lambda subset: sum(map(steps.__getitem__, subset))), ones << width - 1


def _key_leq(lower: int, upper: int, guard: int) -> bool:
    """Bruhat order lower <= upper on two prefix-count keys.

    lower <= upper exactly when every prefix count of ``lower`` is at least
    that of ``upper``.  With the guard bit set in every field of ``lower``
    no field of the difference borrows from the next, and a field keeps its
    guard bit exactly when its count did not drop.

    >>> key, guard = _prefix_keys(4, 2)
    >>> _key_leq(key((1, 2)), key((3, 4)), guard)
    True
    >>> _key_leq(key((1, 4)), key((2, 3)), guard)
    False
    """
    return ((lower | guard) - upper) & guard == guard


def pairs_by_packed_keys(params, w=None):
    """Richardson pairs grouped by v, ``(v, [phi, ...])``, as
    ``semistability.pairs_by_v`` listed them before it used threshold masks.

    Each nonpositive subset (cut to phi <= w) and each distinct join
    v ∨ m0 gets a packed prefix-count key, and the nonpositive subsets are
    filtered once per join, one packed comparison each; the v of one join
    share one list.
    """
    n, r, s, p = params.n, params.r, params.s, params.p
    key, guard = _prefix_keys(n, r)
    w_key = None if w is None else key(w)
    floor = minimal_semistable_subset(params)
    positive, nonpositive = [], []
    for subset in all_subsets(params):
        if bisect_right(subset, s) > p:
            positive.append(subset)
        else:
            subset_key = key(subset)
            if w_key is None or _key_leq(subset_key, w_key, guard):
                nonpositive.append((subset, subset_key))
    by_join = {}
    for v in positive:
        join = tuple(map(max, v, floor))
        phis = by_join.get(join)
        if phis is None:
            # _key_leq(join, phi) inlined, with the join's guard bits set
            join_key = key(join) | guard
            phis = by_join[join] = [phi for phi, phi_key in nonpositive
                                    if (join_key - phi_key) & guard == guard]
        if phis:
            yield v, phis


def pair_count_walk(params, w=None):
    """Number of Richardson pairs, phi <= w too when ``w`` is given, by a
    walk over the positions i = 1..n.

    The state (a, b) holds the prefix counts |v meet {1..i}| and
    |phi meet {1..i}|, with a >= b (v <= phi) and b at least the prefix
    count of w (phi <= w); each step adds 0 or 1 to each.  At i = s the
    counts are the classes of v and phi, so only the states with
    a > p >= b go on.  The walk has O(n * r^2) states.
    """
    n, r, s, p = params.n, params.r, params.s, params.p
    in_w = set(w or ())
    ways = {(0, 0): 1}
    w_prefix = 0
    for i in range(1, n + 1):
        w_prefix += i in in_w
        step = {}
        for (a, b), count in ways.items():
            for a_next in (a, a + 1):
                for b_next in (b, b + 1):
                    if (w_prefix <= b_next <= a_next <= r
                            and r - b_next <= n - i):
                        key = (a_next, b_next)
                        step[key] = step.get(key, 0) + count
        if i == s:
            step = {(a, b): count for (a, b), count in step.items()
                    if a > p >= b}
        ways = step
    return ways.get((r, r), 0)


def _evaluate(word, n):
    cur = list(range(1, n + 1))
    for letter in word:
        cur[letter - 1], cur[letter] = cur[letter], cur[letter - 1]
    return tuple(cur)


def is_reduced(word, n):
    """A word is reduced iff its evaluation has as many inversions as the
    word has letters."""
    perm = _evaluate(word, n)
    return sum(a > b for a, b in combinations(perm, 2)) == len(word)


def reduced_word(perm):
    """A reduced word evaluating to ``perm``, by sorting out the leftmost
    descent and reading the swaps backwards."""
    p = list(perm)
    rev = []
    while True:
        i = next((i for i in range(len(p) - 1) if p[i] > p[i + 1]), None)
        if i is None:
            break
        rev.append(i + 1)
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(reversed(rev))


def min_coset_rep(subset, n):
    """Minimal-length coset representative with image set ``subset``: the
    subset in increasing order, then its complement in increasing order."""
    subset = tuple(subset)
    return subset + tuple(i for i in range(1, n + 1) if i not in subset)


@lru_cache(maxsize=None)
def bruhat_downset(perm):
    """All permutations below ``perm``: evaluations of subwords of one
    fixed reduced word (the subword characterization of Bruhat order)."""
    n = len(perm)
    word = reduced_word(perm)
    seen = set()
    for mask in range(1 << len(word)):
        sub = tuple(word[i] for i in range(len(word)) if mask >> i & 1)
        seen.add(_evaluate(sub, n))
    return frozenset(seen)


def bruhat_leq_perms(u, w):
    return u in bruhat_downset(w)


def hook_content_count(shape, m):
    """Number of semistandard tableaux of ``shape`` over {1..m}, by the
    hook content formula prod (m + content) / hook."""
    shape = tuple(shape)
    if not shape:
        return 1
    if len(shape) > m:
        return 0
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    value = Fraction(1)
    for i, part in enumerate(shape):
        for j in range(part):
            content = j - i
            hook = (part - j) + (conj[j] - i) - 1
            value *= Fraction(m + content, hook)
    assert value.denominator == 1
    return int(value)


def ssyt_count(shape, alphabet, *, max_small=None, exact_small=None, content=None):
    """Count semistandard tableaux of ``shape`` with entries in {1..alphabet}.

    With ``exact_small`` given, count only fillings having exactly that
    many entries <= ``max_small``; with ``content`` given, only those in
    which i appears content[i - 1] times, the Kostka number
    K_{shape, content}.  Plain recursive enumeration, for modest shapes.
    """
    left = None if content is None else list(content) + [0] * (alphabet - len(content))
    shape = tuple(shape)
    if any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"shape must be a partition: {shape}")
    if not shape:
        return 1 if exact_small in (None, 0) else 0
    rows = len(shape)
    cells_after_row = [sum(shape[i + 1:]) for i in range(rows)]

    def fill_row(i, row_above, count):
        if left is not None and any(left[:i]):
            return 0  # the rows from i on take entries above i only
        if i == rows:
            return 1 if (exact_small is None or count == exact_small) and not any(left or ()) \
                else 0
        total = 0
        width = shape[i]
        row = [0] * width

        def cell(j, cnt):
            nonlocal total
            if j == width:
                total += fill_row(i + 1, row, cnt)
                return
            lo = row[j - 1] if j > 0 else 1
            if row_above is not None and j < len(row_above):
                lo = max(lo, row_above[j] + 1)
            for v in range(lo, alphabet + 1):
                nc = cnt + (1 if max_small is not None and v <= max_small else 0)
                if exact_small is not None:
                    rest = width - j - 1 + cells_after_row[i]
                    if nc > exact_small or nc + rest < exact_small:
                        continue
                if left is not None:
                    if not left[v - 1]:
                        continue
                    left[v - 1] -= 1
                row[j] = v
                cell(j + 1, nc)
                if left is not None:
                    left[v - 1] += 1
        cell(0, count)
        return total

    return fill_row(0, None, 0)


@lru_cache(maxsize=None)
def _chain_transitions(n, r):
    subsets = list(combinations(range(1, n + 1), r))
    index = {sub: i for i, sub in enumerate(subsets)}
    below = [[index[other] for other in subsets
              if all(a <= b for a, b in zip(other, sub))]
             for sub in subsets]
    return subsets, below


def chain_hilbert(n, r, s, m):
    """Invariant Hilbert value h(m) of (n, r, s) by counting chains.

    A degree-m invariant basis vector is a semistandard filling of the
    r x m rectangle over {1..n} with exactly r*s*m/n entries at most s;
    reading its columns as r-subsets gives a componentwise-increasing
    chain of m subsets.  The dynamic program extends chains one column at
    a time, tracking how many small entries they hold.
    """
    if m == 0:
        return 1
    if (r * s * m) % n:
        return 0
    target = r * s * m // n
    subsets, below = _chain_transitions(n, r)
    smalls = [sum(1 for i in sub if i <= s) for sub in subsets]
    # state[j][t]: chains of the columns filled so far ending at subset j
    # with t small entries used
    state = [[0] * (target + 1) for _ in subsets]
    for j, a in enumerate(smalls):
        if a <= target:
            state[j][a] = 1
    for _ in range(m - 1):
        new = [[0] * (target + 1) for _ in subsets]
        for j, a in enumerate(smalls):
            col = new[j]
            for i in below[j]:
                prev = state[i]
                for t in range(target + 1 - a):
                    if prev[t]:
                        col[t + a] += prev[t]
        state = new
    return sum(state[j][target] for j in range(len(subsets)))


def levi_summands(params, m):
    """The partitions mu of rsm/n in the r x m box whose Levi branching
    summand dim V(mu) * dim V(mu^c) is not forced to vanish: mu has at
    most s nonzero parts and mu^c at most n - s.  Empty when rsm/n is not
    an integer.  In degree 0 the one summand is V(0) x V(0)."""
    n, r, s = params.n, params.r, params.s
    target, rest = divmod(r * s * m, n)
    if rest:
        return []
    if m == 0:
        return [()]
    return [mu for mu in partitions_of(target, r, max_part=m)
            if len(mu) <= s and r - mu.count(m) <= n - s]


def levi_branching_sum(params, m):
    """h(m) as ``reps.invariant_hilbert`` summed it before it visited only
    the surviving summands: it walks every partition in the r x m box,
    skips the vanishing ones and pays two Weyl dimensions for each other."""
    if m == 0:
        return 1
    n, s = params.n, params.s
    return sum(weyl_dim(s, mu) * weyl_dim(n - s, levi_complement(mu, params.r, m))
               for mu in levi_summands(params, m))


def weight_zero_chains(n, r, s, degree):
    """Weight-zero multichains I_1 <= ... <= I_degree of r-subsets of {1..n}.

    These index the weight-zero standard monomials of the given degree.
    The order is ``weyl.bruhat_leq``, the weight ``weight_of``.  The search
    extends chains in lexicographic order, which refines Bruhat order, so
    each multichain is listed once.
    """
    return _weight_zero_multisets(n, r, s, degree, bruhat_leq)


def _weight_zero_multisets(n, r, s, degree, follows):
    """Weight-zero multisets of ``degree`` r-subsets of {1..n}, each listed
    once as a tuple in lexicographic order, keeping only those in which
    ``follows(previous, next)`` holds for every two neighbours, or all of
    them when ``follows`` is None.  Partial multisets the subsets left
    cannot bring back to weight zero are cut.
    """
    subsets = list(combinations(range(1, n + 1), r))
    weights = [weight_of(sub, n, r, s) for sub in subsets]
    low, high = min(weights), max(weights)
    found = []

    def extend(picked, total):
        left = degree - len(picked)
        if left == 0:
            if total == 0:
                found.append(tuple(subsets[i] for i in picked))
            return
        if not left * low <= -total <= left * high:
            return  # the subsets left cannot bring the weight back to zero
        for j in range(picked[-1] if picked else 0, len(subsets)):
            if not picked or follows is None or follows(subsets[picked[-1]], subsets[j]):
                picked.append(j)
                extend(picked, total + weights[j])
                picked.pop()

    extend([], 0)
    return found


def chains_split(n, r, s, size, parts):
    """Whether every weight-zero multichain of degree size*parts is a union
    of ``parts`` weight-zero sub-multisets of ``size`` subsets each.

    A sub-multiset of a chain is a chain, so only the multiset of weights
    matters; the search tries every sub-multiset of that size.
    """
    @lru_cache(maxsize=None)
    def split(weights, k):
        if k == 1:
            return sum(weights) == 0
        for pick in set(combinations(weights, size)):
            if sum(pick) == 0:
                rest = list(weights)
                for w in pick:
                    rest.remove(w)
                if split(tuple(rest), k - 1):
                    return True
        return False

    return all(split(tuple(sorted(weight_of(sub, n, r, s) for sub in chain)), parts)
               for chain in weight_zero_chains(n, r, s, size * parts))


def count_vectors_split(n, r, s, size, parts):
    """Whether every weight-zero vector of counts per Plücker weight, over
    size*parts subsets, is a sum of ``parts`` such vectors over ``size``.

    The weights are those of the r-subsets of {1..n}, the vectors are
    listed from all multisets of weights, and the sums are formed as
    tuples one summand at a time.
    """
    weights = sorted({weight_of(sub, n, r, s)
                      for sub in combinations(range(1, n + 1), r)})

    def vectors(total):
        return {tuple(multiset.count(w) for w in weights)
                for multiset in combinations_with_replacement(weights, total)
                if sum(multiset) == 0}

    ones = vectors(size)
    reached = {(0,) * len(weights)}
    for _ in range(parts):
        reached = {tuple(x + y for x, y in zip(a, b)) for a in reached for b in ones}
    return reached == vectors(size * parts)


def weight_zero_atoms(n, r, s, max_size):
    """Atoms of the monoid of weight-zero vectors of counts per Plücker
    weight, of at most ``max_size`` subsets, as (size, vector) pairs.

    The weights are those of the r-subsets of {1..n}, and the vectors of
    each size are listed one weight at a time, cutting a prefix the
    weights left cannot bring back to zero.  Sizes are visited in
    increasing order, and a vector is an atom when no atom found before it
    lies below it in every count: the rest of a vector above an atom is
    again weight zero, and any proper weight-zero part holds an atom.
    """
    weights = sorted({weight_of(sub, n, r, s)
                      for sub in combinations(range(1, n + 1), r)})

    def vectors(size, k, total):
        if k == len(weights) - 1:
            if total + size * weights[k] == 0:
                yield (size,)
            return
        for count in range(size + 1):
            rest, weight = size - count, total + count * weights[k]
            if weight + rest * weights[k + 1] <= 0 <= weight + rest * weights[-1]:
                for tail in vectors(rest, k + 1, weight):
                    yield (count,) + tail

    atoms = []
    for size in range(1, max_size + 1):
        for vector in vectors(size, 0, 0):
            if not any(all(a <= b for a, b in zip(atom, vector)) for _, atom in atoms):
                atoms.append((size, vector))
    return atoms


def invariant_monomials_scan(params, degree):
    """Weight-zero Plücker monomials of the given degree, as subset multisets,
    by filtering all C(C(n, r) + degree - 1, degree) monomials."""
    return [mono for mono in combinations_with_replacement(all_subsets(params), degree)
            if sum(plucker_weight(i, params) for i in mono) == 0]


def distinct_products(params, m):
    """Distinct products of m degree-one invariants, as sorted subset
    multisets, in sorted order.

    The g degree-one invariants are the weight-zero multisets of d_min
    subsets, found by a pruned search; every one of the C(g + m - 1, m)
    combinations of m of them is merged, and a ``seen`` set drops the
    repeats.
    """
    gens = _weight_zero_multisets(params.n, params.r, params.s, params.d_min, None)
    seen = {tuple(sorted(chain.from_iterable(combo)))
            for combo in combinations_with_replacement(gens, m)}
    return sorted(seen)


def whole_degree_rank(params, monomials, m, target, attempt):
    """Rank over F_p of ``monomials``, at most ``target``, as one echelon.

    They are evaluated at ``target`` random r x n matrices drawn from a
    generator seeded with (n, r, s, m, attempt), each monomial's row the
    product of its subsets' minors there, and all rows go to one
    ``plucker.echelon_rank``, whatever their torus weight.
    """
    n, r, s = params.n, params.r, params.s
    rng = random.Random(f"{n},{r},{s},{m},{attempt}")
    points = [random_minors(rng, r, n) for _ in range(target)]
    rows = ([math.prod(point[subset] for subset in monomial) % PRIME for point in points]
            for monomial in monomials)
    return echelon_rank(rows, target)


# --- the blocked normality check ------------------------------------------

def monomial_count(params, vectors):
    """Number of Plücker monomials whose count vectors lie in ``vectors``:
    the sum over them of prod_j C(N_j + c_j - 1, c_j), with
    N_j = C(s, j) * C(n - s, r - j) the subsets of class j."""
    n, r, s = params.n, params.r, params.s
    sizes = [math.comb(s, j) * math.comb(n - s, r - j) for j in params.classes]
    return sum(math.prod(math.comb(size + c - 1, c) for size, c in zip(sizes, vector))
               for vector in vectors)


def monomials(params, vectors):
    """Plücker monomials whose count vectors lie in ``vectors``, as sorted
    subset multisets, in sorted order: each vector c picks c_j subsets of
    class j with repetition, in every class it uses, and the picks are
    merged."""
    n, r, s = params.n, params.r, params.s
    used = {(j, c) for vector in vectors for j, c in zip(params.classes, vector) if c}
    members = {j: [small + large for small in combinations(range(1, s + 1), j)
                   for large in combinations(range(s + 1, n + 1), r - j)]
               for j in {j for j, _ in used}}
    picks = {(j, c): list(combinations_with_replacement(members[j], c)) for j, c in used}
    return sorted(tuple(sorted(chain.from_iterable(parts)))
                  for vector in vectors
                  for parts in product(*(picks[j, c] for j, c
                                         in zip(params.classes, vector) if c)))


def balanced_content(params, degree):
    """The weight-zero content of ``degree`` r-subsets spread most evenly,
    sorted, zeros dropped: rsD/n entries as evenly as possible over
    [1, s] and the rest over [s + 1, n].  Every weight-zero content
    dominates it, so its Kostka number K-hat bounds every block's."""
    n, r, s = params.n, params.r, params.s
    small = r * s * degree // n

    def spread(total, parts):
        low, extra = divmod(total, parts)
        return [low + 1] * extra + [low] * (parts - extra)

    return tuple(sorted(filter(None, spread(small, s) + spread(r * degree - small, n - s))))


def content_blocks(params, monomials, degree):
    """``monomials`` of the given degree grouped by content, the tuple
    whose entry i - 1 counts the subsets that hold i.  A subset's code has
    a 1 in digit i - 1, base degree + 1, for each i in it, so codes add up
    to contents."""
    base = degree + 1
    code = {subset: sum(base ** (i - 1) for i in subset)
            for subset in set(chain.from_iterable(monomials))}
    blocks = {}
    for monomial in monomials:
        blocks.setdefault(sum(map(code.__getitem__, monomial)), []).append(monomial)
    return {tuple(key // base ** i % base for i in range(params.n)): rows
            for key, rows in blocks.items()}


def blocked_generation(params, max_degree):
    """``reps.generation_in_degree_one`` as it decided each open degree
    before it ranked only the Levi highest weights: True, or
    NotCertifiedError, or EnumerationCapError at stage "generation check".

    Each open degree (M_m short of S(m d_min), m <= top, on the dual
    triple when 2r > n) lists all ``monomial_count`` products of M_m,
    groups them by content and ranks every block at the first K_mu of
    K-hat seeded points (``balanced_content``), against
    h = sum of the K_mu.  A K_mu above K-hat, or K_mu summing above h, is
    an InvariantViolationError; a sum below h, or a block short of K_mu
    after ``reps._ATTEMPTS`` point sets, is NotCertifiedError.  One running
    total is charged: the certificate, each open degree's products and
    K-hat points at sum_{k<=r} k C(n, k) Laplace products, before any
    listing, then each block's rows times K_mu^2, before any point.
    """
    if 2 * params.r > params.n:
        params = params.dual()
    max_degree = min(max_degree, len(params.classes) - 1)
    if max_degree < 1:
        return True
    n, r, s = params.n, params.r, params.s
    work, kostka, open_degrees, ranked = 0, {}, [], []

    def charge(amount, what):
        nonlocal work
        work += amount
        check_budget(work, stage="generation check", what=f"blocked oracle: {what()}")

    def weight_space(content, degree):
        key = tuple(sorted(filter(None, content)))
        if key not in kostka:
            kostka[key] = reps._kostka(key, r, degree)
        return kostka[key]

    point_cost = sum(k * math.comb(n, k) for k in range(1, r + 1))
    for m, reached, passed in reps._reachable_vectors(params, max_degree, charge):
        if not passed:
            degree = m * params.d_min
            charge(monomial_count(params, reached), lambda: f"the degree-{m} products")
            h = reps.invariant_hilbert(params, degree)
            bound = weight_space(balanced_content(params, degree), degree)
            charge(bound * point_cost, lambda: f"the {bound} degree-{m} points")
            open_degrees.append((m, reached, h, bound))
    for m, reached, h, bound in open_degrees:
        degree = m * params.d_min
        blocks = content_blocks(params, monomials(params, reached), degree)
        targets = [weight_space(content, degree) for content in blocks]
        for content, target in zip(blocks, targets):
            if target > bound:
                raise InvariantViolationError(
                    f"K = {target} for content {content} of {params} is above {bound}")
        reach = sum(targets)
        if reach > h:
            raise InvariantViolationError(
                f"Kostka numbers sum to {reach} > h({degree}) = {h} for {params}")
        if reach < h:
            raise NotCertifiedError(f"weight spaces of dimension {reach} of h = {h}",
                                    degree=m, rank=reach, target=h)
        charge(sum(len(rows) * k * k for rows, k in zip(blocks.values(), targets)),
               lambda: f"the degree-{m} echelon blocks")
        ranked.append((m, blocks, targets, bound))
    for m, blocks, targets, bound in ranked:
        point_sets = []
        for (content, rows), target in zip(blocks.items(), targets):
            rank = 0
            for attempt in range(reps._ATTEMPTS):
                if attempt == len(point_sets):
                    point_sets.append(reps._point_columns(params, bound,
                                                          f"{n},{r},{s},{m},{attempt}"))
                rank = max(rank, reps._block_rank(rows, target, point_sets[attempt]))
                if rank == target:
                    break
            else:
                raise NotCertifiedError(f"content {content}: rank {rank} of {target}",
                                        degree=m, rank=rank, target=target)
    return True


def rectangle_contents(rows, cols, n):
    """{content: count} over the semistandard tableaux of the rows x cols
    rectangle with entries in {1..n}.

    A tableau is read as its cols columns, each a set of ``rows`` entries,
    which weakly increase entrywise from left to right; every multiset of
    cols such sets is tried, in sorted order, and the content counts how
    many columns hold each entry.
    """
    found = {}
    for columns in combinations_with_replacement(combinations(range(1, n + 1), rows), cols):
        if all(a <= b for left, right in zip(columns, columns[1:])
               for a, b in zip(left, right)):
            flat = list(chain.from_iterable(columns))
            content = tuple(flat.count(i) for i in range(1, n + 1))
            found[content] = found.get(content, 0) + 1
    return found


# --- generic-minor model of the Plücker ring ------------------------------

def det_mod_p(rows) -> int:
    """Determinant mod PRIME of a square matrix (a list of row lists, reduced
    in place), by Gaussian elimination."""
    det = 1
    for j in range(len(rows)):
        pivot = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if pivot is None:
            return 0
        if pivot != j:
            rows[j], rows[pivot] = rows[pivot], rows[j]
            det = -det
        head = rows[j]
        det = det * head[j] % PRIME
        inv = pow(head[j], PRIME - 2, PRIME)
        for i in range(j + 1, len(rows)):
            f = rows[i][j] * inv % PRIME
            if f:
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], head)]
    return det % PRIME


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def minor_poly(cols: tuple, r: int, n: int) -> tuple:
    """Determinant of rows 1..r against columns ``cols``, as a frozen poly."""
    if len(cols) != r:
        raise ValueError(f"need {r} columns, got {cols}")
    terms = {}
    for perm in permutations(range(r)):
        mono = tuple(sorted((t + 1, cols[perm[t]]) for t in range(r)))
        terms[mono] = terms.get(mono, 0) + _sign(perm)
    return tuple(sorted(terms.items()))


def poly_mul(a, b) -> dict:
    out = {}
    for mono_a, ca in (a.items() if isinstance(a, dict) else a):
        for mono_b, cb in (b.items() if isinstance(b, dict) else b):
            mono = tuple(sorted(mono_a + mono_b))
            out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def poly_product(polys) -> dict:
    result = {(): 1}
    for poly in polys:
        result = poly_mul(result, poly)
    return result


def monomial_poly(subsets, r: int, n: int) -> dict:
    """Expand the Plücker monomial prod p_I over the listed index subsets."""
    return poly_product(minor_poly(tuple(i), r, n) for i in subsets)


def _matrix_of(polys):
    support = sorted({mono for poly in polys for mono in poly})
    col = {mono: j for j, mono in enumerate(support)}
    return [[Fraction(poly.get(mono, 0)) for mono in support] for poly in polys], col


def rank_of_polys(polys) -> int:
    """Rank over the rationals of the span of the given polynomials."""
    matrix, _ = _matrix_of(list(polys))
    if not matrix:
        return 0
    ncols = len(matrix[0])
    rank = 0
    row = 0
    for j in range(ncols):
        pivot = next((i for i in range(row, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = 1 / matrix[row][j]
        matrix[row] = [x * inv for x in matrix[row]]
        for i in range(len(matrix)):
            if i != row and matrix[i][j]:
                factor = matrix[i][j]
                matrix[i] = [x - factor * y for x, y in zip(matrix[i], matrix[row])]
        rank += 1
        row += 1
        if row == len(matrix):
            break
    return rank


def kernel_vector(polys) -> list | None:
    """A nonzero rational dependency among the polynomials, or None.

    Returns coefficients c with sum(c_i * polys_i) = 0 when the family is
    linearly dependent.
    """
    polys = list(polys)
    matrix, _ = _matrix_of(polys)
    if not matrix:
        return None
    # Solve c^T M = 0 by eliminating on the transpose.
    ncols = len(matrix[0])
    nrows = len(matrix)
    aug = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
    pivots = {}
    row = 0
    for j in range(nrows):
        pivot = next((i for i in range(row, len(aug)) if aug[i][j]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][j]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(len(aug)):
            if i != row and aug[i][j]:
                factor = aug[i][j]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        pivots[j] = row
        row += 1
        if row == len(aug):
            break
    free = [j for j in range(nrows) if j not in pivots]
    if not free:
        return None
    j_free = free[0]
    coeffs = [Fraction(0)] * nrows
    coeffs[j_free] = Fraction(1)
    for j, i in pivots.items():
        coeffs[j] = -aug[i][j_free]
    return coeffs


def _strip_zeros(parts) -> tuple:
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def levi_complement(mu, r, m):
    """mu^c in the r x m box (m >= 1), the GL_{n-s} weight of h(m)."""
    return (m,) * (r - len(mu)) + tuple(m - part for part in reversed(mu) if part < m)


def padded_dual_weight(parts, m):
    """Dual SL(m) weight: lambda_1 - lambda_{m+1-i}, zeros stripped."""
    lam = tuple(parts) + (0,) * (m - len(parts))
    top = lam[0]
    return _strip_zeros(top - lam[m - 1 - i] for i in range(m))


def node_complement(mu, node, b):
    """mu in the node x b box, complemented: the SL(n-s) section weight."""
    mu_v = tuple(mu) + (0,) * (node - len(mu))
    return _strip_zeros(b - mu_v[node - 1 - i] for i in range(node))


def bundle_list_regex(raw: str) -> list:
    """``--bundles`` read by the regular expression the command once used."""
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        inner = chunk[1:-1] if chunk[0] == "(" and chunk[-1] == ")" else chunk
        match = re.fullmatch(r"\s*(-?\d+)\s*,\s*(-?\d+)\s*", inner)
        if not match:
            raise ValueError(
                f"cannot parse bundle {chunk!r}; expected \"(a,b);(a,b);...\"")
        pairs.append((int(match.group(1)), int(match.group(2))))
    return pairs


def _add_params(sub):
    sub.add_argument("n", type=int)
    sub.add_argument("r", type=int)
    sub.add_argument("s", type=int)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the ``gitgr`` command used to build."""
    parser = argparse.ArgumentParser(
        prog="gitgr",
        description="Exact structure of GIT quotients of Grassmannians by "
                    "diagonal one-parameter subgroups.")
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="full structural report")
    _add_params(analyze)
    analyze.add_argument("--json", action="store_true", help="emit JSON")
    analyze.add_argument("--max-degree", type=int, default=6, metavar="D",
                         help="hilbert degrees to include (default 6)")
    analyze.add_argument("--bundles", type=bundle_list_regex, default=[],
                         metavar="LIST", help='cohomology twists "(a,b);(a,b);..."')

    hilbert = subs.add_parser("hilbert", help="invariant Hilbert function as CSV")
    _add_params(hilbert)
    hilbert.add_argument("--degrees", type=int, default=8, metavar="D")

    cells = subs.add_parser("cells", help="Richardson pairs of the semistable locus")
    _add_params(cells)
    cells.add_argument("--limit", type=int, default=None, metavar="L")
    return parser


def argparse_command_line(argv) -> tuple:
    """(command, params, options) as the argparse front end read ``argv``,
    raising SystemExit(2) on a bad argument as it did."""
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    try:
        params = GrassParams(args.pop("n"), args.pop("r"), args.pop("s"))
        if any((args.get(name) or 0) < 0 for name in ("max_degree", "degrees", "limit")):
            raise ValueError("numeric options must be nonnegative")
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    return command, params, argparse.Namespace(**args)
