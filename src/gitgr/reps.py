"""Dimension engines: Weyl formula, Levi branching, Cauchy decomposition.

The graded invariant ring attached to (n, r, s) is measured through the
Levi factor GL_s x GL_{n-s} of the one-parameter subgroup.  Its degree-m
piece is the zero-weight part of V(m omega_r) restricted to that Levi
factor, which the branching rule and the skew-rectangle identity
(Macdonald, Symmetric Functions and Hall Polynomials, I.5) split as

    h(m) = sum over mu in the r x m box with |mu| = rsm/n of
           dim_{GL_s} V(mu) * dim_{GL_{n-s}} V(mu^c),

mu^c being the 180-degree complement of mu in the box.  Every factor is a
Weyl dimension, the same formula that sizes the section decompositions.

The projective-normality check asks whether products of lowest-degree
invariants span each degree, in two stages.  The first is exact and
needs no linear algebra: by Hodge's standard monomial theory the
weight-zero chains I_1 <= ... <= I_D of r-subsets in Bruhat order are a
basis of the degree-D invariants, a sub-multiset of a chain is a chain,
and a subset's weight depends only on its class j = |I meet [1, s]|
(``GrassParams.classes``).  So a degree is generated in degree one
whenever every weight-zero count vector (c_j) of its size splits into
weight-zero vectors of the lowest size (Lakshmibai and Brown, The
Grassmannian Variety, 2015).  The degrees this certificate leaves open
go to the second stage, which evaluates the products at seeded random
points over F_p, p = 2^31 - 1 (``plucker``): the rank over F_p is at
most the rank over Q, which is at most h, so a rank of h certifies
generation with no false positive (Schwartz 1980; Zippel 1979), and a
shortfall raises ``NotCertifiedError`` instead of answering False.

The count vectors are also where the degree-one invariants come from:
the monomials of a vector are picked class by class, so their number g
has a closed form, and the second stage's budget is checked before any
monomial is listed.
"""

import math
import random
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, product
from operator import add

from . import plucker
from .errors import InvariantViolationError, NotCertifiedError, check_budget
from .params import GrassParams
from .quotient import fibration

__all__ = [
    "weyl_dim", "invariant_hilbert",
    "partitions_of", "dual_weight", "HighestWeightPair", "cauchy_sections",
    "decompose_sections", "Calibration", "calibrate_descent",
    "generation_in_degree_one",
]


def weyl_dim(m: int, parts) -> int:
    """Dimension of the SL(m) module with highest weight ``parts``.

    ``parts`` is a weakly decreasing tuple with at most m entries; adding a
    constant to every entry does not change the result.

    >>> weyl_dim(2, (1,))
    2
    >>> weyl_dim(3, (1, 1))
    3
    """
    parts = tuple(parts)
    if len(parts) > m:
        raise ValueError(f"weight has {len(parts)} parts, more than m={m}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"weight must be weakly decreasing: {parts}")
    lam = parts + (0,) * (m - len(parts))
    numerator = denominator = 1
    # a pair of equal entries has the factor (j - i)/(j - i) = 1, so j
    # starts at ``end``, just past the run of entries equal to lam[i]
    end = m
    for i in reversed(range(m - 1)):
        if lam[i] != lam[i + 1]:
            end = i + 1
        shifted = lam[i] - i
        # each row's factors meet in a small product first; multiplying the
        # growing total by every factor made large m quadratic in its size
        row_numerator = row_denominator = 1
        for j in range(end, m):
            row_numerator *= shifted - lam[j] + j
            row_denominator *= j - i
        numerator *= row_numerator
        denominator *= row_denominator
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise InvariantViolationError(
            f"Weyl dimension formula gave {numerator}/{denominator} "
            f"for m={m}, weight {parts}")
    return value


def invariant_hilbert(params: GrassParams, m: int) -> int:
    """Dimension of the degree-m piece of the invariant ring.

    The degree-m piece of the Plücker ring is V(m omega_r) of GL_n.  Restricted
    to the Levi factor GL_s x GL_{n-s} it splits as the sum over partitions
    mu in the r x m box of V(mu) x V(mu^c), where mu^c is the 180-degree
    complement of mu in the box (branching rule and skew-rectangle identity,
    Macdonald, Symmetric Functions and Hall Polynomials, I.5).  The
    one-parameter subgroup acts on that summand by n|mu| - rsm, so

        h(m) = sum over mu in the r x m box with |mu| = rsm/n of
               dim_{GL_s} V(mu) * dim_{GL_{n-s}} V(mu^c),

    which is zero when rsm/n is not an integer.  A summand vanishes when mu
    has more than s nonzero parts or mu^c more than n - s.  The enumeration
    budget counts the partitions of rsm/n in the box that the sum visits,
    and is checked before the sum starts.

    >>> invariant_hilbert(GrassParams(3, 2, 2), 3)
    3
    >>> invariant_hilbert(GrassParams(4, 2, 2), 2)
    10
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    n, r, s = params.n, params.r, params.s
    if m == 0:
        return 1
    total_small = r * s * m
    if total_small % n != 0:
        return 0
    target = total_small // n
    check_budget(_box_partition_count(target, r, m), stage="Levi branching",
                 what=f"Levi branching: partitions of {target} in the {r} x {m} "
                 "box exceed the enumeration cap")
    total = 0
    for mu in partitions_of(target, r, max_part=m):
        if len(mu) > s or r - mu.count(m) > n - s:
            continue  # V(mu) or V(mu^c) has too many rows for its factor
        total += weyl_dim(s, mu) * weyl_dim(n - s, _box_complement(mu, r, m))
    return total


def _box_partition_count(total: int, rows: int, cols: int) -> int:
    """Number of partitions of ``total`` in the rows x cols box.

    It is the coefficient of q^total in the Gaussian binomial
    [rows + cols, rows]_q = prod_{i=1..rows} (1 - q^(cols+i)) / (1 - q^i);
    each factor is applied to the coefficients up to degree ``total``.

    >>> _box_partition_count(30, 6, 10)
    338
    """
    coeffs = [1] + [0] * total
    for i in range(1, rows + 1):
        for k in range(total, cols + i - 1, -1):
            coeffs[k] -= coeffs[k - cols - i]
        for k in range(i, total + 1):
            coeffs[k] += coeffs[k - i]
    return coeffs[total]


def partitions_of(total: int, max_parts: int, max_part: int | None = None):
    """Partitions of ``total`` with at most ``max_parts`` parts, each at most
    ``max_part`` when that is given: the partitions in a box.

    >>> list(partitions_of(3, 2))
    [(3,), (2, 1)]
    >>> list(partitions_of(3, 3, max_part=2))
    [(2, 1), (1, 1, 1)]
    """
    if total == 0:
        yield ()
        return
    if max_parts <= 0:
        return

    def rec(rem, largest, parts):
        if rem == 0:
            yield tuple(parts)
            return
        for x in range(min(rem, largest), 0, -1):
            if x * (max_parts - len(parts)) < rem:
                break  # the parts left, each at most x, cannot hold rem
            parts.append(x)
            yield from rec(rem - x, x, parts)
            parts.pop()

    yield from rec(total, total if max_part is None else max_part, [])


def _box_complement(parts, rows: int, cols: int) -> tuple:
    """180-degree complement of a partition in the rows x cols box, as a
    partition (no zero parts); () when the partition fills the box.

    >>> _box_complement((2, 1), 3, 2), _box_complement((), 2, 3), _box_complement((), 2, 0)
    ((2, 1), (3, 3), ())
    """
    padded = tuple(parts) + (0,) * (rows - len(parts))
    return tuple(cols - part for part in reversed(padded) if part < cols)


def dual_weight(parts, m: int) -> tuple:
    """Highest weight of the dual SL(m) module, normalized to a partition:
    the complement of ``parts`` in the m x parts[0] box."""
    parts = tuple(parts)
    return _box_complement(parts, m, parts[0] if parts else 0)


@dataclass(frozen=True)
class HighestWeightPair:
    """A summand V(left) x V(right) of a section module, with its dimension."""
    left: tuple
    right: tuple
    dim: int


def cauchy_sections(u: int, v: int, a: int) -> list:
    """Degree-a sections on the projectivized u x v matrix space.

    One summand per partition of a with at most min(u, v) parts, paired
    with itself across the two factors; total dimension C(uv + a - 1, a).

    >>> [pair.dim for pair in cauchy_sections(2, 2, 2)]
    [9, 1]
    """
    if u < 1 or v < 1:
        raise ValueError(f"matrix shape must be positive, got {u} x {v}")
    if a < 0:
        raise ValueError(f"degree must be nonnegative, got {a}")
    out = []
    for mu in partitions_of(a, min(u, v)):
        out.append(HighestWeightPair(mu, mu, weyl_dim(u, mu) * weyl_dim(v, mu)))
    return out


def decompose_sections(params: GrassParams, a: int, b: int) -> list:
    """Highest-weight pairs of the section module at fiber twist a, base twist b.

    Left weights live on SL(s), right weights on SL(n-s).  One candidate
    summand per partition mu of a with at most min(u, v) parts, (u, v) the
    fiber shape, or the matrix shape of the explicit model (4, 2, 2).
    With no base (a point base, or that model) b must be 0 and the
    sections are the Cauchy decomposition of degree-a polynomials on
    M_{u x v}, the left factor labelled by the dual weight.  Otherwise the
    factor carrying the stabilizer parabolic receives the twist b*omega
    and the lifted block weight, and the summand is dropped when that lift
    is not dominant (its section space vanishes); all returned pairs are
    distinct.  The shape, factor and node come from ``quotient.fibration``,
    so other inputs outside the induction case raise UnsupportedCaseError.
    """
    if a < 0 or b < 0:
        raise ValueError(f"twists must be nonnegative, got a={a}, b={b}")
    (u, v), base = fibration(params)
    if base is None:
        if b != 0:
            raise ValueError(f"{params} has no base factor; b must be 0")
        return [HighestWeightPair(dual_weight(pair.left, u), pair.right, pair.dim)
                for pair in cauchy_sections(u, v, a)]
    n, s = params.n, params.s
    node = base.index
    out = []
    for mu in partitions_of(a, min(u, v)):
        first = mu[0] if mu else 0
        if first > b:
            continue  # lifted weight not dominant, no sections
        if base.factor == "SL(n-s)":
            # parabolic in the SL(n-s) factor at node r = v
            right = _box_complement(mu, node, b)
            left = dual_weight(mu, s)
            dim = weyl_dim(s, mu) * weyl_dim(n - s, right)
        else:
            # parabolic in the SL(s) factor at node p
            left = (b,) * node + mu if b else ()  # b = 0 leaves only mu = ()
            right = mu
            dim = weyl_dim(s, left) * weyl_dim(n - s, mu)
        out.append(HighestWeightPair(left, right, dim))
    return out


@dataclass(frozen=True)
class Calibration:
    d_min: int
    a: int
    b: int
    dimension: int
    pairs: tuple  # the summands of decompose_sections at (a, b)
    convention: str = "block-lift, non-dominant summands dropped"


def calibrate_descent(params: GrassParams) -> Calibration:
    """The (a, b) realizing the descended bundle on the fibration.

    The quotient is a P(M_{u x v}) bundle (``quotient.fibration``), and
    its first invariant degree d_min = n / gcd(n, rs) descends to the
    closed form

        (a, b) = (u*v / gcd(n, rs), d_min),

    with b = 0 when there is no base (r + s = n, or the explicit matrix
    model (4, 2, 2)), in the block-lift convention of
    ``decompose_sections``.  The summands there are computed once, kept in
    ``pairs``, and their total is compared with h(d_min); a mismatch, or
    gcd(n, rs) not dividing u*v, raises InvariantViolationError.  The
    identity "section total at m*(a, b) = h(m*d_min)" holds on every
    induction triple with n <= 11 for m = 1..3 (m = 1..4 for n <= 9), and
    on (4, 2, 2).  An input
    outside the induction case raises UnsupportedCaseError from
    ``quotient.fibration`` before any Hilbert value is computed.

    >>> [(cal.a, cal.b) for cal in map(calibrate_descent, (
    ...     GrassParams(4, 1, 2), GrassParams(5, 2, 2), GrassParams(6, 1, 4)))]
    [(1, 2), (4, 5), (2, 3)]
    """
    (u, v), base = fibration(params)
    d_min = params.d_min
    step = params.n // d_min  # gcd(n, rs)
    a, rest = divmod(u * v, step)
    if rest:
        raise InvariantViolationError(
            f"gcd(n, rs) = {step} does not divide the fiber size {u * v} "
            f"for {params}")
    b = 0 if base is None else d_min
    target = invariant_hilbert(params, d_min)
    pairs = tuple(decompose_sections(params, a, b))
    total = sum(pair.dim for pair in pairs)
    if total != target:
        raise InvariantViolationError(
            f"sections at (a, b) = ({a}, {b}) total {total}, but "
            f"h({d_min}) = {target} for {params}")
    return Calibration(d_min, a, b, target, pairs)


# --- finite projective-normality check -----------------------------------

#: Sets of random points tried per degree before a shortfall is reported.
_ATTEMPTS = 3


def _class_box(params: GrassParams, size: int) -> tuple:
    """(total, top) such that S(size) is the partitions of total in the
    size x top box; total is None when S(size) is empty.

    With low the lowest class and top = len(classes) - 1, ``size``
    subsets have total weight zero exactly when their classes sum to
    size*r*s/n, that is when the parts j - low of the classes above the
    lowest sum to total = size*(r*s/n - low).
    """
    low, top = params.classes[0], len(params.classes) - 1
    total, rest = divmod(params.r * params.s * size, params.n)
    return (None if rest else total - low * size), top


def _weight_zero_vectors(params: GrassParams, size: int) -> list:
    """S(size): the count vectors of the weight-zero multisets of ``size``
    r-subsets.

    A vector holds one count per class of ``params.classes``, in order: how
    many subsets of that class the multiset takes.  It is read off a
    partition in the box of ``_class_box``, whose part t counts a subset of
    class low + t and whose missing parts are subsets of class low, so the
    box count sizes S(size).

    >>> _weight_zero_vectors(GrassParams(5, 2, 2), 5)
    [(3, 0, 2), (2, 2, 1), (1, 4, 0)]
    """
    total, top = _class_box(params, size)
    if total is None:
        return []
    return [(size - len(mu),) + tuple(mu.count(t) for t in range(1, top + 1))
            for mu in partitions_of(total, size, max_part=top)]


def _invariant_monomial_count(params: GrassParams, degree: int) -> int:
    """Number of weight-zero Plücker monomials of the given degree.

    There are N_j = C(s, j) * C(n - s, r - j) subsets of class j, and a
    vector c of S(degree) takes c_j of them with repetition, so the count
    is the sum over S(degree) of prod_j C(N_j + c_j - 1, c_j).

    >>> _invariant_monomial_count(GrassParams(4, 2, 2), 2)
    11
    """
    n, r, s = params.n, params.r, params.s
    sizes = [math.comb(s, j) * math.comb(n - s, r - j) for j in params.classes]
    return sum(math.prod(math.comb(size + c - 1, c) for size, c in zip(sizes, vector))
               for vector in _weight_zero_vectors(params, degree))


def _invariant_monomials(params: GrassParams, degree: int) -> list:
    """Weight-zero Plücker monomials of the given degree, as subset multisets.

    Each monomial is a sorted tuple of r-subsets, and the list is sorted,
    which is the order of ``combinations_with_replacement`` over all
    subsets.  It is built class by class: a vector c of S(degree) picks c_j
    subsets of class j with repetition, in every class it uses, and the
    picks are merged.  The list has ``_invariant_monomial_count`` entries;
    it has no budget of its own, since ``generation_in_degree_one`` checks
    a larger number before it asks for the list.
    """
    n, r, s = params.n, params.r, params.s
    vectors = _weight_zero_vectors(params, degree)
    used = {(j, c) for vector in vectors
            for j, c in zip(params.classes, vector) if c}
    members = {j: [small + large for small in combinations(range(1, s + 1), j)
                   for large in combinations(range(s + 1, n + 1), r - j)]
               for j in {j for j, _ in used}}
    picks = {(j, c): list(combinations_with_replacement(members[j], c))
             for j, c in used}
    return sorted(tuple(sorted(chain.from_iterable(parts)))
                  for vector in vectors
                  for parts in product(*(picks[j, c] for j, c
                                         in zip(params.classes, vector) if c)))


def _count_vector_certified(params: GrassParams, max_degree: int) -> set:
    """The degrees m = 1..max_degree that weight-zero count vectors certify.

    An r-subset's weight depends only on its class j
    (``GrassParams.classes``), so a multiset of D subsets has weight zero
    exactly when its count vector lies in S(D) (``_weight_zero_vectors``).
    The box count of ``_class_box`` sizes S(D).  It is taken over the
    conjugate top x D box, whose cost grows with the number of classes,
    not with D.

    The weight-zero chains I_1 <= ... <= I_D in Bruhat order are a basis
    of the degree-D invariants, and a sub-multiset of a chain is a chain.
    So degree m is a span of products of m degree-one invariants whenever
    every vector of S(m d_min) is a sum of m vectors of S(d_min).  The
    reachable sums M_m = M_(m-1) + S(d_min), M_1 = S(d_min), lie in
    S(m d_min), and degree m is certified when the two have one size.
    Degree one always is.  The certificate is sufficient, not necessary.

    The vectors of S(d_min) visited and the Minkowski pairs formed count
    against the enumeration cap (stage "generation check"), checked before
    each step.

    >>> sorted(_count_vector_certified(GrassParams(4, 2, 2), 5))
    [1]
    >>> sorted(_count_vector_certified(GrassParams(5, 2, 2), 3))
    [1, 2, 3]
    >>> [2 in _count_vector_certified(GrassParams(*triple), 2) for triple
    ...  in ((6, 3, 3), (6, 2, 3), (12, 5, 4), (30, 12, 10))]
    [False, False, False, False]
    """
    d_min = params.d_min
    excess, top = _class_box(params, d_min)  # S(m d_min) is in the box of m*excess
    work = 0

    def charge(amount):
        nonlocal work
        work += amount
        check_budget(work, stage="generation check",
                     what=f"generation check: {work} count vectors and "
                     "Minkowski pairs exceed the enumeration cap")

    charge(_box_partition_count(excess, top, d_min))
    ones = _weight_zero_vectors(params, d_min)
    reached, certified = set(ones), set()
    for m in range(1, max_degree + 1):
        if m > 1:
            charge(len(reached) * len(ones))
            reached = {tuple(map(add, a, b)) for a in reached for b in ones}
        if len(reached) == _box_partition_count(excess * m, top, d_min * m):
            certified.add(m)
    return certified


def generation_in_degree_one(params: GrassParams, max_degree: int) -> bool:
    """Certify that lowest-degree invariants generate up to ``max_degree``.

    Regrades the invariant ring so that degree one is the first nonzero
    Plücker degree d_min.  For each m = 1..max_degree the products of m
    degree-one invariants (the g weight-zero Plücker monomials of degree
    d_min, ``_invariant_monomials``) lie in the degree-m*d_min piece, of
    dimension h = h(m*d_min); they generate it exactly when they span h
    dimensions.  The check runs in two stages.

    First, an exact certificate with no randomness and no linear algebra:
    degree m passes when every weight-zero count vector over the weight
    classes of r-subsets, of size m*d_min, is a sum of m such vectors of
    size d_min (``_count_vector_certified``; standard monomial theory).
    Degree one always passes.

    Second, only for the degrees left over, each product is evaluated at h
    seeded random r x n matrices over F_p, p = 2^31 - 1, as the product of
    its minors there (``plucker``), and the rows go into an incremental
    echelon that stops at rank h.  Products with the same merged multiset
    of subsets are the same function and are read once.  The rank over F_p
    is at most the rank over Q, which is at most h, so reaching h
    certifies degree m with no false positive (Schwartz 1980; Zippel
    1979).  A shortfall retries with fresh points, seeded from
    (n, r, s, m, attempt), up to ``_ATTEMPTS`` times, then raises
    ``NotCertifiedError``; the result is True or an exception, never False.

    Budgets, all with stage "generation check": the certificate's vectors
    and Minkowski pairs count against the enumeration cap.  Before the
    degree-one invariants are listed, every left-over degree's work is
    checked against it too: C(g + m - 1, m) products of the g degree-one
    invariants, each reduced against up to h pivot rows by a multiply-add
    over h values.  The closed form of g (``_invariant_monomial_count``)
    makes this check cost no listing.  A left-over degree has m >= 2 and
    h >= 1, so the check also bounds the g invariants listed and the h x h
    evaluation matrix.

    >>> generation_in_degree_one(GrassParams(4, 2, 2), 3)
    True
    """
    if max_degree < 1:
        return True
    d_min = params.d_min
    certified = _count_vector_certified(params, max_degree)
    targets = {m: invariant_hilbert(params, m * d_min)
               for m in range(1, max_degree + 1) if m not in certified}
    if not targets:
        return True
    g = _invariant_monomial_count(params, d_min)
    for m, h in targets.items():
        combos = math.comb(g + m - 1, m)
        check_budget(combos * h * h, stage="generation check",
                     what=f"generation check: {combos} products of {m} of the "
                     f"{g} degree-one invariants, each reduced against "
                     f"up to {h} rows of {h} values, exceed the enumeration cap")
    gens = _invariant_monomials(params, d_min)
    for m, h in targets.items():
        rank = 0
        for attempt in range(_ATTEMPTS):
            rank = max(rank, _product_rank(params, gens, m, h, attempt))
            if rank == h:
                break
        else:
            raise NotCertifiedError(
                f"generation check: degree-{m} products of the degree-one "
                f"invariants of {params} reached rank {rank} of {h} over F_p "
                f"in {_ATTEMPTS} attempts", degree=m, rank=rank, target=h)
    return True


def _product_rank(params: GrassParams, gens, m: int, target: int,
                  attempt: int) -> int:
    """Rank over F_p of the distinct products of m of ``gens``, at most ``target``.

    The products are evaluated at ``target`` random r x n matrices drawn
    from a generator seeded with (n, r, s, m, attempt), and fed to
    ``plucker.echelon_rank`` one at a time, so the products after the one
    that reaches ``target`` are never formed.
    """
    n, r, s = params.n, params.r, params.s
    rng = random.Random(f"{n},{r},{s},{m},{attempt}")
    points = [plucker.random_minors(rng, r, n) for _ in range(target)]
    values = [[math.prod(map(point.__getitem__, gen)) % plucker.PRIME
               for point in points] for gen in gens]

    def rows():
        seen = set()
        for combo in combinations_with_replacement(range(len(gens)), m):
            product = tuple(sorted(chain.from_iterable(gens[i] for i in combo)))
            if product not in seen:
                seen.add(product)
                yield [math.prod(column) % plucker.PRIME
                       for column in zip(*(values[i] for i in combo))]

    return plucker.echelon_rank(rows(), target)
