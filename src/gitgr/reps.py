"""Dimension engines: Weyl formula, Levi branching, Cauchy decomposition.

The graded invariant ring attached to (n, r, s) is measured through the
Levi factor GL_s x GL_{n-s} of the one-parameter subgroup: the branching
rule writes each degree as a sum of products of Weyl dimensions
(``invariant_hilbert``).  Only the summands that do not vanish are
visited, the partitions of the box that also holds the weight-zero count
vectors below (``_class_box``), by one walk down the rows of that box
(``_levi_sum``).  A table of degrees counts each degree's summands once,
against one total checked before any sum (``_hilbert_values``).  Weyl's
formula also sizes the section decompositions.

The projective-normality check asks whether products of lowest-degree
invariants span each degree.  A subset's weight depends only on its class
j = |I meet [1, s]| (``GrassParams.classes``), so a Plücker monomial has
weight zero exactly when its count vector (c_j) lies in S(D), the
weight-zero vectors of size D, and these monomials span the invariants.
A weight-zero monomial of degree m*d_min is a product of m degree-one
invariants exactly when its count vector lies in M_m, the sums of m
vectors of S(d_min): deal out its subsets of each class along the split.
A degree passes with no linear algebra when M_m is all of S(m*d_min).
The others are decided at the highest weights of the Levi factor
L = GL_s x GL_{n-s}.  Degree D of the invariants is the sum of the
summands W_nu over nu in S(D), each once (the rectangle restricts with
Littlewood-Richardson coefficients 0 or 1, Macdonald I.5).  The span I_m
of the products is an L-submodule, since L commutes with the
one-parameter subgroup, and a product of highest-weight vectors is a
nonzero highest-weight vector, so I_m holds every W_nu of M_m.  An
unreached nu lies in I_m when the products of content c(nu), the highest
weight of W_nu, span that weight space, of dimension the Kostka number
K_{(D^r), c(nu)}, since the line of c(nu) in W_nu generates W_nu; and a
generated degree spans every weight space.  So each unreached
summand costs one small block, and the degree is generated exactly when
every block reaches its K.  A block's products are listed column by
column, and each is written in the K standard monomials of content c(nu)
by Garnir relations (``_straighten``; Désarménien, Kung and Rota, Adv.
Math. 27, 1978), which gives it exact integer coordinates.  The rows are
ranked over Q by fraction-free elimination (``_exact_rank``), so a block
short of K proves the degree is not generated, and the check returns
False.  Listing, straightening and elimination are charged to one budget
as they run.  No atom of the weight-zero count vectors has more than
top*d_min subsets (Lambert 1987), so the degrees m <= top decide every
degree, and no higher one is checked; when 2r > n the check runs on the
dual triple (n, n - r, n - s), whose columns are shorter.  The
whole-degree listing that ranked every content block at random points is
the test oracle ``blocked_generation`` (tests/oracles.py).
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice, product
from operator import add

from .errors import InvariantViolationError, running_budget
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
    one-parameter subgroup acts on that summand by n|mu| - rsm, so h(m) is
    the sum of dim_{GL_s} V(mu) * dim_{GL_{n-s}} V(mu^c) over the mu of size
    rsm/n, and zero when rsm/n is not an integer.

    A summand vanishes when mu has more than s nonzero parts or mu^c more
    than n - s, so with low = max(0, r + s - n) and high = min(r, s) the
    survivors are mu = (m^low, nu, 0, ...), nu a partition of
    rsm/n - low*m in the k x m box, k = high - low: the conjugate of the
    box of S(m) (``_class_box``).  Weyl's formula pairs the rows of each
    factor.  Rows of one fixed value pair to 1.  The complement reverses
    nu and complements its parts, so the pairs inside nu give both factors
    Delta(nu) = prod_{a<b} (nu_a - nu_b + b - a), rows counted from a = 0.
    The pairs of nu_a with the fixed rows of both factors give
    (m - nu_a + a + e)_e * (nu_a + k - 1 - a + d)_d over (e + a)! (d + a)!,
    e = |n - r - s| and d = |r - s|; taking e! d! out of each row leaves
    the binomials W(a, nu_a) = C(m - nu_a + a + e, e) * C(nu_a + k - 1 - a + d, d)
    over the reduced denominator prod_{a<k} (e + a)_a (d + a)_a.  The rows m
    against the rows 0 of one factor, an alpha x beta rectangle, low x
    (s - high) in GL_s when r + s >= n and (r - high) x (n - r - s) in
    GL_{n-s} otherwise, give prod_{i<alpha, j<beta} of
    (m + k + i + j + 1)/(k + i + j + 1), which is
    prod_{i<alpha} (m + k + i + beta)_m / (m + k + i)_m.  So

        h(m) = prod_{i<alpha} (m + k + i + beta)_m / (m + k + i)_m
               / prod_{a<k} (e + a)_a (d + a)_a
               * sum over nu of Delta(nu)^2 * prod_a W(a, nu_a),

    with one exact division per degree; a remainder raises
    InvariantViolationError.  With l_a = nu_a + k - 1 - a, W(a, nu_a) is
    g(l_a) (``_row_weights``) and Delta(nu) is prod_{a<b} (l_a - l_b), so
    ``_levi_sum`` sums row by row.  The enumeration budget counts the
    summands, the partitions in the k x m box, each degree's once, and
    checks them before the sum starts; a degree with no summands is 0 and
    charges nothing.  This is the one-degree case of ``_hilbert_values``, which
    charges all the degrees of one command against one total: the table
    of ``gitgr hilbert``, and that of ``gitgr analyze`` with the
    calibration's h(d_min).  So both refuse (8, 4, 2) with 3000 degrees
    at degree 1999, at 1,001,000 summands.

    >>> invariant_hilbert(GrassParams(3, 2, 2), 3)
    3
    >>> invariant_hilbert(GrassParams(4, 2, 2), 2)
    10
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    return _hilbert_values(params, (m,))[0]


def _hilbert_values(params: GrassParams, degrees) -> list:
    """h(m) for each m of ``degrees``, in order, against one budget.

    Each degree's box (``_class_box``) is counted once and charged to one
    running total (``errors.running_budget``) before the first sum; a
    refusal names the degrees charged and the box of the degree that
    crossed the cap.
    Then each surviving box is summed once (``_levi_sum``) and divided
    as in ``invariant_hilbert``.  (8, 4, 2) has m // 2 + 1 summands in
    degree m, so its degrees 0..1999 total 1,001,000, over the default cap.

    >>> _hilbert_values(GrassParams(3, 2, 2), range(7))
    [1, 0, 0, 3, 0, 0, 5]
    """
    n, r, s = params.n, params.r, params.s
    step = params.d_min  # degree m has summands exactly when step divides m
    unit, k = _class_box(params, step)
    charge, boxes = running_budget("Levi branching"), []
    for m in degrees:
        excess = None if m % step else m // step * unit
        if excess is not None:
            charge(_box_partition_count(excess, k, m), lambda: (
                (f"the summands of degrees {boxes[0][0]}..{m}" if boxes
                 else f"the summands of degree {m}")
                + f" (in degree {m}, the partitions of {excess} in the {k} x {m} box)"))
        boxes.append((m, excess))
    values, base = [], None
    for m, excess in boxes:
        if excess is None:
            values.append(0)
            continue
        if base is None:  # the constants of the table, at its first sum
            e, d, low = abs(n - r - s), abs(r - s), params.classes[0]
            alpha, beta = (low, s - low - k) if r + s >= n else (r - low - k, n - r - s)
            base = _product([math.perm(e + a, a) * math.perm(d + a, a) for a in range(k)])
        numerator = _levi_sum(e, d, m, excess, k) * _product(
            [math.perm(m + k + i + beta, m) for i in range(alpha)])
        denominator = base * _product([math.perm(m + k + i, m) for i in range(alpha)])
        value, remainder = divmod(numerator, denominator)
        if remainder:
            raise InvariantViolationError(
                f"Levi branching gave {numerator}/{denominator} for {params}, m={m}")
        values.append(value)
    return values


def _levi_sum(e: int, d: int, m: int, excess: int, k: int) -> int:
    """The sum over nu of Delta(nu)^2 * prod_a W(a, nu_a) in
    ``invariant_hilbert``, over the partitions of ``excess`` in the k x m
    box, already charged.

    One walk down the rows: the prefix l_0 > ... > l_{a-1} in ``shifted``
    shares the sum over its completions, and each l that row a takes
    multiplies its child's sum by g[l] * v^2, v = prod_{b<a} (l_b - l)
    on small ints.  The last two rows are one loop.  The zero rows once
    nothing is left, and more than 4 rows left with one choice, are taken
    together: t equal parts at l = c + t - 1, ..., c give a table entry
    prod_{i<t} g[c + i] * (i!)^2 times the square of prod_b (l_b - c)_t.
    Long products are balanced (``_product``).
    """
    g = _row_weights(e, d, m, k)
    runs = {}  # (c, t) -> prod_{i<t} g[c + i] * (i!)^2, built when first reached
    shifted = []

    def run(c, t):
        # t equal parts at l = c + t - 1, ..., c, against each other and the prefix
        w = runs.get((c, t))
        if w is None:
            w = runs[c, t] = _product([g[c + i] * math.factorial(i) ** 2 for i in range(t)])
        v = _product([math.perm(y - c, t) for y in shifted])
        return w * v * v

    def walk(rows, rem, cap):
        # the rows left hold rem, each part at most cap, the first the largest
        if rem == 0:
            return run(0, rows)
        total = 0
        if rows == 2:
            for x in range(min(rem, cap), -(-rem // 2) - 1, -1):
                l1, l0 = x + 1, rem - x
                v = l1 - l0
                for y in shifted:
                    v *= (y - l1) * (y - l0)
                total += g[l1] * g[l0] * v * v
            return total
        most, least = min(rem, cap), -(-rem // rows)
        t = min(rows, rem - rows * (most - 1)) if most == least else 0
        if t > 4:
            # the next t rows can take only most; shorter runs cost less row by row
            c = most + rows - t
            value = run(c, t)
            shifted.extend(range(c + t - 1, c - 1, -1))
            value *= walk(rows - t, rem - t * most, most)
            del shifted[-t:]
            return value
        for x in range(most, least - 1, -1):
            l = x + rows - 1
            v = 1
            for y in shifted:
                v *= y - l
            shifted.append(l)
            total += g[l] * v * v * walk(rows - 1, rem - x, x)
            shifted.pop()
        return total

    return walk(k, excess, m)


def _row_weights(e: int, d: int, m: int, k: int) -> list:
    """g[l] = C(m + k - 1 - l + e, e) * C(l + d, d) for l < m + k: the
    weight W(a, nu_a) of ``invariant_hilbert`` at l = nu_a + k - 1 - a.

    >>> _row_weights(2, 1, 2, 1)
    [6, 6, 3]
    """
    return [math.comb(m + k - 1 - l + e, e) * math.comb(l + d, d) for l in range(m + k)]


def _product(factors: list) -> int:
    """The product of ``factors``, split in halves while the list is long,
    so that large ints multiply operands of like size.

    >>> _product(list(range(1, 41))) == math.factorial(40)
    True
    """
    if len(factors) <= 16:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def _class_box(params: GrassParams, size: int) -> tuple:
    """(total, top) such that S(size) is the partitions of total in the
    size x top box; total is None when S(size) is empty.

    With low the lowest class and top = len(classes) - 1, ``size``
    subsets have total weight zero exactly when their classes sum to
    size*r*s/n, that is when the parts j - low of the classes above the
    lowest sum to total = size*(r*s/n - low).  The conjugate top x size
    box holds the surviving summands of the Levi branching at degree
    ``size`` (``invariant_hilbert``), so the two have one count.
    """
    low, top = params.classes[0], len(params.classes) - 1
    total, rest = divmod(params.r * params.s * size, params.n)
    return (None if rest else total - low * size), top


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
    ``gitgr analyze`` takes the two steps apart (``_descent_twist``, then
    ``_calibration``), so that h(d_min) joins the budget of its table.

    >>> [(cal.a, cal.b) for cal in map(calibrate_descent, (
    ...     GrassParams(4, 1, 2), GrassParams(5, 2, 2), GrassParams(6, 1, 4)))]
    [(1, 2), (4, 5), (2, 3)]
    """
    return _calibration(params, _descent_twist(params), invariant_hilbert(params, params.d_min))


def _descent_twist(params: GrassParams) -> tuple:
    """The (a, b) of ``calibrate_descent``, before any Hilbert value."""
    (u, v), base = fibration(params)
    step = params.n // params.d_min  # gcd(n, rs)
    a, rest = divmod(u * v, step)
    if rest:
        raise InvariantViolationError(
            f"gcd(n, rs) = {step} does not divide the fiber size {u * v} "
            f"for {params}")
    return a, 0 if base is None else params.d_min


def _calibration(params: GrassParams, twist: tuple, target: int) -> Calibration:
    """The calibration at ``twist``, its sections' total checked against
    ``target``, the value of h(d_min)."""
    (a, b), d_min = twist, params.d_min
    pairs = tuple(decompose_sections(params, a, b))
    total = sum(pair.dim for pair in pairs)
    if total != target:
        raise InvariantViolationError(
            f"sections at (a, b) = ({a}, {b}) total {total}, but "
            f"h({d_min}) = {target} for {params}")
    return Calibration(d_min, a, b, target, pairs)


# --- finite projective-normality check -----------------------------------


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


def _reachable_vectors(params: GrassParams, max_degree: int, charge):
    """Yield (m, M_m, passed) for m = 1..max_degree: the count vectors of
    the products of m degree-one invariants, and whether they are all of
    S(m*d_min).

    M_1 = S(d_min) and M_m = M_(m-1) + S(d_min), as a set.  M_m lies in
    S(m*d_min), so it is all of it when the two have one size, and the
    box count of ``_class_box`` sizes S(m*d_min) without listing it.  The
    vectors of S(d_min) visited and the Minkowski pairs formed are passed
    to ``charge(amount, what)`` before each step, ``what()`` naming them.

    >>> spent = []
    >>> def charge(amount, what):
    ...     spent.append(amount)
    >>> [(len(reached), passed) for _, reached, passed
    ...  in _reachable_vectors(GrassParams(5, 2, 2), 3, charge)]
    [(3, True), (5, True), (7, True)]
    >>> spent
    [3, 9, 15]
    >>> [passed for _, _, passed in _reachable_vectors(GrassParams(4, 2, 2), 3, charge)]
    [True, False, False]
    >>> [list(_reachable_vectors(GrassParams(*triple), 2, charge))[1][2] for triple
    ...  in ((6, 3, 3), (6, 2, 3), (12, 5, 4), (30, 12, 10))]
    [False, False, False, False]
    """
    d_min = params.d_min
    excess, top = _class_box(params, d_min)  # S(m d_min) is in the box of m*excess
    charge(_box_partition_count(excess, top, d_min), lambda: f"the count vectors of S({d_min})")
    ones = _weight_zero_vectors(params, d_min)
    reached = set(ones)
    for m in range(1, max_degree + 1):
        if m > 1:
            charge(len(reached) * len(ones), lambda: f"the Minkowski pairs of M_{m}")
            reached = {tuple(map(add, a, b)) for a in reached for b in ones}
        yield m, reached, len(reached) == _box_partition_count(excess * m, top, d_min * m)


def _kostka(content, rows: int, cols: int) -> int:
    """K_{(cols^rows), content}: the semistandard tableaux of the rows x cols
    rectangle in which i appears content[i] times.

    Such a tableau is a chain of partitions in the box that grows by a
    horizontal strip of content[i] cells at entry i: new row t lies
    between old row t and old row t - 1 (the box width for t = 0), and
    the size fixes the last row.  The first half of ``content`` fills a
    partition lambda, and the second, turned by 180 degrees, a tableau of
    the complement of lambda in the box, so two half-length chains meet at
    their common lambda.  The order of the parts does not matter.

    >>> _kostka((1, 1, 1, 1), 2, 2), _kostka((2, 1, 1), 2, 2), _kostka((3, 1), 2, 2)
    (2, 1, 0)
    """
    def fillings(parts):
        states = {(0,) * rows: 1}
        for part in parts:
            grown = {}
            for shape, count in states.items():
                size, bounds = sum(shape) + part, (cols, *shape)
                for head in product(*map(range, shape[:-1], [t + 1 for t in bounds[:-2]])):
                    last = size - sum(head)
                    if shape[-1] <= last <= bounds[-2]:
                        new = (*head, last)
                        grown[new] = grown.get(new, 0) + count
            states = grown
        return states

    half = len(content) // 2
    back = fillings(content[half:])
    return sum(count * back.get(tuple(cols - t for t in reversed(shape)), 0)
               for shape, count in fillings(content[:half]).items())


def _summand_content(params: GrassParams, vector, degree: int) -> tuple:
    """c(nu): the content of the highest weight of the Levi summand W_nu
    whose weight-zero count vector is ``vector``, in the given degree.

    The vector's partition (``_weight_zero_vectors``) has vector[t] parts
    equal to t; its conjugate nu_t = vector[t] + vector[t + 1] + ..., t >= 1,
    lies in the k x degree box, and the summand is V(mu) x V(mu^c) of
    GL_s x GL_{n-s} with mu = (degree^low, nu) (``invariant_hilbert``).
    Its highest weight, a content of n entries, puts mu on [1, s] and the
    complement (degree - mu_r, ..., degree - mu_1) on [s + 1, n].  The
    product of the subsets [1, j] + [s + 1, s + r - j], one for each
    subset of class j that the vector counts, has this content.

    >>> _summand_content(GrassParams(4, 2, 2), (1, 0, 1), 2)
    (1, 1, 1, 1)
    >>> _summand_content(GrassParams(10, 3, 3), (11, 0, 9, 0), 20)
    (9, 9, 0, 20, 11, 11, 0, 0, 0, 0)
    """
    n, r, s = params.n, params.r, params.s
    low, high = params.classes[0], params.classes[-1]
    nu = [sum(vector[t:]) for t in range(1, len(vector))]
    return tuple([degree] * low + nu + [0] * (s - high)
                 + [degree] * (r - high) + [degree - part for part in reversed(nu)]
                 + [0] * (n - s - r + low))


def _content_products(params: GrassParams, content, reached, step) -> list:
    """The products of degree-one invariants of the given content: the
    Plücker monomials whose count vectors lie in ``reached`` (M_m) and in
    which i lies in content[i - 1] of the subsets, each listed once.

    A monomial of D = sum(content)/r subsets is read as D rows, each an
    r-subset, built one column i = 1..n at a time.  The rows are kept in
    groups of equal prefix, and each group in turn chooses how many of its
    rows take column i: none of a row that is full, all of a row that
    needs every column left, and in all content[i - 1].  Each choice is
    bounded by what the groups after it can still take, so none is a dead
    end within its column.  The rows of a group are alike, so each
    multiset comes out once.  After column s a row's class is its length,
    and a state whose count vector is not in ``reached`` is dropped.  The
    listing is depth first, and ``step(k)`` is called before a group makes
    its k choices, so a budget it charges stops the listing as soon as it
    runs out.

    >>> _content_products(GrassParams(4, 2, 2), (1, 1, 1, 1), {(0, 2, 0)}, print)
    1
    2
    1
    2
    1
    1
    1
    1
    1
    [((1, 4), (2, 3)), ((1, 3), (2, 4))]
    """
    n, r, s = params.n, params.r, params.s
    low = params.classes[0]

    def columns(i, groups):
        """The monomials that grow from ``groups``, the rows after column i - 1."""
        if i > n:
            yield tuple(sorted(chain.from_iterable([prefix] * count
                                                   for prefix, count in groups)))
            return
        full = tuple((prefix, count) for prefix, count in groups if len(prefix) == r)
        groups = [(prefix, count) for prefix, count in groups if len(prefix) < r]
        least = [count if r - len(prefix) > n - i else 0 for prefix, count in groups]

        def place(g, left, floor, ceiling, grown):
            # groups[g:] place ``left`` rows in column i; floor and ceiling
            # are the least and most rows that groups[g:] can place there
            if g == len(groups):
                if i == s:
                    vector = [0] * len(params.classes)
                    for prefix, count in grown:
                        vector[len(prefix) - low] += count
                    if tuple(vector) not in reached:
                        return
                yield from columns(i + 1, grown)
                return
            prefix, count = groups[g]
            floor, ceiling = floor - least[g], ceiling - count
            takes = range(max(least[g], left - ceiling), min(count, left - floor) + 1)
            if takes:
                step(len(takes))
            for take in takes:
                yield from place(g + 1, left - take, floor, ceiling, grown
                                 + ((prefix + (i,), take),) * (take > 0)
                                 + ((prefix, count - take),) * (take < count))
        yield from place(0, content[i - 1], sum(least),
                         sum(count for _, count in groups), full)

    return list(columns(1, (((), sum(content) // r),)))


def generation_in_degree_one(params: GrassParams, max_degree: int) -> bool:
    """Decide whether lowest-degree invariants generate up to ``max_degree``.

    Degree one is the first nonzero Plücker degree d_min, and degree m,
    of degree D = m*d_min in the Plücker ring, is generated when the
    products of m degree-one invariants span it.  They are the monomials
    of M_m (``_reachable_vectors``), so degree one passes, and so does a
    degree whose M_m is all of S(D).

    Only the degrees m <= top = len(classes) - 1 are checked, and they
    decide every higher degree.  Divided by g = gcd(n, rs), the class
    weights n*j - rs lie in [-A, B] with A + B = d_min*top.  A minimal
    zero-sum sequence of such weights has at most A positive and at most
    B negative terms (J.-L. Lambert, Une borne pour les générateurs des
    solutions entières positives d'une équation diophantienne linéaire,
    C. R. Acad. Sci. Paris 305, 1987), and a weight-zero class is an atom
    of size one, so no atom of the monoid of weight-zero count vectors has
    size above d_min*top.  A weight-zero monomial splits into weight-zero
    monomials along any split of its count vector, so every weight-zero
    monomial of degree above top*d_min is a product of weight-zero
    monomials of degree at most top*d_min, and the weight-zero monomials
    span the invariants.  So a ``max_degree`` above top gives the verdict
    and the work of top, and that verdict holds in every degree.

    When 2r > n the dual triple (n, n - r, n - s) is checked instead.
    I -> the reversed complement of I maps r-subsets to (n - r)-subsets
    with the same weight n*j - rs, so the two invariant rings, their
    d_min, top, count vectors and Kostka numbers are the same, and only
    the straightening is cheaper: its columns have height min(r, n - r).
    A refusal then names the dual triple, the one whose products were
    formed.

    The other degrees are decided at the highest weights of the Levi
    factor L = GL_s x GL_{n-s}.  The degree-D invariants are the sum of
    the summands W_nu, one for each count vector nu of S(D), each once
    (``invariant_hilbert``).  L commutes with the one-parameter subgroup,
    so the span I_m of the products is an L-submodule, the sum of the W_nu
    over some set Lambda.  The ring is a domain, so a product of
    highest-weight vectors is a nonzero highest-weight vector whose count
    vector is the sum of theirs: M_m lies in Lambda.  Each unreached
    nu of S(D) minus M_m lies in Lambda exactly when I_m holds the
    highest-weight line of W_nu, which generates W_nu.  That line lies in
    the weight space of content c(nu) (``_summand_content``), of dimension
    K = K_{(D^r), c(nu)} (``_kostka``), so the products of content c(nu)
    (``_content_products``) reaching rank K put nu in Lambda.  A generated
    degree spans every weight space, so a block short of K proves that
    degree m is not generated: the verdict is exact both ways.  Each
    product is written in the K standard monomials of content c(nu)
    (``_straighten``), and the rows are ranked over Q by fraction-free
    elimination (``_exact_rank``).

    The work is one running total against the enumeration cap (stage
    "generation check"), an ``errors.running_budget``: the certificate's
    count vectors and Minkowski pairs; then block by block one unit for
    each choice of its listing as it runs, one for each term that a
    straightening merges, and one for each pivot entry that a reduction
    uses, so no step goes past the cap.

    >>> generation_in_degree_one(GrassParams(4, 2, 2), 3)
    True
    """
    if 2 * params.r > params.n:
        params = params.dual()
    max_degree = min(max_degree, len(params.classes) - 1)
    if max_degree < 1:
        return True
    charge = running_budget("generation check")
    for m, reached, passed in _reachable_vectors(params, max_degree, charge):
        if passed:
            continue
        degree = m * params.d_min
        for vector in _weight_zero_vectors(params, degree):
            if vector in reached:
                continue
            content = _summand_content(params, vector, degree)
            target = _kostka(content, params.r, degree)

            def step(kind, m=m, content=content):
                return lambda amount: charge(amount, lambda: (
                    f"{kind} the degree-{m} products of content {content}"))
            products = _content_products(params, content, reached, step("the choices listing"))
            rows = _straightened_rows(products, target, step("straightening"))
            if _exact_rank(rows, target, step("reducing")) < target:
                return False
    return True


def _garnir(monomial):
    """The Garnir relation that straightens ``monomial`` one step: a dict
    of the monomials it equals, with their coefficients, or None when the
    monomial is standard.

    A monomial is a sorted tuple of r-subsets, the columns of an r x D
    tableau.  It is standard, a semistandard tableau, when each column is
    componentwise at most the next.  Otherwise take the first pair of
    neighbours I, J that is not, and the first row t with I_t > J_t.  The
    r + 1 entries I_t..I_r, J_1..J_t are distinct, and an alternating sum
    over their splits, r - t + 1 of them back into I and the rest into J,
    vanishes, since r + 1 vectors in an r-dimensional space are dependent
    (Fulton, Young Tableaux, 8.1).  Its term for the original split is
    p_I p_J, so p_I p_J is minus the sum of the others, each sign that of
    the split times those that sort its two columns.  Each other term
    moves entries below I_t into I, so its sorted monomial is
    lexicographically smaller and straightening ends.

    >>> _garnir(((1, 4), (2, 3)))
    {((1, 2), (3, 4)): -1, ((1, 3), (2, 4)): 1}
    >>> _garnir(((1, 3), (2, 4))) is None
    True
    """
    found = next(((k, t) for k, (first, second) in enumerate(zip(monomial, monomial[1:]))
                  for t, (a, b) in enumerate(zip(first, second)) if a > b), None)
    if found is None:
        return None
    (k, t), r = found, len(monomial[0])
    first, second = monomial[k:k + 2]
    pool, rest = first[t:] + second[:t + 1], monomial[:k] + monomial[k + 2:]
    terms = {}
    for picked in islice(combinations(range(r + 1), r - t), 1, None):  # the first is p_I p_J
        order = picked + tuple(i for i in range(r + 1) if i not in picked)
        left = first[:t] + tuple(pool[i] for i in order[:r - t])
        right = tuple(pool[i] for i in order[r - t:]) + second[t + 1:]
        if len(set(left)) == r == len(set(right)):
            flips = sum(a > b for seq in (order, left, right) for a, b in combinations(seq, 2))
            term = tuple(sorted(rest + (tuple(sorted(left)), tuple(sorted(right)))))
            terms[term] = terms.get(term, 0) + (flips % 2 * 2 - 1)
    return {term: coefficient for term, coefficient in terms.items() if coefficient}


def _straighten(monomial, memo: dict, step) -> dict:
    """``monomial`` in the standard monomials of its content, a dict of
    their integer coefficients, by ``_garnir`` until every term is
    standard.

    ``memo`` holds the expansions found so far, shared by the products of
    one block.  The monomials still open are kept on a stack with their
    Garnir terms, each found once, and a monomial's expansion is merged
    from its terms' once all of theirs are known, ``step(k)`` called as
    each term's k standard monomials are merged.  Each term is smaller,
    so no monomial is on the stack twice.
    """
    stack = [] if monomial in memo else [(monomial, _garnir(monomial))]
    while stack:
        top, terms = stack[-1]
        if terms is None:
            memo[top] = {top: 1}
            stack.pop()
            continue
        missing = next((term for term in terms if term not in memo), None)
        if missing is not None:
            stack.append((missing, _garnir(missing)))
            continue
        stack.pop()
        merged = {}
        for term, coefficient in terms.items():
            step(len(memo[term]))
            for standard, value in memo[term].items():
                merged[standard] = merged.get(standard, 0) + coefficient * value
        memo[top] = {standard: value for standard, value in merged.items() if value}
    return memo[monomial]


def _straightened_rows(products, target: int, step):
    """Yield each product straightened (``_straighten``), as it is read.

    The products share one memo: they have one content, so their Garnir
    terms meet, and no other block's do.  The standard monomials of one
    content are a basis of its weight space, of dimension ``target``, so
    meeting more of them than that raises InvariantViolationError.
    """
    basis, memo = set(), {}
    for monomial in products:
        row = _straighten(monomial, memo, step)
        basis.update(row)
        if len(basis) > target:
            raise InvariantViolationError(f"{products[0]}, ... meet {len(basis)} > K = {target}")
        yield row


def _exact_rank(rows, target: int, step) -> int:
    """Rank over Q of ``rows``, dicts of integer coefficients read one at
    a time, capped at ``target``.

    Each row is reduced against the pivot rows kept so far, in the order
    they were kept: where it has a nonzero entry f at a pivot's column,
    whose pivot entry is e, it becomes e*row - f*pivot, so it stays
    integral.  ``step(k)`` is called as each reduction uses a pivot row
    of k entries.  A kept pivot row is zero at the columns of the pivots
    before it, so each reduction clears one column for good.  What is
    left is divided by the gcd of its entries and kept as a new pivot at
    its smallest entry, made positive: e = 1 when that entry is the gcd,
    and then a reduction touches only the pivot's entries.  Reading stops
    as soon as the rank reaches ``target``.

    >>> _exact_rank([{1: 2, 2: 4}, {1: 1, 2: 2}, {2: 3}], 2, print)
    2
    2
    >>> _exact_rank([{1: 2, 2: 4}, {1: -1, 2: -2}], 2, print)
    2
    1
    """
    pivots = []  # (column, primitive row with e at that column)
    for row in rows:
        row = dict(row)
        for col, pivot in pivots:
            f = row.get(col)
            if f:
                step(len(pivot))
                e = pivot[col]
                if e != 1:
                    row = {key: e * value for key, value in row.items()}
                for key, value in pivot.items():
                    row[key] = row.get(key, 0) - f * value
        row = {key: value for key, value in row.items() if value}
        if row:
            col = min(row, key=lambda key: abs(row[key]))
            g = math.gcd(*row.values()) * (1 if row[col] > 0 else -1)
            pivots.append((col, {key: value // g for key, value in row.items()}))
            if len(pivots) == target:
                break
    return len(pivots)
