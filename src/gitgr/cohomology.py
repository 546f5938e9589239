"""Line bundle cohomology on the quotient via its two-factor splitting.

A line bundle on the fibration is a pair (a, b): fiber twist a on the
projectivized matrix space and base twist b on the Grassmannian factor.
Each factor has cohomology in at most one degree (Borel-Weil-Bott on the
base, the classical computation on projective space for the fiber), so the
cohomology of the product sits in the single degree p + q with dimension
the product of the factor dimensions.

The fiber shape and the factor data (which SL factor, which node) come
from ``quotient.fibration``.  Induction-case quotients carry that
fibration, and the explicit matrix model (4, 2, 2) is P^3 with no base;
every other input raises UnsupportedCaseError.
"""

from math import comb

from .params import GrassParams
from .quotient import fibration
from .reps import weyl_dim
from .weyl import inversion_count

__all__ = ["bott_line_bundle", "proj_space_cohomology", "cohomology_on_X",
           "alternating_sum"]


def bott_line_bundle(m: int, weight) -> tuple | None:
    """Cohomology of the SL(m) homogeneous line bundle L(weight) on the flag.

    ``weight`` lists the m-1 coefficients on the fundamental weights,
    arbitrary integers.  Returns (degree, dimension) for the single
    nonvanishing degree, or None when the shifted weight is singular.

    The shifted weight lambda + rho is computed in epsilon coordinates; a
    repeated entry means every cohomology group vanishes, otherwise the
    number of inversions needed to sort it is the degree and the Weyl
    dimension of the sorted weight minus rho is the dimension.

    >>> bott_line_bundle(2, (2,))
    (0, 3)
    >>> bott_line_bundle(2, (-1,)) is None
    True
    """
    weight = tuple(weight)
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if len(weight) != m - 1:
        raise ValueError(f"need {m - 1} fundamental-weight coefficients, got {len(weight)}")
    eps = [sum(weight[i:]) for i in range(m - 1)] + [0]
    shifted = [eps[i] + (m - 1 - i) for i in range(m)]
    if len(set(shifted)) < m:
        return None
    degree = inversion_count(tuple(-x for x in shifted))
    ordered = sorted(shifted, reverse=True)
    dominant = tuple(ordered[i] - (m - 1 - i) for i in range(m))
    floor = dominant[-1]
    return degree, weyl_dim(m, tuple(x - floor for x in dominant))


def proj_space_cohomology(dim: int, a: int) -> tuple | None:
    """Cohomology of O(a) on projective space of the given dimension.

    Nonzero only in degree 0 (a >= 0) or the top degree (a <= -dim-1);
    dimension 0 is allowed and denotes a point, where O(a) is trivial.

    >>> proj_space_cohomology(1, 2)
    (0, 3)
    >>> proj_space_cohomology(3, -2) is None
    True
    >>> proj_space_cohomology(3, -5)
    (3, 4)
    """
    if dim < 0:
        raise ValueError(f"projective space dimension must be >= 0, got {dim}")
    if dim == 0:
        return (0, 1)
    if a >= 0:
        return (0, comb(dim + a, a))
    if a <= -dim - 1:
        return (dim, comb(-a - 1, dim))
    return None


def cohomology_on_X(params: GrassParams, a: int, b: int) -> dict:
    """Cohomology table {degree: dimension} of the (a, b) line bundle.

    The table has at most one entry.  When there is no base, over a point
    (r + s = n) or on the matrix model (4, 2, 2) = P^3, the bundle is O(a)
    on the fiber and b must be zero.  Other inputs outside the induction
    case raise UnsupportedCaseError.

    >>> cohomology_on_X(GrassParams(4, 2, 2), 2, 0)
    {0: 10}
    """
    (u, v), base = fibration(params)
    fiber = proj_space_cohomology(u * v - 1, a)
    if base is None:
        if b != 0:
            raise ValueError(f"{params} has no base factor; b must be 0")
        base_part = (0, 1)
    else:
        coeffs = [0] * (base.factor_rank - 1)
        coeffs[base.index - 1] = b
        base_part = bott_line_bundle(base.factor_rank, coeffs)
    if base_part is None or fiber is None:
        return {}
    return {base_part[0] + fiber[0]: base_part[1] * fiber[1]}


def alternating_sum(table: dict) -> int:
    """Euler characteristic of a cohomology table {degree: dimension}.

    >>> alternating_sum({0: 10, 3: 1})
    9
    """
    return sum(dim if degree % 2 == 0 else -dim for degree, dim in table.items())

