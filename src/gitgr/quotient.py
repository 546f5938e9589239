"""Structural description of the quotient of the semistable Grassmannian.

When p = 0, or p = r + s - n with r + s >= n, the semistable locus is the
saturation of the minimal Schubert cell under the Levi factor
H = SL(s) x SL(n-s) and the quotient X is a P(M_{u x v}) bundle over a
Grassmannian of one H-factor, or over a point when r + s = n.
``fibration`` is the one place that decides the matrix shape (u, v) and
the base, the explicit matrix model (4, 2, 2) = P(M_{2 x 2}) included;
the orbits, the Picard rank, sections, the descended bundle and
cohomology all read it.  ``report`` builds the ``quotient`` entry that
``analyze`` prints from one ``fibration`` result.  Outside the induction
case only the case-independent fields are filled; the two small
quotients with explicit models, (3,2,2) and (4,2,2), additionally carry
their known identifications.
"""

from dataclasses import dataclass

from . import semistability
from .errors import UnsupportedCaseError
from .params import GrassParams

__all__ = [
    "detect_induction_case", "BaseFibration", "fibration",
    "orbit_stratification", "picard_rank", "report", "EXPLICIT_MODELS",
]


#: Small quotients known exactly: projective space and bundle degree.
#: (4, 2, 2) is the bare matrix space P(M_{2 x 2}) = P^3 (``fibration``).
EXPLICIT_MODELS = {(3, 2, 2): ("P^1", 2), (4, 2, 2): ("P^3", 1)}


def detect_induction_case(params: GrassParams) -> bool:
    """Whether the quotient is a parabolic induction over one H-factor.

    Holds iff p = 0, or p = r + s - n with r + s >= n; equivalently the
    reflection s_s does not occur below the complementary factor w~.

    >>> detect_induction_case(GrassParams(5, 2, 2))
    True
    >>> detect_induction_case(GrassParams(4, 2, 2))
    False
    """
    p = params.p
    return p == 0 or (params.r + params.s >= params.n
                      and p == params.r + params.s - params.n)


def _outside(params: GrassParams) -> UnsupportedCaseError:
    return UnsupportedCaseError(
        f"{params} is outside the induction case "
        f"(p={params.p}, r+s-n={params.r + params.s - params.n})")


@dataclass(frozen=True)
class BaseFibration:
    """Base of the fibration: the Grassmannian G(index, factor_rank) of
    one SL factor, crossed at node ``index`` of that factor."""
    factor: str        # "SL(s)" or "SL(n-s)"
    factor_rank: int   # the m of SL(m)
    index: int

    @property
    def dim(self) -> int:
        return self.index * (self.factor_rank - self.index)


def fibration(params: GrassParams) -> tuple:
    """((u, v), base) of X as a P(M_{u x v}) bundle over ``base``.

    In the induction case (u, v) = (s - p, r - p).  At r + s = n the
    stabilizer is the whole Levi factor and ``base`` is None: X is the
    fiber.  Otherwise the ambient stabilizer node k is node p of SL(s)
    when p > 0 (there k = r + s - n = p), and node r of SL(n - s) when
    p = 0 (there k = r + s); the base is the Grassmannian G(index, m) of
    that factor SL(m).  The explicit matrix model (4, 2, 2) is
    P(M_{2 x 2}) = P^3 with no base either.  Other inputs outside the
    induction case raise UnsupportedCaseError.

    >>> fibration(GrassParams(5, 2, 2))
    ((2, 2), BaseFibration(factor='SL(n-s)', factor_rank=3, index=2))
    >>> shape, base = fibration(GrassParams(5, 3, 4))
    >>> shape, base.factor, base.dim
    ((2, 1), 'SL(s)', 4)
    >>> fibration(GrassParams(4, 1, 3)), fibration(GrassParams(4, 2, 2))
    (((3, 1), None), ((2, 2), None))
    """
    n, r, s, p = params.n, params.r, params.s, params.p
    if (n, r, s) == (4, 2, 2):
        return (2, 2), None
    if not detect_induction_case(params):
        raise _outside(params)
    if params.boundary:
        return params.fiber_shape, None
    factor, rank, index = ("SL(s)", s, p) if p > 0 else ("SL(n-s)", n - s, r)
    return params.fiber_shape, BaseFibration(factor, rank, index)


def _strata(shape, base) -> list:
    u, v = shape
    base_dim = 0 if base is None else base.dim
    out = []
    for t in range(1, min(u, v) + 1):
        dim = base_dim + t * (u + v - t) - 1
        out.append((t, dim, dim))
    return out


def _picard(shape, base) -> int:
    u, v = shape
    return (base is not None) + (u * v > 1)


def orbit_stratification(params: GrassParams) -> list:
    """Strata (t, orbit_dim, closure_dim) of the Levi action, t ascending.

    With (u, v) the fiber shape, there are min(u, v) orbits, classified by
    matrix rank t on the fiber; the stratum of rank at most t has fiber
    dimension t(u + v - t) - 1, and each orbit is dense in its closure.
    Inputs outside the induction case, (4, 2, 2) included, raise
    UnsupportedCaseError.

    >>> orbit_stratification(GrassParams(5, 2, 2))
    [(1, 4, 4), (2, 5, 5)]
    """
    if not detect_induction_case(params):
        raise _outside(params)
    return _strata(*fibration(params))


def picard_rank(params: GrassParams) -> int:
    """Rank of the Picard group of X.

    X is a P(M_{u x v}) bundle over a base (``fibration``), so the base
    (when there is one) and the fiber (when u*v > 1) each add one; a point
    X, such as (2, 1, 1), has rank 0, and the matrix model (4, 2, 2) = P^3
    has rank 1.  Other inputs outside the induction case raise
    UnsupportedCaseError.

    >>> picard_rank(GrassParams(5, 1, 1))  # P^3
    1
    >>> picard_rank(GrassParams(3, 2, 2))  # P^1: the fiber is a point
    1
    >>> picard_rank(GrassParams(5, 2, 2))
    2
    """
    return _picard(*fibration(params))


def report(params: GrassParams) -> dict:
    """The ``quotient`` entry of ``analyze``: every structural invariant.

    Induction-case inputs get the full base, orbit, Picard, Fano and
    automorphism data; others get a partial entry, upgraded with golden
    data for the two explicitly known small quotients.  Wherever X has a
    model the fiber shape is the one ``fibration`` builds it on, so
    (4, 2, 2) reports the 2 x 2 matrix space of P^3.  Over a point base the
    ``base`` entry is marked ``point`` with dimension 0 and no factor.

    >>> report(GrassParams(5, 2, 2))["base"]
    {'point': False, 'factor': 'SL(n-s)', 'grassmannian': [2, 3], 'dim': 2, 'ambient_index': 4}
    """
    n, r, s = params.n, params.r, params.s
    induction = detect_induction_case(params)
    explicit = EXPLICIT_MODELS.get((n, r, s))
    modelled = induction or explicit is not None
    shape, base = fibration(params) if modelled else (params.fiber_shape, None)
    u, v = shape
    strata = _strata(shape, base) if induction else None
    point = base is None
    return {
        "induction_case": induction,
        "fiber_dims": [u, v],
        "dim_X": r * (n - r) - 1,
        "ss_eq_stable": semistability.ss_equals_stable(params),
        "wonderful": induction and u == 2 and v == 2,
        "base": {"point": point,
                 "factor": None if point else base.factor,
                 "grassmannian": None if point else [base.index, base.factor_rank],
                 "dim": 0 if point else base.dim,
                 "ambient_index": params.k} if induction else None,
        "orbit_count": min(u, v) if induction else None,
        "orbit_dims": [dim for _, dim, _ in strata] if induction else None,
        "strata": [list(row) for row in strata] if induction else None,
        "picard_rank": _picard(shape, base) if modelled else None,
        "fano": True if modelled else None,
        "aut0": f"PSL({s}) x PSL({n - s})" if induction else None,
        "explicit_model": list(explicit) if explicit else None,
    }
