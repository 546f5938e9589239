"""Structural description of the quotient of the semistable Grassmannian.

When p = 0, or p = r + s - n with r + s >= n, the semistable locus is the
saturation of the minimal Schubert cell under the Levi factor
H = SL(s) x SL(n-s) and the quotient X fibers over a single Grassmannian
of one H-factor with projectivized-matrix fibers.  This module detects
that situation, resolves which factor carries the stabilizer parabolic,
and assembles the orbit, Picard, Fano and automorphism data into one
report.  ``fibration`` is the one place that says on which matrix shape
X is built and over which base, the explicit matrix model included;
sections, the descended bundle, cohomology and the Picard rank read it.
Outside the induction case only the case-independent fields are filled;
the two small quotients with explicit models, (3,2,2) and (4,2,2),
additionally carry their known identifications.
"""

from dataclasses import dataclass
from typing import NamedTuple

from . import semistability, weyl
from .errors import UnsupportedCaseError
from .params import GrassParams

__all__ = [
    "detect_induction_case", "BaseFibration", "base_fibration", "fibration",
    "orbit_stratification", "picard_rank",
    "QuotientReport", "report", "ExplicitModel", "EXPLICIT_MODELS",
]


class ExplicitModel(NamedTuple):
    """A quotient known exactly: projective space ``space`` with bundle
    degree ``degree``.  When that space is the projectivized u x v matrix
    space with no fibration behind it, ``matrix_shape`` is (u, v) and the
    sections follow the Cauchy decomposition."""
    space: str
    degree: int
    matrix_shape: tuple | None = None


#: Small quotients whose models are known exactly, with or without the
#: fibration structure of the induction case behind them.
EXPLICIT_MODELS = {(3, 2, 2): ExplicitModel("P^1", 2),
                   (4, 2, 2): ExplicitModel("P^3", 1, matrix_shape=(2, 2))}


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


@dataclass(frozen=True)
class BaseFibration:
    """Base of the fibration: a Grassmannian of one SL factor, or a point."""
    point: bool
    factor: str | None          # "SL(s)" or "SL(n-s)"
    factor_rank: int | None     # the m of SL(m)
    index: int | None           # crossed node inside the factor
    dim: int
    ambient_index: int | None   # the same node as a root index of SL(n)

    @property
    def grassmannian(self) -> tuple | None:
        if self.point:
            return None
        return (self.index, self.factor_rank)


def base_fibration(params: GrassParams) -> BaseFibration:
    """Base of the fibration of an induction-case quotient.

    At r + s = n the stabilizer is the whole Levi factor and the base is a
    point.  Otherwise the ambient stabilizer node k is node p of SL(s)
    when p > 0 (there k = r + s - n = p), and node r of SL(n - s) when
    p = 0 (there k = r + s); the base is the Grassmannian G(index, m) of
    that factor SL(m).  Inputs outside the induction case raise
    UnsupportedCaseError.

    >>> base_fibration(GrassParams(5, 2, 2)).grassmannian
    (2, 3)
    >>> base_fibration(GrassParams(5, 2, 2)).factor
    'SL(n-s)'
    >>> base = base_fibration(GrassParams(5, 3, 4))
    >>> base.grassmannian, base.factor, base.dim
    ((2, 4), 'SL(s)', 4)
    >>> base_fibration(GrassParams(4, 1, 3)).point
    True
    """
    n, r, s, p = params.n, params.r, params.s, params.p
    if not detect_induction_case(params):
        raise UnsupportedCaseError(
            f"{params} is outside the induction case (p={p}, r+s-n={r + s - n})")
    if params.boundary:
        return BaseFibration(point=True, factor=None, factor_rank=None,
                             index=None, dim=0, ambient_index=None)
    factor, rank, index = ("SL(s)", s, p) if p > 0 else ("SL(n-s)", n - s, r)
    return BaseFibration(point=False, factor=factor, factor_rank=rank,
                         index=index, dim=index * (rank - index),
                         ambient_index=params.k)


def fibration(params: GrassParams) -> tuple:
    """((u, v), base) of X as a P(M_{u x v}) bundle over ``base``.

    ``base`` is the ``BaseFibration`` carrying the twist b, or None when
    there is no base to twist: over a point base, and on the explicit
    matrix model (4, 2, 2), which is P(M_{2,2}) = P^3 with no fibration
    behind it.  Other inputs outside the induction case raise
    UnsupportedCaseError from ``base_fibration``.

    >>> fibration(GrassParams(5, 2, 2))[0], fibration(GrassParams(4, 2, 2))
    ((2, 2), ((2, 2), None))
    """
    model = EXPLICIT_MODELS.get((params.n, params.r, params.s))
    if model is not None and model.matrix_shape is not None:
        return model.matrix_shape, None
    base = base_fibration(params)
    return params.fiber_shape, (None if base.point else base)


def orbit_stratification(params: GrassParams) -> list:
    """Strata (t, orbit_dim, closure_dim) of the Levi action, t ascending.

    With (u, v) = (s-p, r-p) the fiber shape, there are min(u, v) orbits,
    classified by matrix rank t on the fiber; the stratum of rank at most
    t has fiber dimension t(u + v - t) - 1, and each orbit is dense in its
    closure.
    """
    base = base_fibration(params)
    u, v = params.fiber_shape
    out = []
    for t in range(1, min(u, v) + 1):
        dim = base.dim + t * (u + v - t) - 1
        out.append((t, dim, dim))
    return out


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
    (u, v), base = fibration(params)
    return (base is not None) + (u * v > 1)


@dataclass(frozen=True)
class QuotientReport:
    params: GrassParams
    induction_case: bool
    fiber_dims: tuple[int, int]
    dim_X: int
    ss_eq_stable: bool
    wonderful: bool
    base: BaseFibration | None = None
    orbit_count: int | None = None
    orbit_dims: tuple | None = None
    strata: tuple | None = None
    picard: int | None = None
    fano: bool | None = None
    aut0: str | None = None
    explicit_model: tuple | None = None

    def to_dict(self) -> dict:
        base = None
        if self.base is not None:
            base = {
                "point": self.base.point,
                "factor": self.base.factor,
                "grassmannian": list(self.base.grassmannian) if self.base.grassmannian else None,
                "dim": self.base.dim,
                "ambient_index": self.base.ambient_index,
            }
        return {
            "induction_case": self.induction_case,
            "fiber_dims": list(self.fiber_dims),
            "dim_X": self.dim_X,
            "ss_eq_stable": self.ss_eq_stable,
            "wonderful": self.wonderful,
            "base": base,
            "orbit_count": self.orbit_count,
            "orbit_dims": list(self.orbit_dims) if self.orbit_dims is not None else None,
            "strata": [list(row) for row in self.strata] if self.strata is not None else None,
            "picard_rank": self.picard,
            "fano": self.fano,
            "aut0": self.aut0,
            "explicit_model": list(self.explicit_model) if self.explicit_model else None,
        }


def report(params: GrassParams) -> QuotientReport:
    """Assemble every structural invariant of the quotient for one input.

    Induction-case inputs get the full fibration, orbit, Picard, Fano and
    automorphism data; others get a partial report, upgraded with golden
    data for the two explicitly known small quotients.  Wherever X has a
    model the fiber shape is the one ``fibration`` builds it on, so
    (4, 2, 2) reports the 2 x 2 matrix space of P^3.
    """
    n, r, s = params.n, params.r, params.s
    induction = detect_induction_case(params)
    explicit = EXPLICIT_MODELS.get((n, r, s))
    u, v = fibration(params)[0] if induction or explicit else params.fiber_shape
    wonderful = induction and u == 2 and v == 2
    common = dict(
        params=params,
        induction_case=induction,
        fiber_dims=(u, v),
        dim_X=r * (n - r) - 1,
        ss_eq_stable=semistability.ss_equals_stable(params),
        wonderful=wonderful,
        explicit_model=(explicit.space, explicit.degree) if explicit else None,
    )
    if not induction:
        return QuotientReport(
            **common,
            picard=picard_rank(params) if explicit else None,
            fano=True if explicit else None,
        )
    strata = tuple(orbit_stratification(params))
    return QuotientReport(
        **common,
        base=base_fibration(params),
        orbit_count=min(u, v),
        orbit_dims=tuple(dim for _, dim, _ in strata),
        strata=strata,
        picard=picard_rank(params),
        fano=True,
        aut0=f"PSL({s}) x PSL({n - s})",
    )
