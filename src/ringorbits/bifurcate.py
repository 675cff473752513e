"""Bifurcation points of the circular family and their nondegeneracy.

The circular solution r = r0 with a = a0 carries two linear modes whose
frequencies set where symmetric families branch off: the axial mode with
frequency sqrt((M + n*m)/r0^3) and the radial mode with frequency
sqrt((lam*m + M)/r0^3).  Their ratio

    s = sqrt((lam*m + M)/(n*m + M))

controls everything here.  With q = 1 for the odd family and q = 2 for
the odd/even family (`SymmetryKind.q`), the family branches at
T* = T0/q (T0 is half the axial period), and the branching is
nondegenerate as long as s is not a positive integer multiple of q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SystemParams
from .shoot import SymmetryKind

__all__ = [
    "BifurcationReport",
    "resonance_ratio",
    "degeneracy_margin",
    "bifurcation_point",
    "xi_second_derivative",
]

# |s - round(s)| below this counts as resonant/degenerate.
INTEGER_TOL = 1e-9


def resonance_ratio(params: SystemParams) -> float:
    """Radial-to-axial frequency ratio s of the circular solution."""
    return math.sqrt((params.lam * params.m + params.M) / params.mass_sum)


def degeneracy_margin(s: float, kind: SymmetryKind) -> float:
    """Distance-from-resonance margin |2 sin(pi s/q)|, which vanishes on the
    multiples of q."""
    return abs(2.0 * math.sin(math.pi * s / kind.q))


def _fmt_number(x: float) -> str:
    # above 2**53 an integral float would print as a long numeral: use repr
    if abs(x) < 2**53 and x == int(x):
        return str(int(x))
    return repr(x)


@dataclass(frozen=True)
class BifurcationReport:
    """Seed of a symmetric family on the circular solution.

    T_star is T0/q (T0 for the odd family, T0/2 for the odd/even family);
    theta0 = a0*T_star/r0 is the ring phase accumulated over [0, T_star].
    xi2 is the branch curvature of the phase along the odd family (None
    for odd/even, where no closed form is carried).
    """

    a0: float
    b: float
    T_star: float
    s: float
    nondegenerate: bool
    margin: float
    theta0: float
    T_exact: str
    xi2: float | None = None


def bifurcation_point(params: SystemParams, kind: SymmetryKind = SymmetryKind.ODD) -> BifurcationReport:
    """Closed-form bifurcation data for the requested symmetry kind.

    The seed is degenerate when s lies within INTEGER_TOL of a positive
    integer multiple of q; there the margin vanishes.
    """
    q = kind.q
    a0 = params.a0
    T_star = params.T0 / q
    s = resonance_ratio(params)
    p = round(s)
    degenerate = abs(s - p) < INTEGER_TOL and p >= 1 and p % q == 0
    theta0 = a0 * T_star / params.r0
    # T0 = pi*sqrt(r0^3/(n*m+M)) written with r0 factored out of the root.
    root = f"{_fmt_number(params.r0)}*sqrt({_fmt_number(params.r0)}/{_fmt_number(params.mass_sum)})*pi"
    T_exact = root if q == 1 else f"(1/{q})*{root}"
    xi2 = None
    if kind is SymmetryKind.ODD:
        try:
            xi2 = xi_second_derivative(params)
        except ValueError:
            xi2 = None
    return BifurcationReport(
        a0=a0,
        b=0.0,
        T_star=T_star,
        s=s,
        nondegenerate=not degenerate,
        margin=degeneracy_margin(s, kind),
        theta0=theta0,
        T_exact=T_exact,
        xi2=xi2,
    )


def xi_second_derivative(params: SystemParams) -> float:
    """Second derivative of the ring phase along the odd family at its seed.

    Evaluates the closed-form curvature (A + B*R)*R^2 with
    R = 2*sin(pi*s), transcribed term for term; see the A and B
    expressions below.  Raises ValueError when the value cannot be formed
    in floating point, as when a denominator factor vanishes (which
    requires lam >= 4n and so cannot happen for any practical body count).
    """
    n, m, M, r0 = params.n, params.m, params.M, params.r0
    lam = params.lam
    denom_factor = lam * m - 3.0 * M - 4.0 * m * n
    try:
        sq = math.sqrt((lam * m + M) / r0**3)
        R = 2.0 * math.sin(math.pi * resonance_ratio(params))
        A = (
            3.0
            * r0**2.5
            * math.pi
            * (
                9.0 * (lam * m + M) * (lam * m + 24.0 * M - 4.0 * m * n + 16.0 * M * sq)
                - 8.0 * M * (M + m * n) * (9.0 + 8.0 * sq)
            )
        ) / (16.0 * m**2 * n**2 * (-lam * m + 4.0 * m * n + 3.0 * M) * math.sqrt(lam * m + M))
        B = (9.0 * M * r0**2.5 * (M + m * n) ** 2.5 * (3.0 + 2.0 * sq)) / (
            m**2 * n**2 * (lam * m + M) * denom_factor**2
        )
        xi2 = (A + B * R) * R * R
    except (OverflowError, ZeroDivisionError):
        xi2 = math.nan
    if not math.isfinite(xi2):
        raise ValueError(f"curvature cannot be formed in floating point for {params.to_dict()}")
    return xi2
