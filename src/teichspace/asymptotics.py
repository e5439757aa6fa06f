"""Asymptotic comparison constants for cusped and bordered surfaces.

Collects the closed-form constants used when comparing a bordered hyperbolic
surface with its cusped counterpart: the conformal radius of a horocyclic
cusp neighbourhood, the distortion constant for truncating cusps, the
quasiconformal dilation of the pants straightening map, the additive bounds
appearing in the extremal-length comparison, and the length-contraction
factor of the infinite Nielsen extension.
"""

from __future__ import annotations

import math
import sys

from .pants_trig import DomainError

# Truncation distortion is max((1 - 2 n pi sqrt(2) e^(1/4))^-2,
#                              1 + sqrt(32 pi exp(2 pi)) e^(1/4)).
# The derivation uses an intermediate factor (1 - n sqrt(2) e^(1/4)); the
# final squared constant with the extra 2 pi is the one implemented here.
_TRUNCATION_COEFF = math.sqrt(32.0 * math.pi * math.exp(2.0 * math.pi))
# Bound on the truncated tail of the infinite Nielsen product.
_NIELSEN_TOL = 1e-12


def cusp_radius(eps: float) -> float:
    """Euclidean radius ``exp(-2 pi / eps)`` of the punctured-disc model
    of the cusp neighbourhood bounded by a horocycle of length ``eps``.

    Valid for horocycle lengths in ``(0, 1]``; strictly increasing.
    """
    if not (0.0 < eps <= 1.0):
        raise DomainError(f"horocycle length must lie in (0, 1], got {eps!r}")
    return math.exp(-2.0 * math.pi / eps)


def cusp_truncation_constant(eps: float, n: int) -> float:
    """Distortion bound for extremal lengths under truncating ``n`` cusps
    along horocycles of length ``eps``.

    Only defined while ``1 - 2 n pi sqrt(2) eps^(1/4) > 0``; outside that
    range the underlying estimate is vacuous and a :class:`DomainError`
    is raised.  Tends to 1 as ``eps`` tends to 0 and is decreasing in
    ``eps`` on its whole domain.
    """
    if n < 1:
        raise DomainError(f"cusp count must be at least 1, got {n!r}")
    if not (eps > 0.0):
        raise DomainError(f"horocycle length must be positive, got {eps!r}")
    root = eps ** 0.25
    margin = 1.0 - 2.0 * n * math.pi * math.sqrt(2.0) * root
    if margin <= 0.0:
        raise DomainError(
            f"eps too large for the truncation constant: need "
            f"1 - 2*n*pi*sqrt(2)*eps^(1/4) > 0, got {margin!r} at eps={eps!r}, n={n}")
    return max(margin ** -2, 1.0 + _TRUNCATION_COEFF * root)


def bmms_dilation(eps) -> float:
    """Quasiconformal dilation bound ``prod_j (1 + 2 eps_j^2)`` for
    straightening pants boundaries of lengths ``eps_j`` into cusps.

    ``eps`` may be any iterable.  Each entry must lie in ``(0, 1/2)``; the
    empty product is 1.  Once the product leaves double range a
    :class:`DomainError` naming the factor count is raised.
    """
    total = 1.0
    for count, e in enumerate(eps, 1):
        e = float(e)
        if not (0.0 < e < 0.5):
            raise DomainError(f"boundary lengths must lie in (0, 1/2), got {e!r}")
        total *= 1.0 + 2.0 * e * e
        if total == math.inf:
            raise DomainError(
                f"bmms_dilation leaves double range after {count} factors")
    return total


def comparison_bounds(n: int) -> dict:
    """Additive and multiplicative constants for ``n`` boundary components:
    the extremal-ratio defect ``log(n+2)``, the coordinatewise comparison
    bound ``log(n+3)``, and the lamination-splitting factor ``(n+1)^2``.
    """
    if n < 1:
        raise DomainError(f"boundary count must be at least 1, got {n!r}")
    return {
        "sup_defect": math.log(n + 2),
        "coordinate_bound": math.log(n + 3),
        "split_factor": float((n + 1) ** 2),
    }


def _nielsen_factor(lam: float, i: int) -> float:
    # 1 - (2/pi) atan(y) = (2/pi) atan(1/y) for y > 0; the first form
    # cancels for large y, the second divides by zero once y underflows.
    y = 2.0 * math.sinh(lam / 2.0 ** i)
    if y <= 1.0:
        return 1.0 - (2.0 / math.pi) * math.atan(y)
    return (2.0 / math.pi) * math.atan(1.0 / y)


def nielsen_truncation_index(lam: float) -> int:
    """Smallest truncation index whose tail error provably stays below
    ``_NIELSEN_TOL``.

    With ``a_i = (2/pi) atan(2 sinh(lam / 2^i))`` the tail product beyond
    index ``m`` satisfies ``1 >= prod_{i>m} (1 - a_i) >= 1 - sum_{i>m} a_i``.
    For ``2^i >= lam`` convexity gives ``sinh(lam/2^i) <= sinh(1) lam/2^i``,
    and ``atan(x) <= x``, so ``sum_{i>m} a_i <= (4 sinh(1)/pi) lam 2^-m``.
    The returned index makes that geometric tail smaller than
    ``_NIELSEN_TOL``.
    """
    if lam == 0.0:
        return 1
    m = max(1, math.ceil(math.log2(max(lam, 1.0))))
    bound = 4.0 * math.sinh(1.0) / math.pi * lam
    while bound * 2.0 ** -m >= _NIELSEN_TOL:
        m += 1
    return m


def nielsen_k_infinity(lam: float) -> float:
    """Length-contraction factor of the infinite Nielsen extension.

    Evaluates ``prod_{i>=1} (1 - (2/pi) atan(2 sinh(lam / 2^i)))`` truncated
    at :func:`nielsen_truncation_index`, whose tail bound keeps the result
    within ``_NIELSEN_TOL`` of the full product.  Every factor lies in
    ``(0, 1]`` because ``atan < pi/2``, so the product is well defined for all
    ``lam >= 0`` and equals 1 at ``lam = 0``.  A factor whose argument
    ``y`` exceeds 1 is evaluated as ``(2/pi) atan(1/y)``, which does not
    cancel.  The product is about ``exp(-lam)`` for large ``lam``; from
    about ``lam = 704`` it leaves the normal double range and a
    :class:`DomainError` naming ``lam`` is raised.

    The factor argument is read as ``2 sinh(lam / 2^i)``, the halving
    applied to the length before the sinh, not as ``(2 sinh lam) / 2^i``.

    On the infinite Nielsen extension of a surface with boundary lengths
    at most ``lam``, a closed geodesic of length ``l`` has length in
    ``(k_inf * l, l)``.  Boundary-parallel classes collapse to length 0 on
    the extension and are not covered by this bracket.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise DomainError(f"boundary length must be nonnegative, got {lam!r}")
    if lam == 0.0:
        return 1.0
    m = nielsen_truncation_index(lam)
    try:
        product = math.prod(_nielsen_factor(lam, i) for i in range(1, m + 1))
    except OverflowError:
        product = 0.0
    if product < sys.float_info.min:
        raise DomainError(
            f"nielsen_k_infinity({lam!r}) leaves the normal double range")
    return product
