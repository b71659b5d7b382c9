"""Closed-form degree predictions for torus and cable invariant values.

Each prediction gives the lowest and/or highest t-exponent of the value at
color n.  A side is only predicted where a closed form is available for
the parameter range at hand; absent sides are reported as ``None`` and
are never extrapolated.  ``audit_degrees`` compares every predicted side
against the exact extreme exponents, read from the numerators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import degree_bounds
from .jones import BadParams, CablingParams, _check_torus, numerator_window


@dataclass(frozen=True)
class DegreePrediction:
    """Predicted extreme t-exponents at one color; ``None`` = no formula."""

    n: int
    lowest: int | None
    highest: int | None

    def sides(self):
        out = {}
        if self.lowest is not None:
            out["lowest"] = self.lowest
        if self.highest is not None:
            out["highest"] = self.highest
        return out


def _even_indicator(k):
    """1 when (-1)^k = -1 (k odd), else 0 -- the parity bumps appear
    scaled by (1 - (-1)^k)/2."""
    return 1 if k % 2 else 0


def _mirror(pred):
    """The prediction for the mirror knot, whose value is J(t^-1): each side
    is the other side negated."""
    flip = lambda e: None if e is None else -e  # noqa: E731
    return DegreePrediction(n=pred.n, lowest=flip(pred.highest), highest=flip(pred.lowest))


def predicted_torus_degrees(p, q, n):
    """Extreme t-exponents of the torus value at color n >= 1.

    Positive knots (p > q) get a quadratic lowest exponent and a linear
    highest one; a negative knot (p < -q) is the mirror of (-p, q).  The
    remaining range |p| <= q has no closed form here.

    >>> predicted_torus_degrees(3, 2, 2)
    DegreePrediction(n=2, lowest=-18, highest=-2)
    >>> predicted_torus_degrees(-5, 3, 3)
    DegreePrediction(n=3, lowest=28, highest=120)
    """
    _check_torus(p, q)
    if n < 1:
        raise BadParams("color must be at least 1")
    if p < 0:
        return _mirror(predicted_torus_degrees(-p, q, n))
    pq = p * q
    bump = _even_indicator(n - 1)  # 1 for even colors
    lowest = -pq * n * n + pq + bump * (p - 2) * (q - 2)
    highest = 2 * (p + q - pq) * n + 2 * (pq - p - q)
    return DegreePrediction(n=n, lowest=lowest, highest=highest)


def predicted_cable_degrees(params, n):
    """Extreme t-exponents of the cable value at color n >= 1.

    Over a positive torus knot (p > q), which sides are available depends
    on where r sits relative to 0 and p*q*s; sides without a formula come
    back as ``None``.  Over a negative one (p < -q) the cable is the mirror
    of the (-r, s)-cable over (-p, q).

    >>> predicted_cable_degrees(CablingParams(3, 2, 13, 2), 2)
    DegreePrediction(n=2, lowest=-78, highest=None)
    >>> predicted_cable_degrees(CablingParams(3, 2, -1, 2), 2)
    DegreePrediction(n=2, lowest=-46, highest=6)
    """
    if n < 1:
        raise BadParams("color must be at least 1")
    p, q, r, s = params.p, params.q, params.r, params.s
    if p < 0:
        return _mirror(predicted_cable_degrees(CablingParams(-p, q, -r, s), n))
    pq = p * q
    rs = r * s
    pqs = pq * s
    bump_n = _even_indicator(n - 1)
    bump_ns = _even_indicator((n - 1) * s)
    lowest = None
    highest = None
    if r < pqs:
        lowest = (
            -pqs * s * n * n
            + (2 * pqs * s - 2 * pqs + 2 * r - 2 * rs) * n
            + 2 * rs
            - 2 * r
            + 2 * pqs
            - pqs * s
            + bump_ns * (p - 2) * (q - 2)
        )
    elif r > pqs:
        lowest = (
            -rs * n * n
            + rs
            + bump_n * (s - 2) * (r - pqs)
            + bump_ns * (p - 2) * (q - 2)
        )
    if r < 0:
        highest = -rs * n * n + rs + bump_n * (s - 2) * (r - 2 * pq + 2 * p + 2 * q)
    return DegreePrediction(n=n, lowest=lowest, highest=highest)


def audit_degrees(params, n_lo=2, n_hi=12, numerators=None):
    """Compare each predicted degree side to the exact value, color by color.

    ``params`` is a :class:`CablingParams` for a cable audit or a plain
    ``(p, q)`` pair for a torus audit.  Returns one row per (color, side).
    An empty color window raises :class:`ValueError`.

    The exact sides come from the numerators ``N(n) = (t^2 - t^-2) J(n)``:
    in the domain ``Z[t^+-1]`` extreme exponents add, so ``lowest(J) =
    lowest(N) + 2`` and ``highest(J) = highest(N) - 2``.  ``numerators``
    maps every color of the window to its numerator, as
    :func:`~ajcable.aj.verify_tuple` fills it; by default they are built
    here by :func:`~ajcable.jones.numerator_window`.
    """
    if n_hi < n_lo:
        raise ValueError(f"empty color window [{n_lo}, {n_hi}]")
    if n_lo < 1:
        raise BadParams("color must be at least 1")
    rows = []
    if isinstance(params, CablingParams):
        label = params.as_dict()
        predict = lambda n: predicted_cable_degrees(params, n)  # noqa: E731
    else:
        p, q = params
        label = {"p": p, "q": q}
        predict = lambda n: predicted_torus_degrees(p, q, n)  # noqa: E731
    if numerators is None:
        numerators = numerator_window(params, n_lo, n_hi)
    for n in range(n_lo, n_hi + 1):
        pred = predict(n)
        lo, hi = degree_bounds(numerators[n])
        actual = {"lowest": lo + 2, "highest": hi - 2}
        for side, predicted in pred.sides().items():
            rows.append(
                {
                    "params": label,
                    "n": n,
                    "side": side,
                    "predicted": predicted,
                    "actual": actual[side],
                    "match": predicted == actual[side],
                }
            )
    return rows
