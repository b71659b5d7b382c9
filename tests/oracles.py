"""Independent oracles for the torus values, kept beside the tests.

The package computes torus values by the cabling formula over the unknot
(``ajcable.jones.value_window``).  These compute the same values by
another route, the two-step recurrence from colors 0 and 1, with its
inhomogeneous term written out here rather than read from the package.
"""

from ajcable.algebra import IntLaurent1, div_qint_den


def delta_term(p, q, j):
    """The inhomogeneous term of the torus two-step recurrence at index j:
    ``(t^(2u(j+1)+2) + t^(-2u(j+1)+2) - t^(2w(j+1)-2) - t^(-2w(j+1)-2))``
    divided by ``t^2 - t^-2``, with ``u = p + q`` and ``w = q - p``.

    Symmetric under ``j + 1 -> -(j + 1)``, with value 2 at j = -1.
    """
    j1 = j + 1
    u, w = p + q, q - p
    return div_qint_den(IntLaurent1([(2 * u * j1 + 2, 1), (-2 * u * j1 + 2, 1),
                                     (2 * w * j1 - 2, -1), (-2 * w * j1 - 2, -1)]))


def torus_jones_via_step(p, q, n):
    """The (p, q) torus knot's value at color n, by iterating
    ``J(k+2) = t^(-4pq(k+1)) J(k) + t^(-2pq(k+1)) delta(k)`` from
    ``J(0) = 0`` and ``J(1) = 1``; negative colors carry the odd extension."""
    if n == 0:
        return IntLaurent1()
    pq = p * q
    vals = [IntLaurent1(), IntLaurent1.one()]  # colors 0, 1
    for k in range(0, abs(n) - 1):
        vals.append(vals[k].mul_tpow(-4 * pq * (k + 1)) + delta_term(p, q, k).mul_tpow(-2 * pq * (k + 1)))
    value = vals[abs(n)]
    return -value if n < 0 else value
