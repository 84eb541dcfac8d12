"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are given in barycentric coordinates with weights summing to
one; integrals follow as area * sum(w_q * g(x_q)).  Edge rules are
Gauss-Legendre points mapped to [0, 1].
"""

import numpy as np

_SQ15 = np.sqrt(15.0)

#: 7-point rule, exact through degree 5 (the workhorse rule)
_A1 = (6.0 - _SQ15) / 21.0
_A2 = (6.0 + _SQ15) / 21.0
TRI5_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [_A1, _A1, 1 - 2 * _A1], [_A1, 1 - 2 * _A1, _A1], [1 - 2 * _A1, _A1, _A1],
     [_A2, _A2, 1 - 2 * _A2], [_A2, 1 - 2 * _A2, _A2], [1 - 2 * _A2, _A2, _A2]])
TRI5_W = np.array([9 / 40,
                   (155 - _SQ15) / 1200, (155 - _SQ15) / 1200, (155 - _SQ15) / 1200,
                   (155 + _SQ15) / 1200, (155 + _SQ15) / 1200, (155 + _SQ15) / 1200])

#: 13-point rule, exact through degree 7 (used by quadrature audits)
_B1 = 0.065130102902216
_B2 = 0.260345966079038
_C1 = 0.638444188569809
_C2 = 0.048690315425316
TRI7_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [_B1, _B1, 1 - 2 * _B1], [_B1, 1 - 2 * _B1, _B1], [1 - 2 * _B1, _B1, _B1],
     [_B2, _B2, 1 - 2 * _B2], [_B2, 1 - 2 * _B2, _B2], [1 - 2 * _B2, _B2, _B2],
     [_C1, _C2, 1 - _C1 - _C2], [_C2, _C1, 1 - _C1 - _C2],
     [_C1, 1 - _C1 - _C2, _C2], [_C2, 1 - _C1 - _C2, _C1],
     [1 - _C1 - _C2, _C1, _C2], [1 - _C1 - _C2, _C2, _C1]])
TRI7_W = np.array([-0.149570044467670,
                   0.053347235608839, 0.053347235608839, 0.053347235608839,
                   0.175615257433204, 0.175615257433204, 0.175615257433204,
                   0.077113760890257, 0.077113760890257, 0.077113760890257,
                   0.077113760890257, 0.077113760890257, 0.077113760890257])


def edge_rule(n: int):
    """Gauss-Legendre points/weights on [0, 1]; weights sum to one."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


EDGE4_X, EDGE4_W = edge_rule(4)


def triangle_points(nodes, bary=TRI5_BARY):
    """The barycentric map: the values at the points of the rule bary
    (Q, 3) of fields linear on each triangle, from their corner values.
    Corner coordinates (E, 3, 2) give the physical points (E, Q, 2), nodal
    values (E, 3) or (E, 3, C) the P1 values (E, Q) or (E, Q, C)."""
    return np.moveaxis(np.tensordot(bary, nodes, axes=(1, 1)), 0, 1)
