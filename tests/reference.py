"""Scalar references of the array layer: the leaf type GeodesicH2 and
the pairwise linking test the stacked leaf routines are checked
against, and helpers between them and a LeafSet."""

import numpy as np

from lorentz21.laminations import LeafSet
from lorentz21.minkowski import RP1Point, geodesic_normal, inner


class GeodesicH2:
    """Complete geodesic of H^2 given by two distinct ideal endpoints."""

    def __init__(self, end1, end2):
        if not isinstance(end1, RP1Point):
            end1 = RP1Point(end1)
        if not isinstance(end2, RP1Point):
            end2 = RP1Point(end2)
        if end1.dist(end2) < 1e-12:
            raise ValueError("endpoints coincide")
        self.end1 = end1
        self.end2 = end2
        self.normal = geodesic_normal(end1, end2)

    def side(self, p):
        """Signed incidence <n, p> of a hyperboloid point."""
        return float(inner(self.normal, p))

    def key(self, ndigits=9):
        return tuple(sorted((round(self.end1.theta, ndigits) % 1.0,
                             round(self.end2.theta, ndigits) % 1.0)))

    def apply(self, m):
        return GeodesicH2(self.end1.apply(m), self.end2.apply(m))

    def __repr__(self):
        return "GeodesicH2(%.6f, %.6f)" % (self.end1.theta, self.end2.theta)


def endpoints_linked(g1, g2, tol=1e-9):
    """True iff the endpoint pairs strictly interleave on the circle."""
    a, b = g1.end1.theta, g1.end2.theta
    xs = []
    for t in (g2.end1.theta, g2.end2.theta):
        u = (t - a) % 1.0
        span = (b - a) % 1.0
        if min(u, abs(u - span), 1.0 - u) < tol:
            return False  # shared endpoint: tangential, not linked
        xs.append(u < span)
    return xs[0] != xs[1]


def leaves_of(pairs):
    """The LeafSet of (GeodesicH2, weight) pairs, in order."""
    return LeafSet.from_ends(np.array([g.end1.v for g, _ in pairs]).reshape(-1, 2),
                             np.array([g.end2.v for g, _ in pairs]).reshape(-1, 2),
                             [w for _, w in pairs])


def geodesic(leaves, i):
    """Row i of a LeafSet as a GeodesicH2 with the same end vectors."""
    return GeodesicH2(RP1Point.normalized(leaves.end1[i]), RP1Point.normalized(leaves.end2[i]))
