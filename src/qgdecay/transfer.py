"""2x2 transfer-matrix algebra for propagating (cosh, sinh) coefficients.

A step matrix maps the coefficient pair (A, B) of psi = A cosh(kx) + B sinh(kx)
on one edge to the pair on the next edge across a vertex, encoding continuity
of psi and the derivative-fraction split at the vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ComplexSpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class TransferMatrix:
    t11: float
    t12: float
    t21: float
    t22: float

    def det(self) -> float:
        return self.t11 * self.t22 - self.t12 * self.t21

    def trace(self) -> float:
        return self.t11 + self.t22

    def norm(self) -> float:
        return math.sqrt(
            self.t11**2 + self.t12**2 + self.t21**2 + self.t22**2
        )

    def apply(self, vec: tuple[float, float]) -> tuple[float, float]:
        a, b = vec
        return (self.t11 * a + self.t12 * b, self.t21 * a + self.t22 * b)

    def matmul(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.t11 * other.t11 + self.t12 * other.t21,
            self.t11 * other.t12 + self.t12 * other.t22,
            self.t21 * other.t11 + self.t22 * other.t21,
            self.t21 * other.t12 + self.t22 * other.t22,
        )


@dataclass(frozen=True)
class EigenPair2:
    """Real eigendecomposition of a 2x2 matrix, smaller eigenvalue first.

    Eigenvectors are normalized to (1, w) whenever the first component can be
    1; otherwise to (w, 1).
    """

    lam_small: float
    lam_large: float
    vec_small: tuple[float, float]
    vec_large: tuple[float, float]


def vertex_edge_transfer(kl: float, p: float) -> TransferMatrix:
    """Step across one edge of scaled length kL, then a vertex passing the
    derivative fraction p onward: [[cosh kL, sinh kL], [p sinh kL, p cosh kL]].

    det = p exactly.
    """
    if kl < 0:
        raise ValueError("kL must be >= 0")
    if not (0.0 < p <= 1.0):
        raise ValueError("derivative fraction p must be in (0, 1]")
    return vertex_edge_step(kl, p)


def vertex_edge_step(kl: float, p: float) -> TransferMatrix:
    """``vertex_edge_transfer`` without its checks: it also admits p > 1,
    where a braided generation narrows (a_j > b_j)."""
    c, s = math.cosh(kl), math.sinh(kl)
    return TransferMatrix(c, s, p * s, p * c)


def millipede_transfer(delta: float) -> TransferMatrix:
    """Body step across one spacing-2 segment plus a leg draining derivative
    at rate delta: [[cosh 2, sinh 2], [sinh 2 + d cosh 2, cosh 2 + d sinh 2]].

    det = 1 for every delta (the delta terms cancel).
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    c, s = math.cosh(2.0), math.sinh(2.0)
    return TransferMatrix(c, s, s + delta * c, c + delta * s)


def ladder_antisym_transfer(w: float) -> TransferMatrix:
    """Rail step of the odd (rail-swapping) ladder mode with rung length w:
    [[cosh 1, sinh 1], [sinh 1 + cosh 1 coth(w/2), cosh 1 + sinh 1 coth(w/2)]].

    det = 1 and trace = 2 cosh 1 + gamma with gamma = coth(w/2) sinh 1.
    As w -> 0 the contracting eigenvalue vanishes linearly:
    lambda_small = w / (2 sinh 1 + 2 w cosh 1) + O(w^3).
    """
    if w <= 0:
        raise ValueError("rung length w must be > 0")
    c, s = math.cosh(1.0), math.sinh(1.0)
    coth = 1.0 / math.tanh(w / 2.0)
    return TransferMatrix(c, s, s + c * coth, c + s * coth)


def _eigvec(t: TransferMatrix, lam: float) -> tuple[float, float]:
    scale = t.norm()
    tiny = 1e-14 * max(scale, 1.0)
    if abs(t.t12) > tiny:
        return (1.0, (lam - t.t11) / t.t12)
    if abs(t.t21) > tiny:
        return ((lam - t.t22) / t.t21, 1.0)
    # diagonal: pick the axis matching the eigenvalue
    if abs(t.t11 - lam) <= abs(t.t22 - lam):
        return (1.0, 0.0)
    return (0.0, 1.0)


def eig2(t: TransferMatrix) -> EigenPair2:
    """Closed-form real eigendecomposition.

    The larger-magnitude root is computed first from the quadratic formula and
    the other recovered as det/root, avoiding cancellation when tr^2 >> 4 det.
    """
    tr, det = t.trace(), t.det()
    disc = tr * tr - 4.0 * det
    if disc < 0:
        raise ComplexSpectrumError(
            f"complex spectrum: discriminant tr^2 - 4 det = {disc} < 0"
        )
    sq = math.sqrt(disc)
    if tr >= 0:
        big = (tr + sq) / 2.0
    else:
        big = (tr - sq) / 2.0
    other = det / big if big != 0.0 else (tr - math.copysign(sq, tr)) / 2.0
    lam_small, lam_large = sorted((big, other))
    return EigenPair2(
        lam_small,
        lam_large,
        _eigvec(t, lam_small),
        _eigvec(t, lam_large),
    )


@dataclass(frozen=True)
class SharedEigenvectorMatch:
    """Solution of the two-lengths matching problem: the derivative fraction
    p1 for which the step matrices of the two edge types share the eigenvector
    (1, w) of their smaller eigenvalues lam and mu."""

    p1: float
    w: float
    lam: float
    mu: float


def _lam_small_reciprocal(c: float, p: float) -> float:
    # smaller root of x^2 - (1+p) c x + p in the cancellation-free form
    B = (1.0 + p) * c
    return 2.0 * p / (B + math.sqrt(B * B - 4.0 * p))


def match_shared_eigenvector(
    kl1: float, kl2: float, tol: float = 1e-12, max_iter: int = 200
) -> SharedEigenvectorMatch:
    """Find p1 in (0, 1) equating the eigenvector slopes of the two steps:

        (lam(p1) - c1)/s1 = (mu(1-p1) - c2)/s2

    with lam, mu the smaller eigenvalues of the (kL1, p1) and (kL2, 1-p1)
    steps.  At p1 = 0 the left side is -c1/s1 < -1 while the right side is -1,
    and symmetrically at p1 = 1, so bisection on [0, 1] always brackets a root.
    """
    if kl1 <= 0 or kl2 <= 0:
        raise ValueError("kL1 and kL2 must be > 0")
    c1, s1 = math.cosh(kl1), math.sinh(kl1)
    c2, s2 = math.cosh(kl2), math.sinh(kl2)

    def gap(p: float) -> float:
        lhs = (_lam_small_reciprocal(c1, p) - c1) / s1
        rhs = (_lam_small_reciprocal(c2, 1.0 - p) - c2) / s2
        return lhs - rhs

    lo, hi = 0.0, 1.0
    glo, ghi = gap(lo), gap(hi)
    if not (glo < 0.0 < ghi):
        raise ValueError(
            f"bracket sign check failed: gap(0)={glo}, gap(1)={ghi}"
        )
    p1 = 0.5
    for _ in range(max_iter):
        p1 = 0.5 * (lo + hi)
        g = gap(p1)
        if g == 0.0:
            break
        if g < 0.0:
            lo = p1
        else:
            hi = p1
        if hi - lo <= tol:
            p1 = 0.5 * (lo + hi)
            break
    lam = _lam_small_reciprocal(c1, p1)
    mu = _lam_small_reciprocal(c2, 1.0 - p1)
    return SharedEigenvectorMatch(p1=p1, w=(lam - c1) / s1, lam=lam, mu=mu)
