"""Concrete base varieties: curves, surfaces, and hypersurfaces.

Each builder returns a variety descriptor together with the sheaves the
enumerative pipelines consume, most importantly the Euclidean normal bundle
E = (K1)^dual (+) O(1), where K1 is the kernel of the evaluation of the
ambient linear system on first-order jets.  The table and the sheaves of
a curve or a surface depend only on the ambient dimension, so they are
built once per dimension and a point adds only its integrals.

Curve conventions.  Generators are K (canonical class), H (hyperplane
class) and one degree-1 correction symbol B_i per stationary index, with
integrals K -> 2g-2, H -> d, B_i -> k_i.  The i-th stationary index k_i is
the weighted number of points where the i-th osculating space degenerates
(k_0 counts cusps of the image, k_1 inflections, and so on); the image of
the m-jet map then has

    c_1 = C(m+1, 2) K + (m+1) H - sum_{i<m} (m-i) B_i.

Surface conventions.  Generators are K, H (degree 1) and C2 = c_2 of the
cotangent sheaf (degree 2); the integration table carries the four numbers
int K^2, int C2, int K.H, int H^2.

Hypersurfaces of degree d in ambient dimension n have a single generator H
with int H^(n-1) = d, cotangent series (1 - H)^(n+1) / (1 - d H), and
normal bundle O(d-1) (+) O(1).
"""

from __future__ import annotations

from functools import cache

from .chow import (
    SheafData,
    VarietyDescriptor,
    binomial,
    direct_sum,
    dual,
    kernel_from_trivial,
    twist_by_line,
)
from .ring import GeneratorTable, Record, generator, unit


class CurveInvariants(Record):
    """Numerical data of a curve in projective space.

    `stationary` holds the weighted indices (k_0, ..., k_{n-2}); shorter
    tuples are padded with zeros.  The top index k_{n-1} is determined by
    the lower data and exposed as `hyperosculation_index`.
    """

    __slots__ = _fields = ("ambient", "degree", "genus", "stationary")

    def __init__(
        self, ambient: int, degree: int, genus: int, stationary: tuple[int, ...] = ()
    ) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "genus", genus)
        n = ambient
        if n < 2:
            raise ValueError("curves need ambient dimension at least 2")
        if self.degree < 1:
            raise ValueError("curve degree must be at least 1")
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        ks = tuple(stationary)
        if len(ks) > n - 1:
            raise ValueError(f"at most {n - 1} stationary indices for ambient {n}")
        if any(k < 0 for k in ks):
            raise ValueError("stationary indices must be nonnegative")
        object.__setattr__(self, "stationary", ks + (0,) * (n - 1 - len(ks)))

    @property
    def cusp_count(self) -> int:
        return self.stationary[0]

    @property
    def hyperosculation_index(self) -> int:
        """k_{n-1}: a curve in n-space has n-th rank 0, so k_{n-1} is that
        rank taken over k_0..k_{n-2} alone."""
        return osculating_rank(self.degree, self.genus, self.stationary, self.ambient)


def osculating_rank(d: int, g: int, stationary: tuple[int, ...], m: int) -> int:
    """The m-th rank of a degree-d genus-g curve with stationary indices
    k_0, k_1, ... (Piene 1977), the degree of its m-th osculating
    developable and, for m = 1, of its dual variety:

        (m+1)(d + m(g-1)) - sum_{i<m} (m-i) k_i.
    """
    rank = (m + 1) * (d + m * (g - 1))
    for i, k in enumerate(stationary[:m]):
        rank -= (m - i) * k
    return rank


class CurveGeometry(Record):
    """Descriptor plus the sheaf catalog of a curve: osculating images
    P^1..P^{n-1} (index m-1) and the Euclidean normal bundle."""

    __slots__ = _fields = ("invariants", "variety", "osculating", "normal_bundle")

    def __init__(
        self,
        invariants: CurveInvariants,
        variety: VarietyDescriptor,
        osculating: tuple[SheafData, ...],
        normal_bundle: SheafData,
    ) -> None:
        object.__setattr__(self, "invariants", invariants)
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "osculating", osculating)
        object.__setattr__(self, "normal_bundle", normal_bundle)

    def osculating_sheaf(self, m: int) -> SheafData:
        if not 1 <= m <= self.invariants.ambient - 1:
            raise ValueError(f"osculating order must lie in 1..{self.invariants.ambient - 1}")
        return self.osculating[m - 1]


@cache
def _curve_shape(n: int) -> tuple[GeneratorTable, SheafData, tuple[SheafData, ...], SheafData]:
    """Table, cotangent sheaf, osculating images and normal bundle of a curve
    in n-space.  None of them depends on the invariants, which enter only
    through the integrals."""
    names = ("K", "H") + tuple(f"B{i}" for i in range(n - 1))
    table = GeneratorTable(names, (1,) * len(names), bound=1)
    K = generator(table, "K")
    H = generator(table, "H")
    B = [generator(table, f"B{i}") for i in range(n - 1)]
    cotangent = SheafData(1, unit(table) + K)

    osculating = []
    for m in range(1, n):
        c1 = binomial(m + 1, 2) * K + (m + 1) * H
        for i in range(m):
            c1 = c1 - (m - i) * B[i]
        osculating.append(SheafData(m + 1, unit(table) + c1))

    jet_kernel = kernel_from_trivial(n + 1, osculating[0])
    normal = direct_sum(dual(jet_kernel), SheafData(1, unit(table) + H))
    return table, cotangent, tuple(osculating), normal


def curve_geometry(inv: CurveInvariants) -> CurveGeometry:
    n = inv.ambient
    table, cotangent, osculating, normal = _curve_shape(n)
    # the generators K, H, B0, B1, ... integrate to 2g-2, d, k_0, k_1, ...
    values = (2 * inv.genus - 2, inv.degree) + inv.stationary
    integrals = {
        tuple(int(i == j) for j in range(len(values))): value for i, value in enumerate(values)
    }
    variety = VarietyDescriptor(1, n, table, cotangent, integrals)
    return CurveGeometry(inv, variety, osculating, normal)


class SurfaceChernNumbers(Record):
    """The four integrals a surface pipeline needs: int K^2, int c_2,
    int K.H and int H^2."""

    __slots__ = _fields = ("K2", "c2", "KH", "H2")

    def __init__(self, K2: int, c2: int, KH: int, H2: int) -> None:
        object.__setattr__(self, "K2", K2)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "KH", KH)
        object.__setattr__(self, "H2", H2)

    @classmethod
    def from_degree(cls, d: int) -> "SurfaceChernNumbers":
        """Smooth degree-d surface in 3-space: K = (d-4)H and
        c_2 = (d^2-4d+6) H^2 give the four numbers below."""
        if d < 1:
            raise ValueError("surface degree must be at least 1")
        return cls(K2=d * (d - 4) ** 2, c2=d * (d * d - 4 * d + 6), KH=d * (d - 4), H2=d)


def surface_geometry(
    ambient: int, numbers: SurfaceChernNumbers
) -> tuple[VarietyDescriptor, SheafData]:
    """Surface descriptor plus its Euclidean normal bundle (rank n-1).

    The normal bundle is assembled from first principles: the first-order
    jet sheaf of O(1) is an extension of O(1) by the twisted cotangent
    sheaf, K1 is the kernel of the ambient trivial sheaf mapping onto it,
    and E = (K1)^dual (+) O(1).
    """
    if ambient < 3:
        raise ValueError("surfaces need ambient dimension at least 3")
    table, cotangent, normal = _surface_shape(ambient)
    integrals = {
        (2, 0, 0): numbers.K2,
        (1, 1, 0): numbers.KH,
        (0, 2, 0): numbers.H2,
        (0, 0, 1): numbers.c2,
    }
    return VarietyDescriptor(2, ambient, table, cotangent, integrals), normal


@cache
def _surface_shape(ambient: int) -> tuple[GeneratorTable, SheafData, SheafData]:
    """Table, cotangent sheaf and normal bundle of a surface in n-space; like
    the curve shape, they do not depend on the four numbers."""
    table = GeneratorTable(("K", "H", "C2"), (1, 1, 2), bound=2)
    K = generator(table, "K")
    H = generator(table, "H")
    cotangent = SheafData(2, unit(table) + K + generator(table, "C2"))
    jet1 = SheafData(3, twist_by_line(cotangent, H).chern * (unit(table) + H))
    jet_kernel = kernel_from_trivial(ambient + 1, jet1)
    normal = direct_sum(dual(jet_kernel), SheafData(1, unit(table) + H))
    return table, cotangent, normal


def hypersurface_geometry(ambient: int, degree: int) -> tuple[VarietyDescriptor, SheafData]:
    """Smooth degree-d hypersurface in n-space with its normal bundle
    O(d-1) (+) O(1)."""
    n, d = ambient, degree
    if n < 2:
        raise ValueError("hypersurfaces need ambient dimension at least 2")
    if d < 1:
        raise ValueError("hypersurface degree must be at least 1")
    r = n - 1
    table = GeneratorTable(("H",), (1,), bound=r)
    H = generator(table, "H")
    integrals = {(r,): d}
    cotangent_chern = (unit(table) - H) ** (n + 1) * (unit(table) - d * H).series_inverse()
    cotangent = SheafData(r, cotangent_chern)
    variety = VarietyDescriptor(r, n, table, cotangent, integrals)

    normal = direct_sum(
        SheafData(1, unit(table) + (d - 1) * H),
        SheafData(1, unit(table) + H),
    )
    return variety, normal
