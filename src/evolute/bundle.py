"""The projectivized family P(F) over a base variety.

For a rank n-r+1 sheaf F on an r-dimensional base inside n-space, P(F) is
n-dimensional and carries the tautological degree-1 class zeta.  Classes on
P(F) are polynomials in zeta over the base generators, truncated at total
degree n and at base degree r: the table comes from
`GeneratorTable.extended`, and a monomial whose base part has degree above
r is zero in A*(P(F)) = A*(X)[zeta] / (Grothendieck relation).  Truncating
by that ideal is a ring homomorphism, so every class below is exact, and
neither the pushforward nor `integrate` reads the dropped monomials.
Pushforward to the base sends zeta^(n-r+i) to the i-th Segre class of F,
and everything downstream (tangent Chern classes, the virtual classes of
the map to ambient space) is computed by series arithmetic from

    c(cotangent of P(F)) = c(cotangent of base) * c(F (x) O(-1)),
    virtual series       = (1 + zeta)^(n+1) / c(tangent of P(F)).
"""

from __future__ import annotations

from functools import cached_property

from .chow import SheafData, VarietyDescriptor, segre, twist_by_line
from .ring import GradedClass, TableMismatchError, generator

FIBER_CLASS = "zeta"


class BundleSpace:
    """P(F) -> X with the distinguished class zeta = c_1(O(1))."""

    def __init__(self, base: VarietyDescriptor, sheaf: SheafData):
        expected = base.ambient_dim - base.dim + 1
        if sheaf.rank != expected:
            raise ValueError(
                f"sheaf rank {sheaf.rank} does not match ambient - dim + 1 = {expected}"
            )
        if sheaf.chern.table != base.table:
            raise TableMismatchError("sheaf must live over the base generators")
        self.base = base
        self.sheaf = sheaf
        self.table = base.table.extended(FIBER_CLASS, 1, bound=base.ambient_dim)
        self.zeta = generator(self.table, FIBER_CLASS)

    @property
    def dim(self) -> int:
        return self.base.ambient_dim

    @property
    def fiber_dim(self) -> int:
        return self.base.ambient_dim - self.base.dim

    def lift(self, a: GradedClass) -> GradedClass:
        """Pull a base class back to the bundle (append zeta exponent 0)."""
        if a.table != self.base.table:
            raise TableMismatchError("can only lift classes from the base")
        return GradedClass(self.table, {e + (0,): c for e, c in a.terms.items()})

    @cached_property
    def _segre_table(self) -> tuple[GradedClass, ...]:
        return tuple(segre(self.sheaf, i) for i in range(self.base.dim + 1))

    def pushforward(self, a: GradedClass) -> GradedClass:
        """Integrate over the fiber: zeta^k times a base class alpha maps to
        alpha * s_(k - fiber_dim)(F), with negative Segre indices giving 0."""
        if a.table != self.table:
            raise TableMismatchError("class does not live on this bundle")
        out = GradedClass(self.base.table)
        for exps, coeff in a.terms.items():
            j = exps[-1] - self.fiber_dim
            if j < 0 or j > self.base.dim:
                continue
            alpha = GradedClass(self.base.table, {exps[:-1]: coeff})
            out = out + alpha * self._segre_table[j]
        return out

    @cached_property
    def tangent_chern(self) -> GradedClass:
        """Total Chern class of the tangent sheaf of P(F).

        The cotangent total class is the lifted base cotangent class times
        the twist of the lifted F by O(-1); the tangent class follows by the
        sign-alternation rule.
        """
        lifted = SheafData(self.sheaf.rank, self.lift(self.sheaf.chern))
        relative = twist_by_line(lifted, -self.zeta)
        cotangent = self.lift(self.base.cotangent.chern) * relative.chern
        return cotangent.alternate_signs()

    @cached_property
    def _virtual_series(self) -> GradedClass:
        ambient = (1 + self.zeta) ** (self.base.ambient_dim + 1)
        return ambient * self.tangent_chern.series_inverse()

    def virtual_chern(self, up_to: int) -> list[GradedClass]:
        """The virtual classes cbar_1..cbar_{up_to} of the map to n-space."""
        if not 1 <= up_to <= self.dim:
            raise ValueError(f"virtual classes available for degrees 1..{self.dim}")
        return [self._virtual_series.homogeneous_part(i) for i in range(1, up_to + 1)]
