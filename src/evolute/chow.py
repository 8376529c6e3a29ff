"""Sheaf calculus on a base variety: duals, sums, twists, kernels, Segre classes.

A locally free sheaf is carried as a rank plus its total Chern class; the
base variety is a descriptor holding its generator table, its cotangent
sheaf, and the integration functional on top-degree monomials.

The Segre convention used throughout: s_i(F) is the degree-i part of the
series inverse of the total Chern class of the dual sheaf, so that
s_1 = c_1 and s_2 = c_1**2 - c_2.  This is the convention under which the
pushforward of powers of the tautological class of a projectivized sheaf
(quotient-line convention) is the Segre series.
"""

from __future__ import annotations

from .ring import GradedClass, Record, TableMismatchError, generator, unit


class IncompleteDescriptorError(ValueError):
    """Integration requested for a monomial missing from the descriptor table."""


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, valid for negative upper argument (0 when k < 0)."""
    if k < 0:
        return 0
    num, den = 1, 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


class SheafData(Record):
    """A locally free sheaf: rank and total Chern class (constant term 1)."""

    __slots__ = _fields = ("rank", "chern")

    def _post_init(self) -> None:
        if self.rank < 1:
            raise ValueError("sheaf rank must be at least 1")
        if self.chern.constant_term != 1:
            raise ValueError("total Chern class must have constant term 1")

    def chern_part(self, i: int) -> GradedClass:
        return self.chern.homogeneous_part(i)


def dual(F: SheafData) -> SheafData:
    """Dual sheaf: c_i goes to (-1)**i c_i, rank unchanged."""
    return SheafData(F.rank, F.chern.alternate_signs())


def direct_sum(A: SheafData, B: SheafData) -> SheafData:
    """Whitney sum: ranks add, total Chern classes multiply."""
    return SheafData(A.rank + B.rank, A.chern * B.chern)


def twist_by_line(F: SheafData, line: GradedClass) -> SheafData:
    """Tensor by a line bundle with first Chern class `line` (degree 1).

    c_k(F (x) L) = sum_i C(rank - i, k - i) c_i(F) line**(k-i).
    """
    if not line.is_zero and line != line.homogeneous_part(1):
        raise ValueError("twisting class must be homogeneous of degree 1")
    table = F.chern.table
    total = unit(table)
    for k in range(1, table.bound + 1):
        piece = GradedClass(table)
        for i in range(0, k + 1):
            c_i = F.chern_part(i)
            if c_i.is_zero:
                continue
            piece = piece + binomial(F.rank - i, k - i) * c_i * line ** (k - i)
        total = total + piece
    return SheafData(F.rank, total)


def kernel_from_trivial(ambient_rank: int, Q: SheafData) -> SheafData:
    """Kernel of a surjection from the trivial sheaf of the given rank onto Q.

    Whitney gives c(kernel) * c(Q) = 1, so the kernel's total Chern class is
    the series inverse of Q's.
    """
    if ambient_rank <= Q.rank:
        raise ValueError("ambient rank must exceed the quotient rank")
    return SheafData(ambient_rank - Q.rank, Q.chern.series_inverse())


def segre_series(F: SheafData) -> GradedClass:
    """Total Segre class: series inverse of the dual total Chern class."""
    return dual(F).chern.series_inverse()


def segre(F: SheafData, i: int) -> GradedClass:
    """The i-th Segre class of F; s_0 = 1, s_1 = c_1, s_2 = c_1**2 - c_2."""
    if i < 0:
        raise ValueError("Segre index must be nonnegative")
    return segre_series(F).homogeneous_part(i)


class VarietyDescriptor(Record):
    """The base variety: dimension, ambient dimension, generators, cotangent
    sheaf, and the integration functional on top-degree monomials, whose
    values are ints."""

    __slots__ = _fields = ("dim", "ambient_dim", "table", "cotangent", "integrals")

    def _post_init(self) -> None:
        if not 0 < self.dim < self.ambient_dim:
            raise ValueError("need 0 < dim < ambient dimension")
        if self.table.bound != self.dim:
            raise ValueError("generator table must truncate at the variety dimension")
        if self.cotangent.chern.table != self.table:
            raise ValueError("cotangent sheaf must live over the variety's generators")
        wrong = [v for v in self.integrals.values() if not isinstance(v, int)]
        if wrong:
            raise TypeError(f"integrals are ints, got {wrong[0]!r}")
        covered = set(map(tuple, self.integrals))
        missing = [m for m in self.table.monomials(self.dim) if m not in covered]
        if missing:
            raise IncompleteDescriptorError(
                f"integration table misses top-degree monomials: {missing}"
            )

    def generator(self, name: str) -> GradedClass:
        return generator(self.table, name)


def integrate(X: VarietyDescriptor, a: GradedClass) -> int:
    """Evaluate the degree-dim part of a class against the integration table.

    Lower-degree terms contribute zero; a top-degree monomial absent from
    the table raises IncompleteDescriptorError, and a class over another
    table TableMismatchError.
    """
    if a.table != X.table:
        raise TableMismatchError("class does not live on this variety's generators")
    total = 0
    for exps, coeff in a.terms.items():
        if X.table.degree(exps) != X.dim:
            continue
        try:
            total += coeff * X.integrals[exps]
        except KeyError:
            raise IncompleteDescriptorError(
                f"integration table misses monomial {exps}"
            ) from None
    return total
