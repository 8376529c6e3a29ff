"""Exact arithmetic for graded cohomology-class expressions.

A class is a sparse polynomial over the integers in a fixed list of named
generators, each generator carrying a positive integer degree.  Monomials
whose weighted degree exceeds the table's truncation bound are dropped by
every operation, so products behave like classes on a space of that
dimension:

    table = GeneratorTable(("K", "H"), (1, 1), bound=2)
    K + 3*H            -> terms {(1, 0): 1, (0, 1): 3}
    (1 + K) * (1 - K)  -> 1 - K**2   (K**3 and beyond would vanish)

A table may carry a second bound on its leading `base_size` generators.
Tables made by `GeneratorTable.extended` describe a projective bundle P(F)
over a base X: the old generators are the base classes and the old bound is
dim X.  In A*(P(F)) = A*(X)[zeta] / (Grothendieck relation) (Fulton,
*Intersection Theory*, 3.2) a monomial whose base part has weighted degree
above dim X is zero, so it is dropped too.  The dropped monomials span a
homogeneous ideal, hence truncating by it is a ring homomorphism: sums,
products, powers, series inverses, sign alternation and homogeneous parts
give exactly the truncation of what the total bound alone would give.

Coefficients are Python `int`s, never floats or rationals: every class the
engine builds is integral (Chern and Segre classes of integral data, the
corank-1 Thom polynomials and their pushforwards; Fulton, *Intersection
Theory*, ch. 3), and sums, products and series inverses of constant term 1
keep it so.  A coefficient or scalar that is not an `int` raises TypeError.
The zero class stores no terms.  Values are immutable after construction
and safe to share.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from operator import add, attrgetter, itemgetter

Exponents = tuple[int, ...]


class TableMismatchError(ValueError):
    """Combining classes that live over different generator tables."""


class NotInvertibleError(ValueError):
    """Series inverse requested for a class whose constant term is not 1."""


class Record:
    """Immutable value with named fields, compared and hashed by them.

    A subclass names its fields, two or more, in `_fields` and keeps them in
    slots of the same names; its `__slots__` may add private memo slots,
    which nothing compares.  This class's `__init__` is the one constructor:
    it binds the fields by position or by name in `_fields` order, takes an
    omitted trailing field from the class's `_defaults` dict, sets each
    through its slot's descriptor, and then runs `_post_init`, where a
    subclass checks its fields or fills its memo slots.  A missing field,
    an unknown or repeated name or an extra value raises TypeError.  Two
    records are equal when they are of one class with equal fields, and the
    hash is that of the fields, so a record with an unhashable field (a
    dict, a `GradedClass`) is unhashable.  The repr is
    `Name(field=value, ...)`.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # one C call reads every field, where a loop of getattr would not
        cls._values = attrgetter(*cls._fields)
        # the slots' own setters, which skip `__setattr__` and its lookup
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        for setter, value in zip(self._setters, args):
            setter(self, value)
        if kwargs or len(args) < len(fields):
            for field, setter in zip(fields[len(args) :], self._setters[len(args) :]):
                if field in kwargs:
                    value = kwargs.pop(field)
                elif field in self._defaults:
                    value = self._defaults[field]
                else:
                    raise TypeError(f"{type(self).__name__} missing field {field!r}")
                setter(self, value)
            if kwargs:
                field = next(iter(kwargs))
                raise TypeError(f"{type(self).__name__} got an unknown or repeated field {field!r}")
        self._post_init()

    def _post_init(self) -> None:
        """Checks of the bound fields; a record without checks has none."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return dict(zip(self._fields, self._values(self)))


class GeneratorTable(Record):
    """Named generators with cohomological degrees and truncation bounds.

    The bound is the dimension of the space the classes live on; it must be
    at least as large as every generator degree.  The first `base_size`
    generators are pulled back from a base of dimension `base_bound`, so a
    monomial whose weighted degree in them exceeds `base_bound` is zero as
    well.  With the default `base_size` 0 the second bound never applies;
    `extended` sets both for a projective bundle over this table.
    """

    _fields = ("names", "degrees", "bound", "base_size", "base_bound")
    __slots__ = _fields + (
        "_degree_cache",
        "_base_degree_cache",
        "_admissible_cache",
        "_monomials_cache",
    )
    _defaults = {"base_size": 0, "base_bound": 0}

    def _post_init(self) -> None:
        if len(self.names) != len(self.degrees):
            raise ValueError("one degree per generator name required")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate generator names in {self.names}")
        if any(d < 1 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        if self.degrees and self.bound < max(self.degrees):
            raise ValueError("truncation bound below a generator degree")
        if self.bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        if not 0 <= self.base_size <= len(self.names):
            raise ValueError("base size must count leading generators of the table")
        if self.base_bound < max(self.degrees[: self.base_size], default=0):
            raise ValueError("base bound below a base generator degree")
        object.__setattr__(self, "_degree_cache", {})
        object.__setattr__(self, "_base_degree_cache", {})
        object.__setattr__(self, "_admissible_cache", {})
        object.__setattr__(self, "_monomials_cache", {})

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def degree(self, exponents: Exponents) -> int:
        """Weighted degree of an exponent vector (memoized, monomials repeat)."""
        cache = self._degree_cache
        d = cache.get(exponents)
        if d is None:
            d = sum(e * w for e, w in zip(exponents, self.degrees))
            cache[exponents] = d
        return d

    def base_degree(self, exponents: Exponents) -> int:
        """Weighted degree of the leading base part (memoized like `degree`)."""
        cache = self._base_degree_cache
        d = cache.get(exponents)
        if d is None:
            d = sum(e * w for e, w in zip(exponents[: self.base_size], self.degrees))
            cache[exponents] = d
        return d

    def admissible(self, exponents: Exponents) -> bool:
        """Whether the monomial survives both truncation bounds (memoized)."""
        cache = self._admissible_cache
        ok = cache.get(exponents)
        if ok is None:
            ok = (
                self.degree(exponents) <= self.bound
                and self.base_degree(exponents) <= self.base_bound
            )
            cache[exponents] = ok
        return ok

    def extended(self, name: str, degree: int, bound: int) -> GeneratorTable:
        """New table with one more generator appended and a new bound.

        The generators of this table become the base generators of the new
        one, bounded by this table's bound: the new table describes a
        projective bundle over the space this table describes.
        """
        if name in self.names:
            raise ValueError(f"generator {name!r} already present")
        return GeneratorTable(
            self.names + (name,),
            self.degrees + (degree,),
            bound,
            base_size=len(self.names),
            base_bound=self.bound,
        )

    def monomials(self, degree: int) -> tuple[Exponents, ...]:
        """All exponent vectors of the given weighted degree (memoized: every
        `VarietyDescriptor` over a cached table checks its top degree)."""
        found = self._monomials_cache.get(degree)
        if found is None:

            def rec(pos: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[Exponents]:
                if pos == len(self.degrees):
                    if remaining == 0:
                        yield prefix
                    return
                step = self.degrees[pos]
                for e in range(remaining // step + 1):
                    yield from rec(pos + 1, remaining - e * step, prefix + (e,))

            found = self._monomials_cache[degree] = tuple(rec(0, degree, ()))
        return found


class GradedClass:
    """Sparse polynomial over int coefficients, graded and truncated.

    Supports +, -, * and integer powers; int scalars coerce to multiples of
    the unit class.  No zero coefficients are stored, and no monomial
    beyond either table bound survives any operation.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: Mapping[Exponents, int] | None = None):
        cleaned: dict[Exponents, int] = {}
        for exps, value in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(table):
                raise ValueError(f"exponent vector {exps} does not fit table of size {len(table)}")
            if not isinstance(value, int):
                raise TypeError(f"class coefficients are ints, got {value!r}")
            if value == 0 or not table.admissible(exps):
                continue
            cleaned[exps] = int(value)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _unchecked(cls, table: GeneratorTable, terms: dict[Exponents, int]) -> "GradedClass":
        # internal fast path: terms already pruned, admissible and int
        obj = object.__new__(cls)
        object.__setattr__(obj, "table", table)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedClass is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        zero = (0,) * len(self.table)
        return self.terms.get(zero, 0)

    def homogeneous_part(self, k: int) -> GradedClass:
        """Sum of the monomials of weighted degree exactly k."""
        deg = self.table.degree
        return GradedClass._unchecked(
            self.table,
            {e: c for e, c in self.terms.items() if deg(e) == k},
        )

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other: object) -> "GradedClass":
        if isinstance(other, GradedClass):
            if other.table != self.table:
                raise TableMismatchError("classes live over different generator tables")
            return other
        if isinstance(other, int):
            return GradedClass(self.table, {(0,) * len(self.table): other})
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "GradedClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            value = merged.get(exps)
            if value is None:
                merged[exps] = coeff
            else:
                value = value + coeff
                if value:
                    merged[exps] = value
                else:
                    del merged[exps]
        return GradedClass._unchecked(self.table, merged)

    __radd__ = __add__

    def __neg__(self) -> "GradedClass":
        return GradedClass._unchecked(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: object) -> "GradedClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "GradedClass":
        return (-self) + other

    def __mul__(self, other: object) -> "GradedClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        table = self.table
        bound, base_bound = table.bound, table.base_bound
        deg, base_deg = table.degree, table.base_degree
        # the right terms grouped by base degree, ascending, and each group
        # ascending in total degree: a left term reads only the groups within
        # its remaining base degree, and each of them only up to its remaining
        # total degree, so no pair beyond either bound is visited
        groups: dict[int, list[tuple[int, Exponents, int]]] = {}
        for eb, cb in other.terms.items():
            groups.setdefault(base_deg(eb), []).append((deg(eb), eb, cb))
        ordered = [(bb, sorted(group, key=itemgetter(0))) for bb, group in sorted(groups.items())]
        out: dict[Exponents, int] = {}
        for ea, ca in self.terms.items():
            room, base_room = bound - deg(ea), base_bound - base_deg(ea)
            for bb, group in ordered:
                if bb > base_room:
                    break
                for db, eb, cb in group:
                    if db > room:
                        break
                    key = tuple(map(add, ea, eb))
                    out[key] = out.get(key, 0) + ca * cb
        return GradedClass._unchecked(table, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GradedClass":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("powers of graded classes take nonnegative integer exponents")
        result = unit(self.table)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def series_inverse(self) -> "GradedClass":
        """Class b with a*b = 1 up to the truncation bound.

        Requires constant term 1; computed degree by degree through the
        convolution recurrence b_k = -sum_{i=1..k} a_i b_{k-i}.
        """
        if self.constant_term != 1:
            raise NotInvertibleError("series inverse needs constant term 1")
        table = self.table
        parts = [self.homogeneous_part(k) for k in range(table.bound + 1)]
        inverse = [unit(table)]
        for k in range(1, table.bound + 1):
            acc = GradedClass._unchecked(table, {})
            for i in range(1, k + 1):
                if parts[i].is_zero or inverse[k - i].is_zero:
                    continue
                acc = acc + parts[i] * inverse[k - i]
            inverse.append(-acc)
        total: dict[Exponents, int] = {}
        for piece in inverse:
            total.update(piece.terms)
        return GradedClass._unchecked(table, total)

    def alternate_signs(self) -> "GradedClass":
        """Negate the odd-degree graded pieces (the dual-class sign rule)."""
        deg = self.table.degree
        return GradedClass._unchecked(
            self.table,
            {e: (-c if deg(e) % 2 else c) for e, c in self.terms.items()},
        )

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (self.table.degree(e), e)):
            coeff = self.terms[exps]
            factors = [
                name if e == 1 else f"{name}**{e}"
                for name, e in zip(self.table.names, exps)
                if e
            ]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def zero(table: GeneratorTable) -> GradedClass:
    return GradedClass(table)


def unit(table: GeneratorTable) -> GradedClass:
    return GradedClass(table, {(0,) * len(table): 1})


def generator(table: GeneratorTable, name: str) -> GradedClass:
    exps = [0] * len(table)
    exps[table.index(name)] = 1
    return GradedClass(table, {tuple(exps): 1})
