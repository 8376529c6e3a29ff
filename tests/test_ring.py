import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolute.pipelines import _compiled_classes
from evolute.ring import (
    GeneratorTable,
    GradedClass,
    NotInvertibleError,
    TableMismatchError,
    generator,
    unit,
    zero,
)


@pytest.fixture
def table():
    return GeneratorTable(("c1", "c2", "zeta"), (1, 2, 1), bound=3)


def test_table_validation():
    with pytest.raises(ValueError):
        GeneratorTable(("a", "a"), (1, 1), bound=2)
    with pytest.raises(ValueError):
        GeneratorTable(("a",), (0,), bound=2)
    with pytest.raises(ValueError):
        GeneratorTable(("a",), (3,), bound=2)


def test_add_identity_and_inverse(table):
    x = generator(table, "zeta")
    assert zero(table) + x == x
    assert 3 * x + (-3) * x == zero(table)
    K = generator(table, "c1")
    assert (x + K) + x == 2 * x + K


def test_mul_unit_and_truncation():
    table = GeneratorTable(("zeta",), (1,), bound=1)
    z = generator(table, "zeta")
    assert unit(table) * z == z
    assert (z * z).is_zero  # degree 2 exceeds the bound


def test_mul_geometric_series():
    table = GeneratorTable(("c1",), (1,), bound=2)
    c1 = generator(table, "c1")
    assert (1 + c1) * (1 - c1 + c1**2) == unit(table)


def test_table_mismatch_raises(table):
    other = GeneratorTable(("c1",), (1,), bound=3)
    with pytest.raises(TableMismatchError):
        generator(table, "c1") + generator(other, "c1")
    with pytest.raises(TableMismatchError):
        generator(table, "c1") * generator(other, "c1")


def test_series_inverse_trivial(table):
    assert unit(table).series_inverse() == unit(table)


def test_series_inverse_geometric():
    table = GeneratorTable(("c1",), (1,), bound=3)
    c1 = generator(table, "c1")
    assert (1 + c1).series_inverse() == 1 - c1 + c1**2 - c1**3


def test_series_inverse_degree_two_term(table):
    c1, c2 = generator(table, "c1"), generator(table, "c2")
    inv = (1 + c1 + c2).series_inverse()
    # independent check: multiply back
    assert (1 + c1 + c2) * inv == unit(table)
    assert inv.homogeneous_part(2) == c1**2 - c2


def test_series_inverse_requires_unit_constant(table):
    with pytest.raises(NotInvertibleError):
        (2 * unit(table)).series_inverse()
    with pytest.raises(NotInvertibleError):
        generator(table, "c1").series_inverse()


def test_homogeneous_part():
    table = GeneratorTable(("zeta",), (1,), bound=4)
    z = generator(table, "zeta")
    a = 1 + z + z**2
    assert a.homogeneous_part(1) == z
    assert (a - 1).homogeneous_part(0).is_zero
    assert ((1 + z) ** 4).homogeneous_part(2) == 6 * z**2


def test_homogeneous_parts_sum_to_whole(table):
    rng = random.Random(7)
    for _ in range(50):
        a = _random_class(rng, table)
        total = zero(table)
        for k in range(table.bound + 1):
            total = total + a.homogeneous_part(k)
        assert total == a


def _random_class(rng, table):
    pool = [e for d in range(table.bound + 1) for e in table.monomials(d)]
    return GradedClass(
        table,
        {rng.choice(pool): rng.randint(-5, 5) * rng.randint(1, 4) for _ in range(4)},
    )


def test_ring_laws_random(table):
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (_random_class(rng, table) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_series_inverse_random(table):
    rng = random.Random(13)
    for _ in range(100):
        a = unit(table) + sum(
            (_random_class(rng, table).homogeneous_part(k) for k in (1, 2, 3)),
            zero(table),
        )
        assert a * a.series_inverse() == unit(table)


def test_alternate_signs(table):
    c1, c2, z = (generator(table, n) for n in ("c1", "c2", "zeta"))
    a = 1 + c1 + c2 + c1 * c2
    assert a.alternate_signs() == 1 - c1 + c2 - c1 * c2
    assert a.alternate_signs().alternate_signs() == a
    # ring homomorphism on products
    b = 1 + z + z**2
    assert (a * b).alternate_signs() == a.alternate_signs() * b.alternate_signs()


def test_pow_matches_repeated_mul(table):
    c1 = generator(table, "c1")
    a = 1 + c1
    assert a**0 == unit(table)
    assert a**3 == a * a * a


def test_scalar_coercion(table):
    c1 = generator(table, "c1")
    assert 3 * c1 + c1 * (-2) == c1
    assert 1 - (1 - c1) == c1


def test_non_int_coefficients_raise(table):
    # the ring is integral by construction: a rational coefficient or
    # scalar is refused where it enters, never carried along
    c1 = generator(table, "c1")
    with pytest.raises(TypeError):
        GradedClass(table, {(1, 0, 0): Fraction(1, 2)})
    with pytest.raises(TypeError):
        Fraction(1, 2) * c1
    with pytest.raises(TypeError):
        c1 + 0.5
    assert c1 != Fraction(1, 2)


def test_immutability(table):
    a = generator(table, "c1")
    with pytest.raises(AttributeError):
        a.terms = {}


def test_monomial_enumeration():
    table = GeneratorTable(("a", "b"), (1, 2), bound=4)
    assert set(table.monomials(2)) == {(2, 0), (0, 1)}
    assert set(table.monomials(0)) == {(0, 0)}
    assert len(list(table.monomials(4))) == 3  # a^4, a^2 b, b^2


# -- base-degree truncation on bundle tables ----------------------------------


@st.composite
def bundle_tables(draw):
    base_degrees = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    r = draw(st.integers(max(base_degrees), 3))
    names = tuple(f"c{i}" for i in range(len(base_degrees)))
    base = GeneratorTable(names, base_degrees, bound=r)
    return base.extended("zeta", 1, bound=r + draw(st.integers(1, 3)))


def _draw_terms(data, table, constant=None, coeffs=st.integers(-5, 5)):
    # monomials up to the total bound only, so some break the base bound
    pool = [e for d in range(table.bound + 1) for e in table.monomials(d)]
    terms = data.draw(st.dictionaries(st.sampled_from(pool), coeffs, max_size=5))
    if constant is not None:
        terms[(0,) * len(table)] = constant
    return terms


def _truncate(table, a):
    return GradedClass(table, a.terms)


def test_extended_sets_base_bound():
    base = GeneratorTable(("K", "H"), (1, 1), bound=1)
    table = base.extended("zeta", 1, bound=3)
    assert (table.base_size, table.base_bound) == (2, 1)
    K, z = generator(table, "K"), generator(table, "zeta")
    assert (K * K).is_zero and (K * z**2) == GradedClass(table, {(1, 0, 2): 1})
    assert GeneratorTable(("K", "zeta"), (1, 1), bound=3).admissible((2, 0))


@settings(max_examples=150, deadline=None)
@given(table=bundle_tables(), data=st.data())
def test_base_truncation_commutes_with_products(table, data):
    free = GeneratorTable(table.names, table.degrees, table.bound)
    ta, tb = _draw_terms(data, table), _draw_terms(data, table)
    a, b = GradedClass(table, ta), GradedClass(table, tb)
    fa, fb = GradedClass(free, ta), GradedClass(free, tb)
    assert a * b == _truncate(table, fa * fb)
    k = data.draw(st.integers(0, 4))
    assert a**k == _truncate(table, fa**k)


@settings(max_examples=150, deadline=None)
@given(table=bundle_tables(), data=st.data())
def test_base_truncation_commutes_with_series_inverse(table, data):
    free = GeneratorTable(table.names, table.degrees, table.bound)
    terms = _draw_terms(data, table, constant=1)
    a, fa = GradedClass(table, terms), GradedClass(free, terms)
    assert a.series_inverse() == _truncate(table, fa.series_inverse())
    assert a * a.series_inverse() == unit(table)


# -- integer-native coefficients ----------------------------------------------


@st.composite
def plain_tables(draw):
    degrees = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    names = tuple(f"c{i}" for i in range(len(degrees)))
    return GeneratorTable(names, degrees, bound=draw(st.integers(max(degrees), 4)))


def _holds_ints(a):
    return all(type(c) is int for c in a.terms.values())


@settings(max_examples=150, deadline=None)
@given(table=st.one_of(plain_tables(), bundle_tables()), data=st.data())
def test_integral_input_keeps_int_coefficients(table, data):
    ta = _draw_terms(data, table)
    tb = _draw_terms(data, table, constant=1)
    s, k = data.draw(st.integers(-3, 3)), data.draw(st.integers(0, 4))
    j = data.draw(st.integers(0, table.bound))
    a, b = GradedClass(table, ta), GradedClass(table, tb)
    results = [
        a + b, a - b, a * b, a + s, s - a, s * a, a**k,
        b.series_inverse(), a.alternate_signs(), a.homogeneous_part(j),
    ]
    assert all(_holds_ints(got) for got in results)


@pytest.mark.parametrize("kind, n", [("curve", n) for n in (2, 3, 5)] + [("surface", n) for n in (3, 5)])
def test_compiled_classes_hold_ints(kind, n):
    classes = _compiled_classes(kind, n)
    assert all(not cls.is_zero and _holds_ints(cls) for cls in classes)
