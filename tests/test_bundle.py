import random

import pytest

from evolute.bundle import BundleSpace
from evolute.chow import SheafData, segre
from evolute.reference_forms import (
    ambient_tangent_pullback,
    tangent_chern_reference,
    virtual_chern_reference,
)
from evolute.ring import GradedClass, TableMismatchError, unit
from evolute.selftest import random_bundle_space, random_graded_class
from evolute.varieties import CurveInvariants, curve_geometry, surface_geometry
from evolute.varieties import SurfaceChernNumbers


@pytest.fixture
def cubic_space():
    geom = curve_geometry(CurveInvariants(3, 3, 0))
    return BundleSpace(geom.variety, geom.normal_bundle)


@pytest.fixture
def quadric_space():
    variety, normal = surface_geometry(3, SurfaceChernNumbers.from_degree(2))
    return BundleSpace(variety, normal)


def test_rank_mismatch_rejected():
    geom = curve_geometry(CurveInvariants(3, 3, 0))
    wrong = SheafData(2, geom.osculating_sheaf(1).chern)
    with pytest.raises(ValueError):
        BundleSpace(geom.variety, wrong)


def test_pushforward_basis(cubic_space):
    f = cubic_space.fiber_dim
    assert cubic_space.pushforward(cubic_space.zeta**f) == unit(cubic_space.base.table)
    assert cubic_space.pushforward(cubic_space.zeta ** (f - 1)).is_zero
    assert cubic_space.pushforward(
        cubic_space.zeta ** (f + 1)
    ) == cubic_space.sheaf.chern_part(1)


def test_pushforward_rejects_foreign_class(cubic_space):
    with pytest.raises(TableMismatchError):
        cubic_space.pushforward(unit(cubic_space.base.table))


def test_projection_formula_random():
    rng = random.Random(99)
    for _ in range(100):
        space = random_bundle_space(rng)
        alpha = random_graded_class(rng, space.base.table)
        k = rng.randint(0, space.dim)
        pushed = space.pushforward(space.lift(alpha) * space.zeta**k)
        j = k - space.fiber_dim
        if 0 <= j <= space.base.dim:
            assert pushed == alpha * segre(space.sheaf, j)
        else:
            assert pushed.is_zero


def test_tangent_chern_curve_base(cubic_space):
    # first Chern class: -K - c1(F) + (n - r + 1) zeta on a curve base
    c1 = cubic_space.tangent_chern.homogeneous_part(1)
    expected = (
        -cubic_space.lift(cubic_space.base.cotangent.chern_part(1))
        - cubic_space.lift(cubic_space.sheaf.chern_part(1))
        + 3 * cubic_space.zeta
    )
    assert c1 == expected


def test_tangent_chern_zeta_squared_coefficient(quadric_space):
    # on a surface base the zeta^2 coefficient of c2 is C(n-r+1, 2)
    c2 = quadric_space.tangent_chern.homogeneous_part(2)
    zeta_sq = GradedClass(
        quadric_space.table,
        {e: c for e, c in c2.terms.items() if e[-1] == 2},
    )
    assert zeta_sq == 1 * quadric_space.zeta**2  # C(2, 2)


def test_virtual_chern_first_class(cubic_space):
    # cbar_1 = r zeta + (K + c1(F)) lifted
    cbar1 = cubic_space.virtual_chern(1)[0]
    expected = cubic_space.zeta + cubic_space.lift(
        cubic_space.base.cotangent.chern_part(1) + cubic_space.sheaf.chern_part(1)
    )
    assert cbar1 == expected


def test_virtual_chern_leading_coefficients(quadric_space):
    # cbar_i restricted to a fiber is C(r, i) zeta^i
    cbars = quadric_space.virtual_chern(3)
    for i, cbar in enumerate(cbars, start=1):
        fiber_part = GradedClass(
            quadric_space.table,
            {e: c for e, c in cbar.terms.items() if sum(e[:-1]) == 0},
        )
        from evolute.chow import binomial

        assert fiber_part == binomial(2, i) * quadric_space.zeta**i


def test_tangent_chern_matches_reference_random():
    rng = random.Random(2024)
    for _ in range(100):
        space = random_bundle_space(rng)
        tangent = space.tangent_chern
        for i, expected in enumerate(tangent_chern_reference(space), start=1):
            assert tangent.homogeneous_part(i) == expected


def test_virtual_chern_matches_reference_random():
    rng = random.Random(2025)
    for _ in range(100):
        space = random_bundle_space(rng)
        computed = space.virtual_chern(min(3, space.dim))
        for got, expected in zip(computed, virtual_chern_reference(space)):
            assert got == expected


def test_virtual_series_remultiplication_degree_four():
    # (1 + cbar_1 + ... + cbar_4) * c(T) recovers (1 + zeta)^(n+1) through
    # degree 4; this pins the fourth virtual class used by the 4-fold locus
    rng = random.Random(2026)
    for _ in range(100):
        space = random_bundle_space(rng)
        top = min(4, space.dim)
        series = unit(space.table)
        for cbar in space.virtual_chern(top):
            series = series + cbar
        product = series * space.tangent_chern
        target = ambient_tangent_pullback(space)
        for i in range(top + 1):
            assert product.homogeneous_part(i) == target.homogeneous_part(i)


def test_bundle_classes_respect_base_dimension():
    # monomials of base degree above dim X vanish on P(F) and are never kept
    rng = random.Random(2027)
    for _ in range(100):
        space = random_bundle_space(rng)
        weights = space.base.table.degrees
        classes = [space.tangent_chern, *space.virtual_chern(space.dim)]
        for cls in classes:
            for exps in cls.terms:
                base_degree = sum(e * w for e, w in zip(exps, weights))
                assert base_degree <= space.base.dim, (exps, cls)


def test_virtual_chern_range_validation(cubic_space):
    with pytest.raises(ValueError):
        cubic_space.virtual_chern(0)
    with pytest.raises(ValueError):
        cubic_space.virtual_chern(cubic_space.dim + 1)
