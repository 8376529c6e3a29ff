from fractions import Fraction

import pytest

from evolute.chow import (
    IncompleteDescriptorError,
    SheafData,
    VarietyDescriptor,
    binomial,
    direct_sum,
    dual,
    integrate,
    kernel_from_trivial,
    segre,
    segre_series,
    twist_by_line,
)
from evolute.ring import GeneratorTable, TableMismatchError, generator, unit, zero
from evolute.varieties import (
    CurveInvariants,
    SurfaceChernNumbers,
    curve_geometry,
    hypersurface_geometry,
    surface_geometry,
)


@pytest.fixture
def surface_table():
    return GeneratorTable(("K", "H", "C2"), (1, 1, 2), bound=2)


def test_binomial_generalized():
    assert binomial(5, 2) == 10
    assert binomial(2, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4


def test_dual_rank_one(surface_table):
    H = generator(surface_table, "H")
    F = SheafData(1, unit(surface_table) + H)
    assert dual(F).chern == unit(surface_table) - H
    assert dual(dual(F)) == F


def test_dual_rank_two_sign_rule(surface_table):
    K, C2 = generator(surface_table, "K"), generator(surface_table, "C2")
    F = SheafData(2, 1 + K + C2)
    assert dual(F).chern == 1 - K + C2


def test_direct_sum_whitney(surface_table):
    K, H = generator(surface_table, "K"), generator(surface_table, "H")
    A = SheafData(1, 1 + K)
    B = SheafData(1, 1 + H)
    total = direct_sum(A, B)
    assert total.rank == 2
    assert total.chern == 1 + (K + H) + K * H
    trivial = SheafData(3, unit(surface_table))
    assert direct_sum(A, trivial).chern == A.chern
    assert direct_sum(A, trivial).rank == 4


def test_twist_trivial_rank_two(surface_table):
    H = generator(surface_table, "H")
    F = SheafData(2, unit(surface_table))
    assert twist_by_line(F, H).chern == (1 + H) ** 2


def test_twist_by_zero_is_identity(surface_table):
    K = generator(surface_table, "K")
    F = SheafData(2, 1 + K)
    assert twist_by_line(F, zero(surface_table)) == F


def test_twist_cotangent_surface(surface_table):
    # second Chern class of the twisted cotangent sheaf on a surface
    K, H, C2 = (generator(surface_table, n) for n in ("K", "H", "C2"))
    omega = SheafData(2, 1 + K + C2)
    twisted = twist_by_line(omega, H)
    assert twisted.chern_part(1) == K + 2 * H
    assert twisted.chern_part(2) == C2 + K * H + H**2


def test_twist_then_untwist(surface_table):
    K, H, C2 = (generator(surface_table, n) for n in ("K", "H", "C2"))
    F = SheafData(3, 1 + K + 2 * C2 + K * H)
    assert twist_by_line(twist_by_line(F, H), -H) == F


def test_kernel_from_trivial(surface_table):
    trivial = SheafData(2, unit(surface_table))
    k = kernel_from_trivial(5, trivial)
    assert k.rank == 3 and k.chern == unit(surface_table)
    K, H = generator(surface_table, "K"), generator(surface_table, "H")
    jet = SheafData(3, 1 + (K + 3 * H))
    kernel = kernel_from_trivial(4, jet)
    assert kernel.chern_part(1) == -(K + 3 * H)
    # re-multiplication recovers the trivial total class
    assert kernel.chern * jet.chern == unit(surface_table)


def test_segre_convention(surface_table):
    K, H, C2 = (generator(surface_table, n) for n in ("K", "H", "C2"))
    F = SheafData(2, 1 + (K + H) + C2)
    assert segre(F, 0) == unit(surface_table)
    assert segre(F, 1) == K + H
    assert segre(F, 2) == (K + H) ** 2 - C2


def test_segre_telescoping(surface_table):
    K, H, C2 = (generator(surface_table, n) for n in ("K", "H", "C2"))
    F = SheafData(2, 1 + (2 * K - H) + (C2 + K * H))
    assert F.chern * segre_series(F).alternate_signs() == unit(surface_table)


# -- descriptors -----------------------------------------------------------


def test_curve_integrals_twisted_cubic():
    geom = curve_geometry(CurveInvariants(3, 3, 0))
    X = geom.variety
    H = X.generator("H")
    K = X.generator("K")
    assert integrate(X, H) == 3
    assert integrate(X, K) == -2
    assert integrate(X, geom.osculating_sheaf(1).chern_part(1)) == 4
    assert integrate(X, geom.normal_bundle.chern_part(1)) == 7
    assert geom.normal_bundle.rank == 3


def test_curve_genus_integral():
    for d, g in ((3, 0), (4, 1), (5, 2)):
        geom = curve_geometry(CurveInvariants(3, d, g))
        assert integrate(geom.variety, geom.variety.generator("K")) == 2 * g - 2


def test_curve_kernel_first_chern():
    # c1 of the jet kernel integrates to -(2d + 2g - 2 - k0)
    inv = CurveInvariants(3, 4, 1, (2,))
    geom = curve_geometry(inv)
    k1 = kernel_from_trivial(4, geom.osculating_sheaf(1))
    value = integrate(geom.variety, k1.chern_part(1))
    assert value == -(2 * 4 + 2 * 1 - 2 - 2)


def test_curve_stationary_padding_and_validation():
    inv = CurveInvariants(5, 4, 0, (1, 2))
    assert inv.stationary == (1, 2, 0, 0)
    with pytest.raises(ValueError):
        CurveInvariants(3, 0, 0)
    with pytest.raises(ValueError):
        CurveInvariants(3, 2, -1)
    with pytest.raises(ValueError):
        CurveInvariants(3, 2, 0, (1, 2, 3))


def test_rational_normal_curve_hyperosculation():
    for n in range(3, 7):
        inv = CurveInvariants(n, n, 0)
        assert inv.hyperosculation_index == 0


def test_surface_normal_bundle_classes():
    variety, normal = surface_geometry(3, SurfaceChernNumbers.from_degree(2))
    K, H, C2 = (variety.generator(n) for n in ("K", "H", "C2"))
    assert normal.rank == 2
    assert normal.chern_part(1) == K + 4 * H
    assert normal.chern_part(2) == K**2 - C2 + 5 * K * H + 9 * H**2


@pytest.mark.parametrize("d", range(2, 7))
def test_surface_engine_matches_degree_substitution(d):
    # integrating the engine-built classes agrees with substituting
    # K = (d-4)H and c2 = (d^2-4d+6)H^2 directly
    variety, normal = surface_geometry(3, SurfaceChernNumbers.from_degree(d))
    c1 = integrate(variety, normal.chern_part(1) * variety.generator("H"))
    assert c1 == (d - 4) * d + 4 * d
    c2 = integrate(variety, normal.chern_part(2))
    expected = d * (d - 4) ** 2 - d * (d * d - 4 * d + 6) + 5 * d * (d - 4) + 9 * d
    assert c2 == expected


def test_surface_integrals():
    variety, _ = surface_geometry(3, SurfaceChernNumbers.from_degree(5))
    K, H = variety.generator("K"), variety.generator("H")
    assert integrate(variety, K * H) == 5 * (5 - 4)
    assert integrate(variety, H * H) == 5
    assert integrate(variety, K) == 0  # below top degree


def test_hypersurface_canonical_class():
    for n, d in ((3, 2), (4, 3), (5, 2)):
        variety, _ = hypersurface_geometry(n, d)
        H = variety.generator("H")
        assert variety.cotangent.chern_part(1) == (d - n - 1) * H


def test_hypersurface_normal_bundle():
    variety, normal = hypersurface_geometry(2, 2)
    H = variety.generator("H")
    assert normal.rank == 2
    assert normal.chern_part(1) == 2 * H  # (d-1)H + H at d = 2
    variety3, normal3 = hypersurface_geometry(3, 1)
    assert normal3.chern_part(1) == variety3.generator("H")


def test_hypersurface_matches_surface_in_threespace():
    hv, hn = hypersurface_geometry(3, 4)
    H = hv.generator("H")
    assert hv.cotangent.chern_part(2) == (16 - 16 + 6) * H**2


def test_incomplete_descriptor_rejected(surface_table):
    cot = SheafData(2, unit(surface_table))
    with pytest.raises(IncompleteDescriptorError):
        VarietyDescriptor(2, 3, surface_table, cot, {(2, 0, 0): 1})


def test_incomplete_descriptor_rejected_over_a_checked_table(surface_table):
    # the table's top-degree monomials are memoized by the first check
    cot = SheafData(2, unit(surface_table))
    VarietyDescriptor(2, 3, surface_table, cot, dict.fromkeys(surface_table.monomials(2), 1))
    with pytest.raises(IncompleteDescriptorError, match=r"\(0, 2, 0\)"):
        VarietyDescriptor(2, 3, surface_table, cot, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1})


def test_integrate_requires_matching_table():
    variety, _ = surface_geometry(3, SurfaceChernNumbers.from_degree(2))
    foreign = GeneratorTable(("K", "H"), (1, 1), bound=2)
    with pytest.raises(TableMismatchError):
        integrate(variety, unit(foreign) + generator(foreign, "K"))


def test_integrate_returns_int():
    geom = curve_geometry(CurveInvariants(3, 3, 0))
    value = integrate(geom.variety, 5 * geom.variety.generator("H"))
    assert type(value) is int and value == 15


def test_non_int_integral_rejected(surface_table):
    cot = SheafData(2, unit(surface_table))
    integrals = {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 1): Fraction(1, 2)}
    with pytest.raises(TypeError):
        VarietyDescriptor(2, 3, surface_table, cot, integrals)
