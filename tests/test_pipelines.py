import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evolute import pipelines
from evolute.bundle import BundleSpace
from evolute.chow import integrate
from evolute.pipelines import (
    EnumerativeReport,
    curve_closed_forms,
    curve_report,
    hypersurface_report,
    locus_class,
    osculating_report,
    salmon_reference_report,
    salmon_surface_reference,
    sigma_degree,
    surface_closed_forms,
    surface_degree_forms,
    surface_report,
    surface_report_from_degree,
    trifogli_degree,
    vertices_count,
)
from evolute.selftest import (
    HYPERSURFACE_GRID,
    SURFACE_DEGREES,
    check_curve_grid,
    check_salmon_grid,
    hypersurface_point_ok,
    surface_point_ok,
)
from evolute.thom import UnsupportedCodimensionError
from evolute.varieties import (
    CurveInvariants,
    SurfaceChernNumbers,
    curve_geometry,
    osculating_rank,
    surface_geometry,
)


def _engine_degrees(report: EnumerativeReport) -> tuple[int, ...]:
    return tuple(r.engine_degree for r in report.results if r.k is not None)


# -- sigma degrees on the worked examples ------------------------------------


def test_twisted_cubic_sigma_degrees():
    geom = curve_geometry(CurveInvariants(3, 3, 0))
    space = BundleSpace(geom.variety, geom.normal_bundle)
    assert sigma_degree(space, 1) == 12
    assert sigma_degree(space, 2) == 15
    assert sigma_degree(space, 3) == 16


def test_quadric_surface_sigma_degree():
    variety, normal = surface_geometry(3, SurfaceChernNumbers.from_degree(2))
    assert sigma_degree(BundleSpace(variety, normal), 1) == 12


def test_sigma_degree_validation():
    geom = curve_geometry(CurveInvariants(3, 3, 0))
    space = BundleSpace(geom.variety, geom.normal_bundle)
    with pytest.raises(UnsupportedCodimensionError):
        sigma_degree(space, 5)
    with pytest.raises(ValueError):
        sigma_degree(space, 0)


def test_unreachable_evolute_rejected():
    with pytest.raises(UnsupportedCodimensionError, match="codimension"):
        curve_report(CurveInvariants(6, 6, 0))
    with pytest.raises(UnsupportedCodimensionError):
        surface_report(7, SurfaceChernNumbers(1, 1, 1, 1))


# -- symbolic specializations of the generic locus classes --------------------


def _abstract_space(r: int, n: int):
    """Base of dimension r with free symbols u1, u2 (cotangent Chern parts)
    and a sheaf with free symbols v1, v2."""
    from evolute.chow import SheafData, VarietyDescriptor
    from evolute.ring import GeneratorTable, generator, unit

    if r == 1:
        table = GeneratorTable(("u1", "v1"), (1, 1), bound=1)
        integrals = {m: 0 for m in table.monomials(1)}
        cot = SheafData(1, unit(table) + generator(table, "u1"))
        sheaf_chern = unit(table) + generator(table, "v1")
    else:
        table = GeneratorTable(("u1", "v1", "u2", "v2"), (1, 1, 2, 2), bound=2)
        integrals = {m: 0 for m in table.monomials(2)}
        cot = SheafData(2, unit(table) + generator(table, "u1") + generator(table, "u2"))
        sheaf_chern = unit(table) + generator(table, "v1") + generator(table, "v2")
    base = VarietyDescriptor(r, n, table, cot, integrals)
    return BundleSpace(base, SheafData(n - r + 1, sheaf_chern))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_curve_locus_classes_specialize(n):
    # r = 1 coefficient sets: (1, 2), 3*(1, 1) and 2*(3, 2) on (c1 cot, c1 F)
    space = _abstract_space(1, n)
    g = space.base.generator
    u1, v1 = g("u1"), g("v1")
    assert locus_class(space, 1) == u1 + 2 * v1
    assert locus_class(space, 2) == 3 * (u1 + v1)
    if n >= 3:
        assert locus_class(space, 3) == 2 * (3 * u1 + 2 * v1)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_surface_locus_classes_specialize(n):
    # r = 2 coefficient sets: envelope (1, 3, -2); cuspidal 2,-1,9,12,-6;
    # cusps 2*(11, -5, 29, 25, -10)
    space = _abstract_space(2, n)
    g = space.base.generator
    u1, v1, u2, v2 = g("u1"), g("v1"), g("u2"), g("v2")
    assert locus_class(space, 1) == u1 * v1 + 3 * v1**2 - 2 * v2
    assert (
        locus_class(space, 2)
        == 2 * u1**2 - u2 + 9 * u1 * v1 + 12 * v1**2 - 6 * v2
    )
    assert locus_class(space, 3) == 2 * (
        11 * u1**2 - 5 * u2 + 29 * u1 * v1 + 25 * v1**2 - 10 * v2
    )


# -- compiled classes against the uncompiled engine ---------------------------


def _fresh_degrees(variety, sheaf, top):
    space = BundleSpace(variety, sheaf)
    return tuple(sigma_degree(space, k) for k in range(1, top + 1))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    d=st.integers(1, 40),
    g=st.integers(0, 12),
    ks=st.lists(st.integers(0, 4), max_size=4),
)
def test_curve_report_matches_uncompiled_engine(n, d, g, ks):
    inv = CurveInvariants(n, d, g, tuple(ks[: n - 1]))
    geom = curve_geometry(inv)
    expected = _fresh_degrees(geom.variety, geom.normal_bundle, min(4, n))
    assert _engine_degrees(curve_report(inv)) == expected
    if n <= 4:
        assert vertices_count(inv) == expected[n - 1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 6), numbers=st.lists(st.integers(-50, 200), min_size=4, max_size=4))
def test_surface_report_matches_uncompiled_engine(n, numbers):
    chern = SurfaceChernNumbers(*numbers)
    variety, normal = surface_geometry(n, chern)
    expected = _fresh_degrees(variety, normal, min(4, n))
    assert _engine_degrees(surface_report(n, chern)) == expected


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 9),
    d=st.integers(1, 20),
    g=st.integers(0, 6),
    ks=st.lists(st.integers(0, 3), max_size=8),
)
def test_osculating_report_matches_uncompiled_engine(n, d, g, ks):
    inv = CurveInvariants(n, d, g, tuple(ks[: n - 1]))
    geom = curve_geometry(inv)
    (envelope,) = _fresh_degrees(geom.variety, geom.osculating_sheaf(n - 1), 1)
    rows = {r.locus: r.engine_degree for r in osculating_report(inv).results}
    assert rows["envelope of osculating hyperplanes"] == envelope


# -- closed forms -------------------------------------------------------------


def test_curve_closed_forms_examples():
    assert curve_closed_forms(3, 0, 0) == (12, 15, 16, 15)
    assert curve_closed_forms(1, 0, 0) == (0, -3, -8, -15)
    assert curve_closed_forms(2, 0, 0)[:2] == (6, 6)
    assert curve_closed_forms(4, 1, 0) == (24, 36, 48, 60)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 5),
    d=st.integers(1, 8),
    g=st.integers(0, 3),
    k0=st.integers(0, 3),
    k1=st.integers(0, 2),
)
def test_every_curve_row_matches_its_closed_form(n, d, g, k0, k1):
    stationary = (k0,) if n == 2 else (k0, k1)
    report = curve_report(CurveInvariants(n, d, g, stationary))
    assert [r.match for r in report.results] == [True] * min(n, 4)


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 10))
def test_plane_hypersurface_is_the_smooth_plane_curve(d):
    # a smooth plane curve of degree d has genus (d-1)(d-2)/2 and no cusps
    curve = curve_report(CurveInvariants(2, d, (d - 1) * (d - 2) // 2))
    assert _engine_degrees(hypersurface_report(2, d)) == _engine_degrees(curve)


def test_trifogli_closed_form():
    for n in range(2, 8):
        assert trifogli_degree(n, 2) == 6 * (n - 1)
    for d in range(1, 9):
        assert trifogli_degree(2, d) == 3 * d * (d - 1)
    assert trifogli_degree(3, 3) == 60


def test_trifogli_plane_curve_consistency():
    # a smooth plane curve of degree d has genus (d-1)(d-2)/2
    for d in range(2, 9):
        g = (d - 1) * (d - 2) // 2
        assert trifogli_degree(2, d) == curve_closed_forms(d, g, 0)[0]


def test_surface_closed_forms_degree_polynomials():
    for d in range(1, 11):
        numbers = SurfaceChernNumbers.from_degree(d)
        assert surface_closed_forms(numbers) == surface_degree_forms(d)
    assert surface_degree_forms(2) == (12, 24, 32)
    assert surface_degree_forms(3) == (60, 204, 684)
    assert surface_degree_forms(1) == (0, 0, 44)


def test_salmon_surface_reference_values():
    assert salmon_surface_reference(2) == (4, 6, 12)
    with pytest.raises(ValueError):
        salmon_surface_reference(1)


# -- reports ------------------------------------------------------------------


def test_curve_report_twisted_cubic():
    report = curve_report(CurveInvariants(3, 3, 0))
    assert _engine_degrees(report) == (12, 15, 16)
    assert all(r.match for r in report.results)
    assert all(i.holds for i in report.identities)
    assert report.passed
    assert report.results[1].locus == "cuspidal edge [evolute]"


def test_curve_report_elliptic_quartic():
    report = curve_report(CurveInvariants(3, 4, 1))
    assert _engine_degrees(report) == (24, 36, 48)
    relation = report.identities[0]
    assert relation.holds and relation.lhs == 24 and relation.rhs == 2 * 36 + 0 - 48


def test_curve_report_plane_conic():
    report = curve_report(CurveInvariants(2, 2, 0))
    assert _engine_degrees(report) == (6, 6)
    assert report.results[0].locus == "envelope [evolute]"
    assert report.results[1].locus.endswith("[vertices]")


def test_curve_report_line_flagged():
    report = curve_report(CurveInvariants(3, 1, 0))
    assert any("outside generic validity" in f for f in report.flags)
    assert report.passed  # polynomial evaluation still matches the closed form


def test_curve_report_with_cusps():
    report = curve_report(CurveInvariants(3, 4, 0, (2,)))
    assert _engine_degrees(report) == curve_closed_forms(4, 0, 2)[:3]


def test_curve_grid_against_closed_forms(battery_result):
    name, ok, detail = battery_result(check_curve_grid)
    assert ok, f"{name}: {detail}"


def test_surface_report_quadric():
    report = surface_report_from_degree(2)
    assert _engine_degrees(report) == (12, 24, 32)
    assert report.passed
    assert report.results[0].locus == "envelope [evolute]"


@pytest.mark.parametrize("d", SURFACE_DEGREES)
def test_surface_grid(d):
    assert surface_point_ok(d)


def test_surface_report_higher_ambient():
    # the three closed forms hold for surfaces in any ambient dimension
    numbers = SurfaceChernNumbers(K2=8, c2=4, KH=-4, H2=2)
    report = surface_report(5, numbers)
    assert report.passed
    assert [r.k for r in report.results] == [1, 2, 3, 4]
    assert report.results[2].locus == "cusps of cuspidal edge [evolute]"


def test_hypersurface_reports():
    report = hypersurface_report(3, 2)
    assert report.results[0].engine_degree == 12
    assert report.results[0].closed_form == 12
    # in 3-space the higher rows carry the surface closed forms
    assert report.results[1].closed_form == 24
    assert report.results[2].closed_form == 32
    assert report.passed

    report4 = hypersurface_report(4, 2)
    assert report4.results[0].engine_degree == 18
    assert report4.results[0].locus == "envelope [evolute]"

    # plane curves as hypersurfaces carry the curve forms at smooth genus
    plane = hypersurface_report(2, 4)
    genus = 3
    assert plane.results[0].closed_form == trifogli_degree(2, 4)
    assert plane.results[1].closed_form == curve_closed_forms(4, genus, 0)[1]
    assert plane.passed


@pytest.mark.parametrize(("n", "d"), HYPERSURFACE_GRID)
def test_hypersurface_grid(n, d):
    assert hypersurface_point_ok(n, d)


# -- Salmon characters --------------------------------------------------------


def _salmon_counts(inv):
    """The identities 3m + n + theta = envelope and 5m + alpha = evolute."""
    counts = [i for i in curve_report(inv).identities if i.name.startswith("Salmon")]
    assert len(counts) == 2
    return counts


def test_salmon_characters_twisted_cubic():
    # m = 3, strict dual class n = 3, theta = 0 and k2 = 0, so alpha = 0
    count1, count2 = _salmon_counts(CurveInvariants(3, 3, 0))
    assert (count1.lhs, count1.rhs) == (3 * 3 + 3 + 0, 12)
    assert (count2.lhs, count2.rhs) == (5 * 3 + 2 * 0 + 0, 15)


def test_salmon_strict_dual_class_is_second_developable():
    # the strict dual's class n = (3m + n + theta) - 3m - theta, with m = d
    # and theta = k1, equals the degree of the second developable
    for d in (3, 5):
        for g in (0, 2):
            for ks in ((0, 0), (2, 1), (1, 3)):
                count1, _ = _salmon_counts(CurveInvariants(3, d, g, ks))
                assert count1.lhs - 3 * d - ks[1] == osculating_rank(d, g, ks, 2)


def test_salmon_identities_grid(battery_result):
    name, ok, detail = battery_result(check_salmon_grid)
    assert ok, f"{name}: {detail}"


def test_salmon_identities_check_the_engine(monkeypatch):
    # Salmon's counts are compared with the engine's integrals, so a wrong
    # engine degree breaks the identities; the closed forms alone cannot
    inv = CurveInvariants(3, 3, 0)
    assert all(check.holds for check in _salmon_counts(inv))
    monkeypatch.setattr(pipelines, "integrate", lambda variety, cls: integrate(variety, cls) + 1)
    assert not any(check.holds for check in _salmon_counts(inv))


def test_salmon_identities_need_threespace():
    # Salmon's counts concern curves in 3-space: other reports carry none
    for n in (2, 4):
        assert curve_report(CurveInvariants(n, 3, 0)).identities == ()


# -- osculating ---------------------------------------------------------------


def test_osculating_twisted_cubic():
    report = osculating_report(CurveInvariants(3, 3, 0))
    rows = {r.locus: r for r in report.results}
    assert rows["osculating developable D^1"].engine_degree == 4
    assert rows["dual variety"].engine_degree == 4
    assert rows["envelope of osculating hyperplanes"].engine_degree == 4
    assert rows["hyperosculation index"].engine_degree == 0
    assert report.passed


@pytest.mark.parametrize("n", range(3, 13))
def test_osculating_rational_normal_curves(n):
    report = osculating_report(CurveInvariants(n, n, 0))
    rows = {r.locus: r for r in report.results}
    assert rows["envelope of osculating hyperplanes"].engine_degree == 2 * (n - 1)
    assert rows["hyperosculation index"].closed_form == 0
    assert report.passed


@settings(max_examples=60, deadline=2000)
@given(
    n=st.integers(2, 9),
    extra=st.integers(0, 3),
    g=st.integers(0, 2),
    ks=st.lists(st.integers(0, 2), max_size=8),
)
def test_osculating_realizable_matches_closed_form(n, extra, g, ks):
    inv = CurveInvariants(n, n + extra, g, tuple(ks[: n - 1]))
    assume(inv.hyperosculation_index >= 0)
    report = osculating_report(inv)
    rows = {r.locus: r for r in report.results}
    envelope = rows["envelope of osculating hyperplanes"].engine_degree
    # the envelope's degree written out, independently of the rank formula
    correction = sum((n - 1 - i) * k for i, k in enumerate(inv.stationary))
    assert envelope == 2 * (n * inv.degree + (n * n - n + 1) * (g - 1) - correction)
    assert report.passed


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 9),
    d=st.integers(1, 20),
    g=st.integers(0, 6),
    ks=st.lists(st.integers(0, 3), max_size=8),
)
def test_osculating_closed_forms_are_ranks(n, d, g, ks):
    inv = CurveInvariants(n, d, g, tuple(ks[: n - 1]))
    rank = [osculating_rank(d, g, inv.stationary, m) for m in range(n + 1)]
    rows = {r.locus: r.closed_form for r in osculating_report(inv).results}
    assert rows == {
        **{f"osculating developable D^{m}": rank[m] for m in range(1, n)},
        "dual variety": rank[1],
        "envelope of osculating hyperplanes": rank[n - 2] + rank[n],
        "hyperosculation index": rank[n],
    }


def test_osculating_rational_normal_quartic_second_developable():
    report = osculating_report(CurveInvariants(4, 4, 0))
    rows = {r.locus: r for r in report.results}
    assert rows["osculating developable D^2"].engine_degree == 6


def test_osculating_identity_with_stationary_indices():
    for inv in (
        CurveInvariants(3, 5, 1, (2, 1)),
        CurveInvariants(4, 6, 2, (1, 0, 2)),
        CurveInvariants(5, 7, 3, (0, 1, 1, 2)),
        CurveInvariants(2, 4, 1, (1,)),
    ):
        report = osculating_report(inv)
        assert all(i.holds for i in report.identities), inv


def test_osculating_unrealizable_flagged():
    inv = CurveInvariants(3, 2, 0, (3, 3))  # forces a negative top index
    assert inv.hyperosculation_index < 0
    report = osculating_report(inv)
    assert any("not realizable" in f for f in report.flags)


# -- vertices -----------------------------------------------------------------


def test_vertices_counts():
    assert vertices_count(CurveInvariants(2, 2, 0)) == 6
    assert vertices_count(CurveInvariants(3, 3, 0)) == 16
    # frozen from the closed form C(n+1,2)(2g-2) + (n+1)(3d+2g-2-k0) at n=4
    assert vertices_count(CurveInvariants(4, 4, 0)) == 30


def test_vertices_closed_form_cross_check():
    # independent evaluation of the vertex count for curve bases
    for n in (2, 3, 4):
        for d, g, k0 in ((3, 0, 0), (4, 1, 2), (6, 3, 1)):
            inv = CurveInvariants(n, d, g, (k0,))
            expected = (n + 1) * n // 2 * (2 * g - 2) + (n + 1) * (3 * d + 2 * g - 2 - k0)
            assert vertices_count(inv) == expected


def test_vertices_unsupported_ambient():
    with pytest.raises(UnsupportedCodimensionError):
        vertices_count(CurveInvariants(5, 5, 0))


# -- report plumbing ----------------------------------------------------------


def test_report_serialization_shape():
    report = curve_report(CurveInvariants(3, 3, 0))
    payload = report.to_dict()
    assert set(payload) == {"input", "results", "identities", "citations", "flags"}
    assert set(payload["results"][0]) == {"locus", "k", "engine_degree", "closed_form", "match"}
    assert set(payload["identities"][0]) == {"name", "lhs", "rhs", "holds"}


def test_salmon_reference_report():
    report = salmon_reference_report(6)
    values = [r.engine_degree for r in report.results]
    assert values == [348, 186, 1284]
    assert report.passed
