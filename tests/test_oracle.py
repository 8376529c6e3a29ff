import os

import pytest
import sympy as sp

from evolute.oracle import (
    DegenerateCurveError,
    PlaneCurve,
    X,
    Y,
    canonical_text,
    center_of_curvature_system,
    oracle_check,
    x,
    y,
)
from evolute.selftest import check_oracle

ELLIPSE = "x**2/4 + y**2 - 1"
CUBIC = "x**3 + y**3 + x*y + x - 2*y + 1"


def test_plane_curve_validation():
    curve = PlaneCurve.from_expr(ELLIPSE)
    assert curve.degree == 2 and curve.genus == 0 and curve.cusps == 0
    assert curve.expected_evolute_degree == 6
    with pytest.raises(ValueError):
        PlaneCurve.from_expr("x**2")  # not squarefree
    with pytest.raises(ValueError):
        PlaneCurve.from_expr("1")
    with pytest.raises(ValueError):
        PlaneCurve.from_expr("x + z")


def test_cubic_default_genus():
    assert PlaneCurve.from_expr(CUBIC).genus == 1
    assert PlaneCurve.from_expr(CUBIC).expected_evolute_degree == 18


def test_circular_point_detection():
    assert PlaneCurve.from_expr("x**2 + y**2 - 1").through_circular_points()
    assert not PlaneCurve.from_expr(ELLIPSE).through_circular_points()
    assert not PlaneCurve.from_expr(CUBIC).through_circular_points()


def test_system_circle_forces_center():
    F, G1, G2 = center_of_curvature_system(PlaneCurve.from_expr("x**2 + y**2 - 1"))
    # on the circle the system reduces to X = 0, Y = 0
    on_curve = {x: sp.Rational(3, 5), y: sp.Rational(4, 5)}
    g1 = sp.expand(G1.subs(on_curve))
    g2 = sp.expand(G2.subs(on_curve))
    assert sp.solve(g1, X) == [0]
    assert sp.solve(g2, Y) == [0]


def test_system_ellipse_vertex_center():
    # center of curvature at the vertex (2, 0) of the 2-by-1 ellipse is (3/2, 0)
    F, G1, G2 = center_of_curvature_system(PlaneCurve.from_expr(ELLIPSE))
    at_vertex = {x: 2, y: 0}
    assert sp.solve(G1.subs(at_vertex), X) == [sp.Rational(3, 2)]
    assert sp.solve(G2.subs(at_vertex), Y) == [0]


def test_line_is_degenerate():
    with pytest.raises(DegenerateCurveError):
        center_of_curvature_system(PlaneCurve.from_expr("x"))
    with pytest.raises(DegenerateCurveError):
        center_of_curvature_system(PlaneCurve.from_expr("x*y"))


@pytest.mark.parametrize(
    "poly", ["(x**2+y**2-1)*(x-3)", "(x**2/4+y**2-1)*(x**2+4*y**2/9-1)"]
)
def test_reducible_curve_rejected(poly):
    with pytest.raises(DegenerateCurveError, match="irreducible over Q"):
        PlaneCurve.from_expr(poly)


def test_ellipse_evolute():
    result = oracle_check(PlaneCurve.from_expr(ELLIPSE))
    assert result.degree == 6
    assert result.match is True
    assert not result.flags
    # the four vertices' centers of curvature lie on the evolute
    for point in ((sp.Rational(3, 2), 0), (-sp.Rational(3, 2), 0), (0, 3), (0, -3)):
        assert result.polynomial.subs({X: point[0], Y: point[1]}) == 0
    # Lame-form sanity: no odd-degree monomials (symmetry in both axes)
    poly = sp.Poly(result.polynomial, X, Y)
    assert all(i % 2 == 0 and j % 2 == 0 for i, j in poly.monoms())


def test_ellipse_determinism():
    first = oracle_check(PlaneCurve.from_expr(ELLIPSE))
    second = oracle_check(PlaneCurve.from_expr(ELLIPSE))
    assert first.polynomial == second.polynomial
    assert first.text == second.text


def test_circle_flagged_not_failed():
    result = oracle_check(PlaneCurve.from_expr("x**2 + y**2 - 1"))
    assert result.match is None
    assert any("circular points" in f for f in result.flags)
    assert result.polynomial == sp.expand(X**2 + Y**2)
    assert result.degree == 2  # the degenerate d(d-1) case


def test_shifted_circle_center():
    result = oracle_check(PlaneCurve.from_expr("(x-1)**2 + (y+2)**2 - 9"))
    assert result.polynomial == sp.expand((X - 1) ** 2 + (Y + 2) ** 2)


def test_cubic_evolute_degree(battery_result):
    # check_oracle eliminates CUBIC and asserts degree 18, match and the
    # extraneity log line; the acceptance criterion shares this elimination
    name, ok, detail = battery_result(check_oracle)
    assert ok, f"{name}: {detail}"
    assert "cubic degree 18" in detail


def test_nodal_cubic_in_general_position():
    # the folium has one node (geometric genus 0) and a squarefree,
    # non-isotropic leading form; the weighted-invariant target
    # 6(d+g-1)-2k0 = 12 is met on the honest elimination
    folium = PlaneCurve.from_expr("x**3 + y**3 - 3*x*y", genus=0, cusps=0)
    result = oracle_check(folium)
    assert result.degree == 12
    assert result.match is True


def test_nodal_cubic_tangent_to_infinity_exploratory():
    # y^2 = x^2(x+1) is tangent to the line at infinity (leading form -x^3),
    # violating general position; the comparison is suspended, the
    # elimination itself stays exact and deterministic
    nodal = PlaneCurve.from_expr("y**2 - x**2*(x+1)", genus=0, cusps=0)
    assert not nodal.meets_infinity_transversally()
    result = oracle_check(nodal)
    assert result.match is None
    assert any("tangent to the line at infinity" in f for f in result.flags)
    assert result.degree == 6  # frozen observed value for regression


def test_canonical_text_deterministic():
    expr = sp.expand(3 * X**2 * Y - Y**3 + X - 7)
    assert canonical_text(expr) == "3*X**2*Y - Y**3 + X - 7"
    assert canonical_text(sp.Integer(0)) == "0"


@pytest.mark.skipif(
    not os.environ.get("EVOLUTE_RUN_QUARTIC"),
    reason="ten-minute budget case; set EVOLUTE_RUN_QUARTIC=1 to run",
)
def test_quartic_evolute_degree():
    result = oracle_check(PlaneCurve.from_expr("x**4 + y**4 + x*y + x - 2*y + 1"))
    assert result.degree == 36
    assert result.match is True
