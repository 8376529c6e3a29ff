import ast
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import islice, permutations
from math import gcd, inf
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.densearith import dup_div
from sympy.polys.euclidtools import dup_inner_gcd, dup_rr_prs_gcd
from sympy.polys.euclidtools import dup_resultant as sympy_dup_resultant
from sympy.polys.factortools import dup_factor_list
from sympy.polys.galoistools import gf_from_int_poly, gf_irreducible_p
from sympy.polys.sqfreetools import dup_sqf_list

from evolute import intpoly, oracle, polyparse
from evolute.intpoly import (
    _CERTIFYING_PRIMES,
    _gcd,
    _irreducible_mod,
    derivative,
    dup_resultant,
    exquo,
    interpolate,
    irreducible,
    mul,
    pack,
    sampled,
    sqf_list,
    square_parts,
    stable_nodes,
    strip,
    unpack,
)
from evolute.oracle import (
    DegenerateCurveError,
    InconclusiveEliminationError,
    PlaneCurve,
    _certified_irreducible,
    _content_in_y,
    _discriminant,
    _discriminant_degree,
    _discriminant_width,
    _is_isotropic_factor,
    _normal_resultant,
    _normal_width,
    _normalize_sign,
    _simple_part,
    _square_split,
    _strip_content,
    _strip_extraneous,
    canonical_text,
    center_of_curvature_system,
    oracle_check,
)
from evolute.polyparse import MAX_DEGREE, MAX_POWER_BITS, TOO_LARGE, parse_polynomial
from evolute.pipelines import curve_report
from evolute.selftest import check_oracle
from evolute.varieties import CurveInvariants

x, y = sp.symbols("x y")
X, Y = sp.symbols("X Y")

ELLIPSE = "x**2/4 + y**2 - 1"
CUBIC = "x**3 + y**3 + x*y + x - 2*y + 1"
# 2**256 + 12345 written out: sympy's factor_list of this conic's evolute
# took over a minute; the certificates decide it without sympy
WIDE_CONIC = f"x**2 + {2**256 + 12345}*y**2 + x*y - 3*x + 2*y - 7"
RATIONAL_CUBIC = "x**3/2 + y**3/3 + x*y/5 + x - 2*y + 1"


def test_plane_curve_validation():
    curve = PlaneCurve.from_expr(ELLIPSE)
    assert PlaneCurve._fields == ("terms", "degree") and curve.degree == 2
    with pytest.raises(ValueError):
        PlaneCurve.from_expr("x**2")  # not squarefree
    with pytest.raises(ValueError):
        PlaneCurve.from_expr("1")
    with pytest.raises(ValueError, match="only x and y, got z$"):
        PlaneCurve.from_expr("x + z")
    with pytest.raises(ValueError, match="only x and y, got w, z$"):
        PlaneCurve.from_expr("x + z + w")
    for text in ("1/x", "sqrt(x) + y", "exp(x) + y", "x**2 + y**2.5 - 1", "x**2 + y**2 - 1 == 0"):
        with pytest.raises(ValueError, match="^curve must be a polynomial in x and y$"):
            PlaneCurve.from_expr(text)


def test_parser_evaluates_no_code(capsys):
    for text in (
        "print('evaluated') or x**2/4 + y**2 - 1",
        "__import__('os').getcwd() and x",
        "[x for x in ()] or y",
        "x.__class__",
        "lambda: x",
    ):
        with pytest.raises(ValueError, match="^curve must be a polynomial in x and y$"):
            PlaneCurve.from_expr(text)
    assert capsys.readouterr() == ("", "")


def test_parser_messages():
    with pytest.raises(ValueError, match="^curve may involve only x and y, got I$"):
        PlaneCurve.from_expr("x**2 + y**2 - 1 + I")
    with pytest.raises(ValueError, match="^--poly does not parse: invalid syntax$"):
        PlaneCurve.from_expr("x**2 +")
    for text in ("x**-1", "x**y", "x/(y - y)", "x/0", "True*x", "1j*x + y", "'x' + y"):
        with pytest.raises(ValueError, match="^curve must be a polynomial in x and y$"):
            parse_polynomial(text)


def test_parser_caps_degree_size_and_depth():
    assert max(map(sum, parse_polynomial(f"x**{MAX_DEGREE} + y"))) == MAX_DEGREE
    for text in (
        f"x**{MAX_DEGREE + 1}",
        f"(x + y)**{MAX_DEGREE // 2} * (x - y)**{MAX_DEGREE // 2 + 1}",
        "((x + 1)**5)**5",
        "((2**24)**24)**24 * x",
    ):
        with pytest.raises(ValueError, match="^curve polynomial too large"):
            parse_polynomial(text)
    with pytest.raises(ValueError, match="^curve must be a polynomial"):
        parse_polynomial("x**10**9")
    # a long sum is folded in a loop; deep nesting is refused, not a crash
    assert parse_polynomial(" + ".join(["x"] * 2000)) == _exact_terms(2000 * x)
    with pytest.raises(ValueError, match="^curve polynomial nested too deeply$"):
        parse_polynomial("-" * 5000 + "x")


def _integer_terms(poly):
    """The integer terms of a sympy `Poly` with its denominators cleared."""
    return {m: int(c) for m, c in poly.clear_denoms(convert=True)[1].rep.to_dict().items()}


def _exact_terms(expr):
    """The terms of a sympy expression in (x, y), the reference for
    `parse_polynomial`: exponents -> nonzero `Fraction` coefficient."""
    return {m: Fraction(int(c.p), int(c.q)) for m, c in sp.Poly(expr, x, y).terms() if c}


def _denominators(terms):
    return {c.denominator for c in terms.values()}


def test_parser_exact_coefficients_and_domain():
    assert _denominators(parse_polynomial("x**2 + y**2 - 1")) == {1}
    assert _denominators(parse_polynomial("2.0*x**2 + 6/3*y - 1")) == {1}
    quarter = parse_polynomial("0.25*x**2 + y**2 - 1")
    assert _denominators(quarter) == {4, 1}
    assert quarter == _exact_terms(x**2 / 4 + y**2 - 1)
    assert parse_polynomial("0.1*x") == {(1, 0): Fraction(1, 10)}
    # ^ is read as ** before parsing, so it keeps the precedence of **
    assert parse_polynomial("-x^2*3 + y^3") == parse_polynomial("-x**2*3 + y**3")
    assert parse_polynomial("-x^2*3 + y^3") == _exact_terms(-3 * x**2 + y**3)


# a power applies to a leaf only, so no text reaches the degree or size caps
_LEAF_TEXT = st.one_of(
    st.sampled_from(["x", "y"]),
    st.integers(0, 99).map(str),
    st.builds("{}.{}".format, st.integers(0, 99), st.integers(0, 99)),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-3, 3)),
).flatmap(lambda leaf: st.sampled_from([leaf, f"{leaf}**0", f"{leaf}**2", f"{leaf}**3"]))
_POLY_TEXT = st.recursive(
    _LEAF_TEXT,
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*"), inner),
        st.builds("{}/{}".format, inner, st.integers(1, 9)),
        st.builds("-{}".format, inner),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(_POLY_TEXT)
def test_parser_matches_sympify(text):
    assert parse_polynomial(text) == _exact_terms(sp.sympify(text, rational=True))
    # the degree carried through the build is that of the terms it built
    terms, d = polyparse._build(ast.parse(text, mode="eval").body, text)
    assert d == polyparse.degree(terms)


def test_parser_cap_boundaries():
    # each cap admits its boundary value and refuses the next one with one message
    for admitted, refused in (
        (f"x**{MAX_DEGREE}", f"x**{MAX_DEGREE + 1}"),
        ("x**12 * y**12", "x**12 * y**13"),
        (f"{2**255}**16 * x", f"{2**256}**16 * x"),  # 256 * 16 and 257 * 16 bits
        ("1e1233*x", "1e1234*x"),  # 10**1233 has 4096 bits
        ("1e-1233*x", "1e-1234*x"),
        (f"{5**4095}e-4095*x", f"{5**4096}e-4096*x"),  # x / 2**4095 and x / 2**4096
        # a cancelled head lowers the degree the caps see; a zero factor has degree 0
        (f"(x**2 + y - x**2)**{MAX_DEGREE}", f"(x**2 + y - x**3)**{MAX_DEGREE}"),
        (f"(x**9 - x**9) * y**{MAX_DEGREE}", f"(x**9 - x**9 + x) * y**{MAX_DEGREE}"),
    ):
        assert parse_polynomial(admitted) == _exact_terms(sp.sympify(admitted, rational=True))
        with pytest.raises(ValueError, match=f"^{TOO_LARGE}$"):
            parse_polynomial(refused)


def test_decimal_literals_are_capped_before_they_are_built():
    assert parse_polynomial("x + 1e400") == _exact_terms(x + 10**400)  # 1 329 bits
    assert parse_polynomial("0e99999999999999999999 + x") == _exact_terms(x)
    started = time.monotonic()
    # the last two exponents are beyond the range of decimal.Decimal
    huge = ("1e99999999999999999999", "7.5e-99999999999999999999")
    for literal in ("1e9999999", "1e-9999999", *huge):
        with pytest.raises(ValueError, match=f"^{TOO_LARGE}$"):
            parse_polynomial(f"x**2 + y**2 - {literal}")
    assert time.monotonic() - started < 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**30),
    st.text("0123456789", max_size=30),
    st.one_of(st.integers(-1300, -1180), st.integers(1180, 1300), st.integers(-4200, -4000)),
)
def test_decimal_cap_is_exact(whole, fraction, exponent):
    literal = f"{whole}.{fraction}e{exponent}"
    exact = Fraction(literal)  # exponents this small are cheap to build
    if max(abs(exact.numerator).bit_length(), exact.denominator.bit_length()) > MAX_POWER_BITS:
        with pytest.raises(ValueError, match=f"^{TOO_LARGE}$"):
            parse_polynomial(f"{literal}*x")
    else:
        value = sp.Rational(exact.numerator, exact.denominator)
        assert parse_polynomial(f"{literal}*x") == _exact_terms(value * x)


def test_integer_literals_are_capped():
    # 2**4096 - 1 is the largest integer of at most MAX_POWER_BITS bits
    admitted = 2**MAX_POWER_BITS - 1
    assert parse_polynomial(f"{admitted}*x + y") == _exact_terms(admitted * x + y)
    # 10**1300 written out (1 301 digits, 4 319 bits) is refused like 1e1300
    for literal in (2**MAX_POWER_BITS, 10**1300):
        with pytest.raises(ValueError, match=f"^{TOO_LARGE}$"):
            parse_polynomial(f"x**2 + 2*y**2 - {literal}")


def test_cubic_default_genus(shared_oracle_check):
    # a smooth cubic: R's content is constant, so the genus is the smooth 1
    # and the target 6(3 + 1 - 1) = 18
    result = shared_oracle_check(PlaneCurve.from_expr(CUBIC))
    assert result.expected_degree == 18
    assert not any("removed content" in line for line in result.log)


def test_circular_point_detection():
    assert PlaneCurve.from_expr("x**2 + y**2 - 1").through_circular_points()
    assert not PlaneCurve.from_expr(ELLIPSE).through_circular_points()
    assert not PlaneCurve.from_expr(CUBIC).through_circular_points()


def test_system_circle_forces_center():
    F, H = center_of_curvature_system(PlaneCurve.from_expr("x**2 + y**2 - 1"))
    F, H = _as_poly(F, x, y), _as_poly(H, x, y, X, Y)
    assert (F.gens, H.gens) == ((x, y), (x, y, X, Y))
    # the normal at (3/5, 4/5) is the line 4 X = 3 Y through the centre
    on_curve = {x: sp.Rational(3, 5), y: sp.Rational(4, 5)}
    assert sp.expand(H.as_expr().subs(on_curve) * 5 / 2) == 4 * X - 3 * Y


def _as_poly(terms, *gens):
    """The oracle's integer terms (exponents -> coefficient) in `gens`, by
    default a sampled R(x; X, Y), as a Poly."""
    return sp.Poly.from_dict(terms, *(gens or (x, X, Y)))


def _curve(F):
    """The integer curve of a Poly F in (x, y)."""
    return PlaneCurve(_integer_terms(F), F.total_degree())


def test_system_ellipse_vertex_center():
    F, H = center_of_curvature_system(PlaneCurve.from_expr(ELLIPSE))
    # the normal at the vertex (2, 0) of the 2-by-1 ellipse is the X axis
    assert sp.factor_list(_as_poly(H, x, y, X, Y).as_expr().subs({x: 2, y: 0}))[1] == [(Y, 1)]
    # at its centre of curvature (3/2, 0) two critical points of the distance
    # merge: R(x; 3/2, 0) has the double root x = 2
    R = _as_poly(_normal_resultant(F, H)).as_expr().subs({X: sp.Rational(3, 2), Y: 0})
    assert sp.Poly(R, x).rem(sp.Poly((x - 2) ** 2, x)).is_zero


@st.composite
def _integer_or_rational_curves(draw):
    """A Poly in (x, y) of degree at most 1..4, with integer coefficients
    or with denominators up to 6."""
    d = draw(st.integers(1, 4))
    denominators = st.just(1) if draw(st.booleans()) else st.integers(1, 6)
    return sp.Poly.from_dict(
        {
            (i, j): sp.Rational(draw(st.integers(-3, 3)), draw(denominators))
            for i in range(d + 1)
            for j in range(d + 1 - i)
        },
        x,
        y,
    )


@settings(max_examples=80, deadline=None)
@given(_integer_or_rational_curves())
@example(sp.Poly(x**3 / 2 + y**3 / 3 + x * y / 5 + x - 2 * y + 1, x, y))
def test_normal_condition_matches_sympy(F):
    # H is built on the integer terms of F; sympy differentiates the same
    # cleared F as an expression
    assume(not F.is_ground)
    cleared = F.clear_denoms(convert=True)[1].as_expr()
    curve = _curve(F)
    if curve.degree < 2:
        with pytest.raises(DegenerateCurveError):
            center_of_curvature_system(curve)
        return
    F_terms, H = center_of_curvature_system(curve)
    reference = sp.diff(cleared, y) * (X - x) - sp.diff(cleared, x) * (Y - y)
    assert _as_poly(F_terms, x, y) == sp.Poly(cleared, x, y)
    assert _as_poly(H, x, y, X, Y) == sp.Poly(reference, x, y, X, Y)


def _cleared(text):
    """sympy's reference for a curve's integer terms: the text's polynomial
    with its denominators cleared by `clear_denoms`."""
    poly = sp.Poly(sp.sympify(text, rational=True), x, y).clear_denoms(convert=True)[1]
    return {m: int(c) for m, c in poly.terms() if c}


@settings(max_examples=100, deadline=None)
@given(st.one_of(_POLY_TEXT, _integer_or_rational_curves().map(lambda F: str(F.as_expr()))))
@example(RATIONAL_CUBIC)
@example("0.25*x**2 + y**2/3 - 1.5")
def test_from_expr_clears_denominators_like_sympy(text):
    try:
        curve = PlaneCurve.from_expr(text)
    except ValueError:  # constant, reducible, not squarefree or too costly
        return
    assert curve.terms == _cleared(text)


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
    poly = sp.Poly.from_dict(result.terms, X, Y)
    for point in ((sp.Rational(3, 2), 0), (-sp.Rational(3, 2), 0), (0, 3), (0, -3)):
        assert poly.eval({X: point[0], Y: point[1]}) == 0
    # Lame-form sanity: no odd-degree monomials (symmetry in both axes)
    assert all(i % 2 == 0 and j % 2 == 0 for i, j in poly.monoms())


def test_ellipse_determinism():
    first = oracle_check(PlaneCurve.from_expr(ELLIPSE))
    second = oracle_check(PlaneCurve.from_expr(ELLIPSE))
    assert first.terms == second.terms
    assert first.text == second.text


def test_circle_flagged_not_failed():
    result = oracle_check(PlaneCurve.from_expr("x**2 + y**2 - 1"))
    assert result.match is None
    assert any("circular points" in f for f in result.flags)
    assert sp.Poly.from_dict(result.terms, X, Y) == sp.Poly(X**2 + Y**2, X, Y)
    assert result.degree == 2  # the degenerate d(d-1) case


def test_shifted_circle_center():
    result = oracle_check(PlaneCurve.from_expr("(x-1)**2 + (y+2)**2 - 9"))
    assert sp.Poly.from_dict(result.terms, X, Y) == sp.Poly((X - 1) ** 2 + (Y + 2) ** 2, X, Y)


def test_cubic_evolute_degree(battery_result):
    # check_oracle eliminates CUBIC and asserts degree 18, match and the
    # extraneity log line; the acceptance criterion shares this elimination
    name, ok, detail = battery_result(check_oracle)
    assert ok, f"{name}: {detail}"
    assert "cubic degree 18" in detail and "folium degree 12" in detail


def test_nodal_cubic_in_general_position():
    # the folium has one node, read off R's content (geometric genus 0), and
    # a squarefree, non-isotropic leading form; the weighted-invariant
    # target 6(d+g-1)-2k0 = 12 is met on the honest elimination
    folium = PlaneCurve.from_expr("x**3 + y**3 - 3*x*y")
    result = oracle_check(folium)
    assert result.log[0] == "removed content of degree 2 in x (singular points: nodes 1, cusps 0)"
    assert result.degree == result.expected_degree == 12
    assert result.match is True


def test_nodal_cubic_tangent_to_infinity_exploratory():
    # y^2 = x^2(x+1) is tangent to the line at infinity (leading form -x^3),
    # violating general position; the comparison is suspended, the
    # elimination itself stays exact and deterministic
    nodal = PlaneCurve.from_expr("y**2 - x**2*(x+1)")
    assert not nodal.meets_infinity_transversally()
    result = oracle_check(nodal)
    assert result.match is None
    assert any("tangent to the line at infinity" in f for f in result.flags)
    assert result.degree == 6  # frozen observed value for regression


def _nodes(count):
    return [(k + 1) // 2 * (-1) ** (k + 1) for k in range(count)]  # 0, 1, -1, 2, -2, ...


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-(2**300), 2**300), min_size=1, max_size=61),
    st.integers(0, 3),
)
def test_interpolate_recovers_integer_polynomial(coeffs, extra):
    nodes = _nodes(len(coeffs) + extra)
    samples = [sum(c * t**k for k, c in enumerate(coeffs)) for t in nodes]
    expected = list(coeffs)
    while len(expected) > 1 and not expected[-1]:
        expected.pop()
    result = interpolate(nodes, samples)
    assert result == expected
    assert all(type(c) is int for c in result)


def test_interpolate_rejects_non_integer_polynomial():
    # the parabola through (0, 0), (1, 1), (-1, 0) is (t + t**2)/2
    with pytest.raises(ArithmeticError):
        interpolate([0, 1, -1], [0, 1, 0])


@pytest.mark.parametrize(
    "factor, isotropic",
    [
        ((X**2 + Y**2) ** 2 + X, True),
        (2 * X**2 + 2 * Y**2 - 1, True),
        ((X**2 + Y**2) ** 3 + Y**5, True),
        (X**2 - Y**2, False),
        (X**2 + 2 * Y**2 + X, False),
        ((X**2 + Y**2) * X + Y, False),
    ],
)
def test_is_isotropic_factor(factor, isotropic):
    assert _is_isotropic_factor(_integer_terms(sp.Poly(factor, X, Y))) is isotropic


def _proportional(P, Q):
    return P.is_zero == Q.is_zero and (P * Q.LC() - Q * P.LC()).is_zero


@pytest.mark.parametrize("conic", [ELLIPSE, "2*x**2 - 3*x*y + 4*y**2 + x - 2*y - 3"])
def test_grid_resultant_matches_direct_resultant(conic):
    F, H = center_of_curvature_system(PlaneCurve.from_expr(conic))
    R = _normal_resultant(F, H)
    direct = sp.resultant(_as_poly(F, x, y).as_expr(), _as_poly(H, x, y, X, Y).as_expr(), y)
    assert _proportional(_as_poly(R), sp.Poly(direct, x, X, Y))
    disc = sp.Poly(sp.discriminant(direct, x), X, Y)
    assert disc.total_degree() > 0
    assert _proportional(_as_poly(_discriminant(_strip_content(R, [])[0]), X, Y), disc)


def _sylvester_determinant(f, g):
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g + [0] * (m - 1 - i) for i in range(m)]
    return sp.Matrix(rows).det(method="domain-ge")  # two constants: the empty matrix, det 1


_DESCENDING = st.builds(
    lambda head, tail: [head, *tail],
    st.integers(-9, 9).filter(bool),
    st.lists(st.integers(-9, 9), max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(_DESCENDING, _DESCENDING)
def test_kernel_resultant_is_sylvester_determinant(f, g):
    # sympy's dup_resultant is only a reference when deg f >= deg g: for
    # deg f < deg g with deg f * deg g odd its sign is off, e.g.
    # sp.resultant(-5*x - 5, -5*x**5 + 5*x**4 + 3*x**3 - 5*x**2 + x + 5) gives
    # 18750, where lc(f)**deg(g) * prod(g(roots of f)) = (-5)**5 * 6 = -18750
    for a, b in ((f, g), (g, f)):
        res = dup_resultant(a, b)
        assert type(res) is int
        assert res == _sylvester_determinant(a, b)
        if len(a) >= len(b):
            assert res == sympy_dup_resultant(a, b, sp.ZZ)


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _plus(f, g):
    width = max(len(f), len(g))
    return [a + b for a, b in zip([0] * (width - len(f)) + f, [0] * (width - len(g)) + g)]


_HEAD = st.integers(-9, 9).filter(bool)


@st.composite
def _kernel_inputs(draw):
    """(f, g) whose first pseudo-division has degree gap 0, 1 or >= 2, or whose
    first remainder drops degree: f = q g + r with deg r <= deg g - 2 (r = 0
    included, a common factor)."""
    db = draw(st.integers(1, 6))
    g = [draw(_HEAD)] + draw(st.lists(st.integers(-9, 9), min_size=db, max_size=db))
    shape = draw(st.sampled_from(["gap 0", "gap 1", "gap 2+", "degree drop"]))
    if shape == "degree drop":
        q = [draw(_HEAD)] + draw(st.lists(st.integers(-9, 9), max_size=2))
        return _plus(_times(q, g), draw(st.lists(st.integers(-9, 9), max_size=db - 1))), g
    delta = {"gap 0": 0, "gap 1": 1}.get(shape) or draw(st.integers(2, 4))
    tail = st.lists(st.integers(-9, 9), min_size=db + delta, max_size=db + delta)
    return [draw(_HEAD)] + draw(tail), g


@settings(max_examples=200, deadline=None)
@given(_kernel_inputs())
def test_kernel_fast_paths_are_sylvester_determinant(inputs):
    f, g = inputs
    for a, b in ((f, g), (g, f)):
        assert dup_resultant(a, b) == _sylvester_determinant(a, b)


_BIG = st.integers(-(2**300), 2**300)


@st.composite
def _normal_pairs(draw):
    """(f, g) of degrees n and n - 1, n in 8..16, at the oracle's sample
    size: f with coefficients up to 2**300 and g = f', or the remainder
    chain r(k + 1) = q(k) r(k) + r(k - 1) built up from a constant r(0) with
    linear quotients q(k), whose subresultant PRS has degree gap 1 at every
    step and whose coefficients grow to about 2**300."""
    n = draw(st.integers(8, 16))
    if draw(st.booleans()):
        f = [draw(_BIG.filter(bool))] + draw(st.lists(_BIG, min_size=n, max_size=n))
        return f, derivative(f)
    small = st.integers(-(2 ** (300 // n)), 2 ** (300 // n))
    low, chain = [], [draw(small.filter(bool))]
    for _ in range(n):
        q = [draw(small.filter(bool)), draw(small)]
        low, chain = chain, _plus(_times(q, chain), low)
    return chain, low


@settings(max_examples=10, deadline=None)
@given(_normal_pairs())
def test_normal_steps_at_oracle_scale_are_sylvester_determinant(inputs):
    assert dup_resultant(*inputs) == _sylvester_determinant(*inputs)


_CURVE_TERMS = st.integers(2, 3).flatmap(
    lambda d: st.fixed_dictionaries(
        {(i, j): st.integers(-2, 2) for i in range(d + 1) for j in range(d + 1 - i)}
    )
)


def _normal_system(terms):
    F = sp.Poly.from_dict(terms, x, y)
    assume(F.total_degree() >= 2)
    return center_of_curvature_system(_curve(F))


# x**2 y + 2 y**2 + x - 1: H's head in y is 2 x, which vanishes at x = 0
# while H does not, so the x nodes avoid its zeros as well as lc_y(F)'s
_HEAD_DROPS = {(2, 1): 1, (0, 2): 2, (1, 0): 1, (0, 0): -1}


@settings(max_examples=25, deadline=None)
@given(_CURVE_TERMS)
@example(_HEAD_DROPS)
def test_normal_resultant_matches_sympy_resultant(terms):
    # zero coefficients let the heads of F and H in y vary, down to
    # constants and to degree drops at sample nodes
    F, H = _normal_system(terms)
    F_expr, H_expr = _as_poly(F, x, y).as_expr(), _as_poly(H, x, y, X, Y).as_expr()
    reference = sp.Poly(sp.resultant(F_expr, H_expr, y), x, X, Y)
    if reference.is_zero:
        with pytest.raises(InconclusiveEliminationError):
            _normal_resultant(F, H)
    else:
        assert _proportional(_as_poly(_normal_resultant(F, H)), reference)


_R_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool),
    min_size=2,
    max_size=10,
)


# `_PACKED_BITS` values that make `_discriminant` sample every D on the
# lower-set grid, and pack every X node, whatever the size of its samples
_D_PATHS = (0, inf)


@contextmanager
def _packed_bits(bits):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_PACKED_BITS", bits)
        yield


@settings(max_examples=60, deadline=None)
@given(_R_TERMS)
# lc_x(R) = X - Y vanishes on the diagonal, so the Y nodes avoid every X node
@example({(2, 1, 0): 1, (2, 0, 1): -1, (1, 0, 0): 1, (0, 0, 1): 1})
# a linear R: the discriminant is the constant 1
@example({(1, 1, 0): 2, (0, 0, 1): 1})
# R = x**2 + X x + Y**2: disc = X**2 - 4 Y**2, max-plus bound 2, Sylvester 6
@example({(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): 1})
@example({(3, 0, 1): 1, (2, 1, 0): 1})  # x**2 divides R: D = 0
def test_total_degree_bound_holds(terms):
    # the T + 1 X nodes of total degree T = `_discriminant_degree(R)`, at
    # most the Sylvester bound (2m - 1) e - deg lc_x(R), fix the
    # discriminant, which the samples reproduce on the lower-set grid and
    # packed, as the same D
    R = _as_poly(terms)
    m = R.degree(x)
    assume(m > 0)
    e = max(a + b for _, a, b in R.monoms())
    lead = max(a + b for i, a, b in R.monoms() if i == m)
    reference = sp.Poly(sp.discriminant(R.as_expr(), x), X, Y)
    if not reference.is_zero:
        assert reference.total_degree() <= _discriminant_degree(terms) <= (2 * m - 1) * e - lead
    paths = []
    for bits in _D_PATHS:
        with _packed_bits(bits):
            if reference.is_zero:
                with pytest.raises(DegenerateCurveError):
                    _discriminant(terms)
            else:
                paths.append(_discriminant(terms))
                assert _proportional(_as_poly(paths[-1], X, Y), reference)
    assert paths[1:] == paths[:-1]


def _below_width(reference, k):
    """Whether every coefficient of the Poly `reference` is below
    2**(k - 1) in size: its balanced base-2**k digits decode it exactly."""
    return all(abs(c) < 2 ** (k - 1) for c in reference.coeffs())


@settings(max_examples=40, deadline=None)
@given(_CURVE_TERMS)
@example(_HEAD_DROPS)
def test_normal_width_covers_normal_resultant(terms):
    # every coefficient of R = Res_y(F, H) in (x, X, Y), not only those of
    # one x node's sample, is within `_normal_resultant`'s one width
    F, H = _normal_system(terms)
    F_expr, H_expr = _as_poly(F, x, y).as_expr(), _as_poly(H, x, y, X, Y).as_expr()
    reference = sp.Poly(sp.resultant(F_expr, H_expr, y), x, X, Y)
    assert _below_width(reference, _normal_width(F, H))


@settings(max_examples=60, deadline=None)
@given(_R_TERMS)
@example({(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): 1})
@example({(1, 1, 0): 2, (0, 0, 1): 1})  # m = 1
def test_discriminant_width_covers_discriminant(terms):
    # every coefficient of disc_x(R) in (X, Y), and of lc_x(R), is within the
    # packed path's one width, Hadamard's bound on the (2m - 2)-square
    # determinant that equals disc_x(R), with no allowance for a factor
    R = _as_poly(terms)
    T = _discriminant_degree(terms)
    assume(R.degree(x) > 0 and T >= 0)
    k = _discriminant_width(terms)
    assert _below_width(sp.Poly(sp.discriminant(R.as_expr(), x), X, Y), k)
    assert _below_width(sp.Poly(sp.Poly(R.as_expr(), x).LC(), X, Y), k)


@st.composite
def _wide_conics(draw):
    """The text of a conic whose six coefficients have up to 1..40 bits."""
    bits = draw(st.integers(1, 40))
    coefficient = st.integers(-(2**bits), 2**bits)
    terms = {(i, j): draw(coefficient) for i in range(3) for j in range(3 - i)}
    return " + ".join(f"({c})*x**{i}*y**{j}" for (i, j), c in terms.items())


@settings(max_examples=25, deadline=None)
@given(_wide_conics())
# 20 bits, on the grid by default
@example("1048573*x**2 - 987651*x*y + 654321*y**2 + 876543*x - 1000003*y + 777777")
@example("137*x**2 - 201*x*y + 89*y**2 + 173*x - 255*y + 97")  # 8 bits, packed
def test_oracle_report_is_the_same_on_both_discriminant_paths(text):
    # conics of about 16 bits and more take the packed path only when it is
    # forced
    try:
        curve = PlaneCurve.from_expr(text)
    except ValueError:
        assume(False)
    assume(curve.degree == 2)
    reports = []
    for bits in _D_PATHS:
        with _packed_bits(bits):
            try:
                reports.append(oracle_check(curve).to_dict())
            except (DegenerateCurveError, InconclusiveEliminationError) as error:
                reports.append(repr(error))
    assert reports[0] == reports[1]


def test_packed_term_beyond_the_degree_is_refused(monkeypatch):
    # R has total degree at most deg_y F = 2 in (X, Y): the digit of t**9,
    # X**0 Y**3 with Y = t**3, cannot come from a sample
    F, H = center_of_curvature_system(PlaneCurve.from_expr(ELLIPSE))
    k = _normal_width(F, H)
    monkeypatch.setattr(oracle, "dup_resultant", lambda f, g: 1 << 9 * k)
    with pytest.raises(ArithmeticError, match="beyond its degree"):
        _normal_resultant(F, H)


def test_packed_discriminant_term_beyond_the_degree_is_refused(monkeypatch):
    # the ellipse's D has total degree at most T = 10: a quotient 2**(11 k)
    # at every X node interpolates to the digit of X**0 Y**11
    system = center_of_curvature_system(PlaneCurve.from_expr(ELLIPSE))
    R = _strip_content(_normal_resultant(*system), [])[0]
    T = _discriminant_degree(R)
    k = _discriminant_width(R)
    monkeypatch.setattr(oracle, "dup_resultant", lambda f, g: f[0] << k * (T + 1))
    with _packed_bits(_D_PATHS[1]), pytest.raises(ArithmeticError, match="beyond its degree"):
        _discriminant(R)


@st.composite
def _packable(draw):
    """(f, k): a list of balanced base-2**k digits, each in (-2**(k - 1),
    2**(k - 1)], both ends and zero drawn often, leading zeros included."""
    k = draw(st.integers(1, 80))
    half = 1 << (k - 1)
    digit = st.one_of(st.sampled_from([1 - half, 0, half]), st.integers(1 - half, half))
    return draw(st.lists(digit, max_size=8)), k


@settings(max_examples=200, deadline=None)
@given(_packable())
@example(([], 1))
@example(([0, 0, 1, 0], 1))
@example(([-3, 4, 0, 4], 3))  # both ends of the digit range
def test_unpack_inverts_pack(case):
    f, k = case
    assert unpack(pack(f, k), k) == strip(f)


@st.composite
def _packed_in_x(draw):
    """(terms, k): a nonzero integer polynomial in (x, Y), as (i, e) -> c for
    x**i Y**e, whose coefficients are balanced base-2**k digits, both ends
    and zero drawn often."""
    k = draw(st.integers(1, 40))
    half = 1 << (k - 1)
    digit = st.one_of(st.sampled_from([1 - half, 0, half]), st.integers(1 - half, half))
    rows = draw(st.lists(st.lists(digit, max_size=5), min_size=1, max_size=6))
    terms = {(i, e): c for i, row in enumerate(rows) for e, c in enumerate(row) if c}
    assume(terms)
    return terms, k


@settings(max_examples=150, deadline=None)
@given(_packed_in_x())
@example(({(0, 0): -3, (0, 1): 4, (2, 2): 4}, 3))  # both ends of the digit range
@example(({(0, 0): 1}, 1))
def test_sampled_reads_back_the_packed_digits(case):
    # one operand with one row, P(x; Y) packed at Y = 2**k, and the sample
    # its value: the kernel's interpolation and unpacking alone
    terms, k = case
    n = max(i for i, _ in terms) + 1
    top = max(e for _, e in terms)
    row = [pack([terms.get((i, e), 0) for e in range(top, -1, -1)], k) for i in range(n)][::-1]
    digits = list(sampled([[row]], n, k, lambda f0: f0[0]))
    assert digits == sorted((i, e, c) for (i, e), c in terms.items())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.lists(st.integers(-6, 6), max_size=3)), min_size=1,
                max_size=3))
def test_stable_nodes_skip_exactly_the_zeros_of_the_leads(leads):
    # each lead is a nonzero constant times (x - r) over its drawn roots r:
    # the nodes are 0, 1, -1, 2, -2, ... without those roots
    polys = [reduce(mul, ([1, -r] for r in roots), [c]) for c, roots in leads]
    roots = {r for _, rs in leads for r in rs}
    order = [0] + [s * v for v in range(1, 13) for s in (1, -1)]
    assert list(islice(stable_nodes(polys), 12)) == [t for t in order if t not in roots][:12]


def test_stable_nodes_refuse_a_zero_lead_before_any_node():
    assert oracle.InconclusiveEliminationError is intpoly.InconclusiveEliminationError
    for zero in ([], [0], [0, 0, 0]):
        nodes = stable_nodes([[1, 2], zero])
        with pytest.raises(InconclusiveEliminationError, match="stable sample points"):
            next(nodes)


def _content_by_gcd_fold(R):
    """R divided by the gcd of its X**a Y**b columns, with the log line and
    the content's multiplicities -> degrees, by sympy's `sqf_list`."""
    columns = {}
    for (i, a, b), c in R.items():
        columns.setdefault((a, b), {})[(i,)] = c
    content = reduce(lambda f, g: f.gcd(g), (sp.Poly.from_dict(c, x) for c in columns.values()))
    if content.degree() <= 0:
        return _as_poly(R), [], {}
    singular = {mult: part.degree() for part, mult in content.sqf_list()[1]}
    log = [
        f"removed content of degree {content.degree()} in x (singular points: "
        f"nodes {singular.get(2, 0)}, cusps {singular.get(3, 0)})"
    ]
    return _as_poly(R).exquo(sp.Poly(content.as_expr(), x, X, Y)), log, singular


# both have a node, so R has content of degree 2 in x (their golden logs)
_FOLIUM = {(3, 0): 1, (0, 3): 1, (1, 1): -3}
_NODAL = {(0, 2): 1, (3, 0): -1, (2, 0): -1}  # y**2 - x**2 (x + 1)


@settings(max_examples=25, deadline=None)
@given(_CURVE_TERMS)
@example(_FOLIUM)
@example(_NODAL)
def test_content_certificate_matches_gcd_fold(terms):
    try:
        R = _normal_resultant(*_normal_system(terms))
    except InconclusiveEliminationError:
        assume(False)
    expected, expected_log, expected_singular = _content_by_gcd_fold(R)
    log = []
    if expected.degree(x) == 0:
        with pytest.raises(DegenerateCurveError):
            _strip_content(R, log)
        return
    stripped, singular = _strip_content(R, log)
    assert _as_poly(stripped) == expected
    assert (log, singular) == (expected_log, expected_singular)


@pytest.mark.parametrize(
    "text, multiplicity",
    [
        ("x**3 + y**3 - 3*x*y", 2),  # one node
        ("y**2 - x**3 + x**4 + y**4", 3),  # one ordinary cusp
        ("y**2 - x**4 + x**6 + y**6", 4),  # a tacnode
        ("y**2 - x**5", 5),  # an A4 point
        ("x**3 - 3*x*y**2 + x**4 + y**4", 6),  # an ordinary triple point
        ("x**4 + x**3 - 2*x**2 + y**4 - 2*y**2 + 1", 4),  # two nodes on x = 0
    ],
)
def test_content_multiplicity_is_mu_plus_m_minus_one(text, multiplicity):
    # one x in R's content, of multiplicity mu_p + m_p - 1 summed over the
    # singular points p on its vertical line; R only, since the guard
    # refuses the sextic
    F = _cleared(text)
    R = _normal_resultant(*center_of_curvature_system(PlaneCurve(F, polyparse.degree(F))))
    assert _strip_content(R, [])[1] == {multiplicity: 1}


def test_triple_point_suspends_the_comparison():
    # the content reads no node and no cusp, so the target would take the
    # smooth genus 3 (36 against the evolute's 18): the flag suspends it
    result = oracle_check(PlaneCurve.from_expr("x**3 - 3*x*y**2 + x**4 + y**4"))
    assert result.flags == (
        "genericity violated: a singular point other than a node or an ordinary cusp, "
        "or two on one vertical line (content multiplicity 6 in x); degree comparison "
        "suspended",
    )
    assert (result.degree, result.expected_degree, result.match) == (18, 36, None)


def test_two_nodes_on_one_vertical_line_are_read_in_y():
    # the nodes (0, 1) and (0, -1) add to 4 in x, and read as two 2s in y
    log = []
    curve = PlaneCurve.from_expr("x**4 + x**3 - 2*x**2 + y**4 - 2*y**2 + 1")
    assert _content_in_y(curve, log) == {2: 2}
    assert log == ["read content of degree 4 in y of Res_x(F, H) (singular points: nodes 2, cusps 0)"]
    # a point that is no node or cusp reads the same in y: nothing is read or logged
    assert _content_in_y(PlaneCurve.from_expr("x**3 - 3*x*y**2 + x**4 + y**4"), log) is None
    assert len(log) == 1


@pytest.mark.parametrize(
    "F, degree, sylvester",
    [
        (_cleared(ELLIPSE), 10, 14),
        (_FOLIUM, 30, 39),
        (_NODAL, 12, 18),
        (_cleared(CUBIC), 42, 51),
        (_cleared("x**2 + y**2 - 1"), 4, 4),
    ],
)
def test_max_plus_bound_is_tight(F, degree, sylvester):
    # the bound is deg D on these curves; the Sylvester bound, which the
    # cost guard still uses, is looser on all but the circle
    system = center_of_curvature_system(PlaneCurve(F, polyparse.degree(F)))
    R = _strip_content(_normal_resultant(*system), [])[0]
    m = max(i for i, _, _ in R)
    lead = max(a + b for i, a, b in R if i == m)
    assert (2 * m - 1) * max(a + b for _, a, b in R) - lead == sylvester
    assert _discriminant_degree(R) == degree == polyparse.degree(_discriminant(R))


def _max_plus_sylvester_degree(R):
    """The largest sum of entry degrees over the permutations of the
    Sylvester matrix of R and dR/dx in x, less deg lc_x(R): m - 1 shifted
    rows of R's coefficient degrees w_k, from x**m down, then m of dR/dx's,
    whose x**k coefficient is (k + 1) r_(k + 1); -inf for a missing entry."""
    m = max(i for i, _, _ in R)
    w = [max((a + b for i, a, b in R if i == k), default=-inf) for k in range(m + 1)]
    n = 2 * m - 1
    rows = [
        [-inf] * s + row + [-inf] * (n - s - len(row))
        for row, shifts in ((w[::-1], m - 1), (w[:0:-1], m))
        for s in range(shifts)
    ]
    best = max(sum(rows[i][p[i]] for i in range(n)) for p in permutations(range(n)))
    return best - w[m]


@settings(max_examples=60, deadline=None)
@given(_R_TERMS)
@example({(3, 0, 0): 1, (1, 2, 0): 1, (1, 0, 1): 2})  # x divides R once: the root 0
@example({(3, 0, 1): 1, (2, 1, 0): 1})  # x**2 divides R: D = 0
@example({(1, 1, 0): 2, (0, 0, 1): 1})  # m = 1
@example({(2, 2, 2): 1, (1, 0, 1): 1, (0, 1, 0): -1})  # lc_x(R) of the highest degree
def test_newton_polygon_degree_is_max_plus_sylvester(terms):
    # the closed form on R's Newton polygon equals the max-plus determinant
    # of the Sylvester matrix, the brute-force reference, on every R
    assume(max(i for i, _, _ in terms) > 0)
    assert _discriminant_degree(terms) == _max_plus_sylvester_degree(terms)


def _split(F):
    """The multiplicity-one part of disc_x(Res_y(F, H)) of the curve F."""
    system = center_of_curvature_system(_curve(F))
    D = _discriminant(_strip_content(_normal_resultant(*system), [])[0])
    return _as_poly(_simple_part(D, []), X, Y)


def _smooth(F):
    return sp.groebner([F, F.diff(x), F.diff(y)], x, y).exprs == [1]


# the rectangular hyperbola -3 x**2 + 4 x y - 2 x + 3 y**2 + y + 2, on which
# gcd(D_x, D_y) keeps the common factor 108 X**2 + 90 X Y + 63 X - 108 Y**2
# + 36 Y - 233 of the two coincidence loci
_HYPERBOLA = {(2, 0): -3, (1, 1): 4, (1, 0): -2, (0, 2): 3, (0, 1): 1, (0, 0): 2}


@settings(max_examples=10, deadline=None)
@given(_CURVE_TERMS)
@example(_HYPERBOLA)
@example({(0, 0): 1, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): 0, (2, 0): 1})
def test_single_order_split_matches_other_order(terms):
    # D_y is D_x of the curve mirrored in the diagonal, mirrored back
    F = sp.Poly.from_dict(terms, x, y)
    assume(F.total_degree() >= 2 and _smooth(F) and len(sp.factor_list(F)[1]) == 1)
    # irreducible over Q may still split into conjugate lines (x**2 + 1):
    # then both orders must refuse the curve alike
    mirrored = sp.Poly.from_dict({(j, i): c for (i, j), c in F.terms()}, x, y)
    try:
        by_x = _split(F)
    except DegenerateCurveError:
        with pytest.raises(DegenerateCurveError):
            _split(mirrored)
        return
    by_y = sp.Poly.from_dict({(b, a): c for (a, b), c in _split(mirrored).terms()}, X, Y)
    assert _proportional(by_x, by_y)


@settings(max_examples=10, deadline=None)
@given(_CURVE_TERMS)
@example(_HYPERBOLA)
@example({(2, 0): 1, (0, 2): 4, (0, 0): -4})  # the ellipse: D = E (X Y)**2
@example({(0, 2): 1, (3, 0): -1, (2, 0): -1})  # nodal: D = E (3 X + 2)**2 Y**4
# D = E (4 X + 2 Y - 5)**4: a double root of gcd(D0, D0') at every node
@example({(2, 0): -3, (1, 1): 2, (1, 0): 2, (0, 2): -2, (0, 1): 3, (0, 0): -2})
def test_square_split_matches_sqf_list(terms):
    try:
        R = _strip_content(_normal_resultant(*_normal_system(terms)), [])[0]
        with _packed_bits(_D_PATHS[0]):
            D = _discriminant(R)
    except (DegenerateCurveError, InconclusiveEliminationError):
        assume(False)
    with _packed_bits(_D_PATHS[1]):
        assert _discriminant(R) == D  # the packed samples give the same D
    simple = sp.prod(
        [f for f, mult in sp.sqf_list(_as_poly(D, X, Y))[1] if mult == 1], start=sp.Poly(1, X, Y)
    )
    split = _square_split(D)
    assert split is None or _proportional(_as_poly(split, X, Y), simple)


_FACTORS = st.sampled_from([
    X - 2, Y + 1, Y**2 + 1, X**2 + Y**2 + X, (X**2 + Y**2) ** 2 + Y**3, X * Y - 1,
    X**2 - 3 * Y, X**3 + Y**2 + 1, 2 * X - Y + 3, X**2 + 2 * Y**2 - 1,
])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_FACTORS, st.integers(1, 4)), min_size=1, max_size=4),
    st.integers(1, 6),
)
def test_square_split_on_products(factors, scale):
    # D = scale * prod(f**k): the multiplicity-one part is the product of
    # the distinct factors whose exponents add up to 1
    exponents = {}
    for f, k in factors:
        exponents[f] = exponents.get(f, 0) + k
    D = sp.Poly(scale * sp.prod([f**k for f, k in exponents.items()]), X, Y)
    simple = sp.Poly(sp.prod([f for f, k in exponents.items() if k == 1]), X, Y)
    split = _square_split(_integer_terms(D))
    assert split is None or _proportional(_as_poly(split, X, Y), simple)
    if all(k <= 2 and f.has(X) for f, k in exponents.items()):
        assert split is not None  # a generic square split is certified


_UNIVARIATE = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda f: f[0])


def _normalized(f):
    """f divided by its content, with a positive head: equal for f and g
    exactly when they agree up to a nonzero rational."""
    content = reduce(gcd, f, 0) * (1 if f[0] > 0 else -1)
    return [c // content for c in f]


@settings(max_examples=150, deadline=None)
@given(st.lists(_UNIVARIATE, min_size=4, max_size=4), st.integers(-6, 6).filter(bool))
@example([[1, 0], [1, -1], [1, 1], [1]], 1)  # x (x - 1)**2 (x + 1)**3: one triple root
@example([[1, 0, 1], [1, 2], [1], [1, -2]], -2)  # (x + 2)**2 (x - 2)**4: past the gcd
@example([[3], [2, 0], [1], [1]], 4)  # 12 x**2: a double root and constants
def test_square_parts_matches_yun(parts, scale):
    # f = scale e c**2 p**3 q**4: the split (one gcd, or Yun's decomposition
    # past a remainder) agrees with Yun's wherever it answers, and refuses
    # exactly when a root has odd multiplicity above 1
    e, c, p, q = parts
    f = reduce(_times, (e, c, c, p, p, p, q, q, q, q), [scale])
    _, factors = dup_sqf_list(f, sp.ZZ)
    split = square_parts(f)
    assert (split is None) == any(mult > 1 and mult % 2 for _, mult in factors)
    if split is not None:
        simple = reduce(_times, (g for g, mult in factors if mult == 1), [1])
        halves = [g for g, mult in factors if mult % 2 == 0 for _ in range(mult // 2)]
        root = reduce(_times, halves, [1])
        assert [_normalized(g) for g in split] == [_normalized(simple), _normalized(root)]


def test_square_parts_stops_at_odd_multiplicity(monkeypatch):
    # x (x - 1)**3 (x + 1)**6: the one-gcd split leaves a remainder, and
    # Yun's steps for multiplicities 1, 2 and 3 reach the triple root; the
    # part of multiplicity 6 would take two more gcds
    calls = []
    monkeypatch.setattr(intpoly, "_gcd", lambda f, g: calls.append(1) or _gcd(f, g))
    f = reduce(_times, [[1, 0]] + [[1, -1]] * 3 + [[1, 1]] * 6)
    assert square_parts(f) is None
    assert len(calls) == 4


# integer polynomials with zero and constant ones among them, negative heads
# and integer content
def _stripped(f):
    while f and not f[0]:
        f = f[1:]
    return f


_SMALL = st.lists(st.integers(-6, 6), max_size=4).map(_stripped)


@st.composite
def _sharing_pairs(draw):
    """(f, g) = (k a h**i, k b h): a common factor h, to a power in f, and
    a common integer content k."""
    h, a, b = draw(_SMALL), draw(_SMALL), draw(_SMALL)
    k = draw(st.integers(-4, 4).filter(bool))
    f = reduce(_times, [a] + [h] * draw(st.integers(1, 3))) if a and h else []
    g = _times(b, h) if b and h else []
    return [k * c for c in f], [k * c for c in g]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_sharing_pairs(), st.tuples(_SMALL, _SMALL)))
@example(([], []))
@example(([], [-2, 4]))
@example(([-3, 6], []))
@example(([6], [4, 2]))  # constants: the content gcd alone
@example(([-3, 6, -3], [2, -2]))  # a negative head and a common root
def test_plain_int_helpers_match_sympy(pair):
    # sympy's routines are the reference: the heuristic gcd and its
    # cofactors, the primitive PRS that follows it, exact division (None
    # where sympy's division leaves a remainder) and Yun's decomposition
    f, g = pair
    assert _gcd(f, g) == tuple(dup_inner_gcd(f, g, sp.ZZ))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intpoly, "_HEURISTIC_POINTS", 0)
        assert _gcd(f, g) == tuple(dup_rr_prs_gcd(f, g, sp.ZZ))
    if g:
        quotient, rem = dup_div(f, g, sp.ZZ)
        assert exquo(f, g) == (None if rem else quotient)
    for h in (f, g):
        assert list(sqf_list(h)) == dup_sqf_list(h, sp.ZZ)[1]


_NONCONSTANT = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda f: f[0])


@settings(max_examples=200, deadline=None)
@given(_NONCONSTANT, _NONCONSTANT, st.sampled_from(_CERTIFYING_PRIMES))
@example([1, 0, 1], [1, 0, 1], 3)  # (x**2 + 1)**2: irreducible factors, not squarefree
@example([1, 1, 1], [1, 0, -2], 7)  # no root modulo 7, reducible over Q
def test_modular_certificate_refuses_products(a, b, p):
    # a product of two nonconstant integer polynomials is never certified,
    # and the test modulo p agrees with sympy's over F_p on both factors
    f = _times(a, b)
    assert not irreducible(f)
    for h in (f, a, b):
        if h[0] % p:
            assert _irreducible_mod(h, p) == gf_irreducible_p(gf_from_int_poly(h, p), p, sp.ZZ)


def _imports(module):
    """(enclosing function or None, imported module) for every import in the
    module's source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imports: list[tuple[str | None, str]] = []
    stack = [(None, node) for node in tree.body]
    while stack:
        owner, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Import):
            imports += [(owner, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append((owner, node.module or ""))
        stack += [(owner, child) for child in ast.iter_child_nodes(node)]
    return imports


def test_sympy_is_imported_by_the_accessor_alone():
    # nothing at module level (class bodies included) imports sympy, the
    # only function of the oracle that does is the tracer's `sp` accessor,
    # and the parser and the univariate algebra import it nowhere
    for module, own, importers in (
        (oracle, "functools", {"__getattr__"}), (polyparse, "ast", set()), (intpoly, "math", set())
    ):
        imports = _imports(module)
        assert (None, own) in imports  # the scan sees the module's own imports
        assert {owner for owner, name in imports if name.split(".")[0] == "sympy"} == importers


def test_intpoly_is_a_leaf_module():
    # the univariate algebra and the sampled-elimination kernel import only
    # the standard library: no evolute module (a relative import reads as
    # its bare name), no sympy, so new eliminations reuse them without the
    # oracle's plumbing
    imports = _imports(intpoly)
    assert (None, "itertools") in imports  # the scan sees the module's own imports
    for _, name in imports:
        assert name.split(".")[0] in sys.stdlib_module_names - {"evolute"}, name


def test_square_split_refuses_what_the_nodes_miss():
    # D = X + Y**3 - Y is X at the first nodes 0, 1, -1; only the image of
    # its square part C = 1 is interpolated, and D / C**2 is D itself
    D = sp.Poly(X + Y**3 - Y, X, Y)
    split = _square_split(_integer_terms(D))
    assert split is None or _proportional(_as_poly(split, X, Y), D)


def test_square_split_out_of_nodes_is_inconclusive(monkeypatch):
    # InconclusiveEliminationError is an ArithmeticError, which the split
    # takes for images that are not integer polynomials; running out of
    # nodes must still reach the caller, not fall back to sqf_list
    def exhausted(leads):
        yield 0
        raise InconclusiveEliminationError("could not find stable sample points")

    monkeypatch.setattr(oracle, "stable_nodes", exhausted)
    with pytest.raises(InconclusiveEliminationError):
        _square_split(_integer_terms(sp.Poly(X**2 + Y**2 - 1, X, Y)))


def _leading_form(f):
    d = f.total_degree()
    return sp.Poly(sum(c * X**i * Y**j for (i, j), c in f.terms() if i + j == d), X, Y)


def _isotropic_reference(f):
    """Whether sympy's leading form of f is a constant times a power of
    X**2 + Y**2."""
    d = f.total_degree()
    return d % 2 == 0 and _proportional(_leading_form(f), sp.Poly((X**2 + Y**2) ** (d // 2), X, Y))


@settings(max_examples=60, deadline=None)
@given(st.lists(_FACTORS, min_size=1, max_size=4))
@example([X**2 + Y**2 + X, X - 2, Y + 1, Y**2 + 1])  # isotropic, with both contents
@example([X**2 + Y**2 + X, X * Y - 1])  # mixed: kept whole
def test_nothing_to_strip_certificate(factors):
    # the strip divides out exactly sympy's univariate factors, one line per
    # content, and logs the isotropic case its factors make; so an empty log
    # certifies that nothing was there to strip
    P = sp.Poly(sp.prod(factors), X, Y)
    _, listed = sp.factor_list(P)
    contents = [
        sp.prod([f**k for f, k in listed if f.degree(other) == 0], start=sp.Poly(1, X, Y))
        for other in (X, Y)
    ]
    bivariate = [(f, k) for f, k in listed if f.degree(X) and f.degree(Y)]
    kept = sp.prod([f**k for f, k in bivariate], start=sp.Poly(1, X, Y))
    log = []
    if kept.is_ground:
        with pytest.raises(InconclusiveEliminationError):
            _strip_extraneous(_integer_terms(P), log)
        return
    assert _proportional(_as_poly(_strip_extraneous(_integer_terms(P), log), X, Y), kept)
    texts = [canonical_text(_normalize_sign(_integer_terms(c))) for c in contents if not c.is_ground]
    expected = [f"stripped univariate extraneous factor: {text}" for text in texts]
    if all(_isotropic_reference(f) for f, _ in bivariate):
        expected.append("result consists of isotropic components only (degenerate input)")
    elif _leading_form(kept).rem(sp.Poly(X**2 + Y**2, X, Y)).is_zero:
        expected.append(oracle.ISOTROPIC_KEPT)
    assert log == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_FACTORS, min_size=1, max_size=2),
    st.sampled_from([X, X - 2, X**2 + 1, 2 * X + 3]),
    st.sampled_from([1, 2, 3]),
    st.lists(_FACTORS, max_size=1),
)
@example([X**2 + Y + 1], X, 5, [X + Y**3 - Y])
@example([X * Y - 1], X - 2, 3, [])
def test_simple_part_matches_sqf_list(evolute, nu, a, square):
    # D = E nu(X)**a C**2: the split, with the content taken out where it
    # certifies nothing, gives sympy's multiplicity-one part or refuses
    D = sp.Poly(sp.prod(evolute) * nu**a * sp.prod(square) ** 2, X, Y)
    simple = sp.prod([f for f, m in sp.sqf_list(D)[1] if m == 1], start=sp.Poly(1, X, Y))
    # the comparison tells a wrong answer apart: D itself, where it has a square
    assert _proportional(D, simple) is (D.total_degree() == simple.total_degree())
    try:
        split = _simple_part(_integer_terms(D), [])
    except InconclusiveEliminationError:
        return
    except DegenerateCurveError:
        assert simple.is_ground
        return
    assert _proportional(_as_poly(split, X, Y), simple)


_CURVE_FACTOR = st.integers(1, 2).flatmap(
    lambda d: st.fixed_dictionaries(
        {(i, j): st.integers(-3, 3) for i in range(d + 1) for j in range(d + 1 - i)}
    )
).map(lambda terms: sp.Poly.from_dict(terms, x, y)).filter(lambda f: not f.is_ground)


@st.composite
def _factored_curves(draw):
    """Products of 1-3 random integer factors in (x, y), repeats allowed."""
    pool = draw(st.lists(_CURVE_FACTOR, min_size=1, max_size=3))
    return sp.prod(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))


def _verdict(decide, F):
    """`decide`'s verdict on the text of F: "accepted", or its error message."""
    try:
        decide(str(F.as_expr()))
    except ValueError as exc:
        return str(exc)
    return "accepted"


def _verdict_errors(decide, F):
    """How `decide`'s verdict on F contradicts sympy's factorization."""
    _, factors = sp.factor_list(F)
    repeated = any(mult > 1 for _, mult in factors)
    verdict = _verdict(decide, F)
    errors = []
    if verdict == "accepted" and (repeated or len(factors) > 1):
        errors.append("accepted a reducible or non-squarefree curve")
    if (verdict == "curve polynomial must be squarefree") is not repeated:
        errors.append("squarefree verdict differs")
    if verdict == "curve polynomial must be irreducible over Q" and len(factors) < 2:
        errors.append("irreducible verdict on one factor")
    return errors


@settings(max_examples=120, deadline=None)
@given(_factored_curves())
@example(sp.Poly((x**2 + 4 * y**2 - 4) * (9 * x**2 + 4 * y**2 - 9), x, y))  # two ellipses
@example(sp.Poly((x - y) * (x + y) * (x + 2 * y - 1), x, y))  # undecided: three lines
@example(sp.Poly(x**4 + y**2, x, y))  # irreducible, absolutely reducible
@example(sp.Poly((x**2 + y**2 - 1) * (x - 3) ** 2, x, y))
def test_irreducibility_decisions_match_factoring(F):
    assume(oracle.predicted_work(_integer_terms(F))[0] <= oracle.MAX_WORK)
    assert _verdict_errors(PlaneCurve.from_expr, F) == []


def test_irreducibility_decision_check_can_fail():
    # negative control: the check above refuses a decision that guesses
    def accept(text):
        return None

    def call_irreducible(text):
        raise DegenerateCurveError("curve polynomial must be irreducible over Q")

    assert _verdict_errors(accept, sp.Poly(x**2 - y**2, x, y)) == [
        "accepted a reducible or non-squarefree curve"
    ]
    assert _verdict_errors(accept, sp.Poly((x + y) ** 2, x, y)) == [
        "accepted a reducible or non-squarefree curve", "squarefree verdict differs"
    ]
    assert _verdict_errors(call_irreducible, sp.Poly(x**2 + 4 * y**2 - 4, x, y)) == [
        "irreducible verdict on one factor"
    ]


_FORM_COEFFICIENTS = st.integers(-2, 2)


@st.composite
def _curves_at_infinity(draw):
    """Integer curves whose leading form is special * g, with special one of
    1, x, x**2, x**2 + y**2, (x - 2 y)**2, y and g a random form."""
    special = draw(st.sampled_from([1, x, x**2, x**2 + y**2, (x - 2 * y) ** 2, y]))
    k = draw(st.integers(0, 2))
    g = sum(draw(_FORM_COEFFICIENTS) * x**i * y ** (k - i) for i in range(k + 1))
    assume(g != 0)
    lead = sp.expand(special * g)
    d = sp.Poly(lead, x, y).total_degree()
    lower = sum(
        draw(_FORM_COEFFICIENTS) * x**i * y**j for i in range(d) for j in range(d - i)
    )
    F = sp.Poly(lead + lower, x, y)
    assume(F.total_degree() >= 1)
    return _curve(F)


@settings(max_examples=120, deadline=None)
@given(_curves_at_infinity())
@example(PlaneCurve({(1, 0): 1}, 1))
def test_flags_match_gcd_definitions(curve):
    # the leading form LF, the terms of total degree d
    LF = _as_poly({m: c for m, c in curve.terms.items() if sum(m) == curve.degree}, x, y)
    assert curve.through_circular_points() is (
        LF.gcd(sp.Poly(x**2 + y**2, x, y)).total_degree() > 0
    )
    assert curve.meets_infinity_transversally() is (
        LF.gcd(LF.diff(x)).gcd(LF.diff(y)).total_degree() == 0
    )


@settings(max_examples=80, deadline=None)
@given(_CURVE_TERMS, st.sampled_from([1, x - 1, y + 2, x + y, x**2 + y - 1]))
@example({(2, 0): 1, (0, 2): 4, (0, 0): -4}, 1)
def test_irreducibility_certificate_implies_one_factor(terms, cofactor):
    F = sp.Poly(sp.Poly.from_dict(terms, x, y).as_expr() * cofactor, x, y)
    assume(not F.is_ground)
    if _certified_irreducible(_integer_terms(F)):
        _, factors = sp.factor_list(F)
        assert len(factors) == 1 and factors[0][1] == 1


def test_irreducibility_certificate_decides_common_inputs():
    for text in (ELLIPSE, CUBIC, "x**2 + y**2 - 1", "x**3 + y**3 - 3*x*y", WIDE_CONIC):
        assert _certified_irreducible(_cleared(text))
    for text in ("(x**2+y**2-1)*(x-3)", "x**2", "y**2 - 1"):
        assert not _certified_irreducible(_cleared(text))


_LINEAR = st.tuples(st.integers(-5, 5).filter(bool), st.integers(-5, 5))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-30, 30), min_size=3, max_size=3).filter(lambda f: f[0]),
        # products of two linear factors (square discriminants) and squares
        # of one (zero discriminant), times a content
        st.builds(
            lambda k, a, b: [k * a[0] * b[0], k * (a[0] * b[1] + a[1] * b[0]), k * a[1] * b[1]],
            st.integers(-4, 4).filter(bool), _LINEAR, _LINEAR,
        ),
        st.builds(
            lambda k, a: [k * a[0] ** 2, 2 * k * a[0] * a[1], k * a[1] ** 2],
            st.integers(-4, 4).filter(bool), _LINEAR,
        ),
    )
)
@example([1, 0, 1])  # negative discriminant
@example([2, 4, 2])  # zero discriminant, content 2
@example([6, 0, 10])  # 2 (3 x**2 + 5): content only
@example([4, 0, -9])  # (2 x - 3)(2 x + 3)
def test_quadratic_irreducibility_matches_factoring(f):
    _, factors = dup_factor_list(f, sp.ZZ)
    assert irreducible(f) == (len(factors) == 1 and factors[0][1] == 1)


_CONIC_COEFFICIENTS = st.sampled_from((-3, -2, -1, 1, 2, 3))


@settings(max_examples=25, deadline=None)
@given(st.lists(_CONIC_COEFFICIENTS, min_size=6, max_size=6))
def test_conic_oracle_agrees_with_engine(coeffs):
    a, b, c, d, e, f = coeffs  # a x^2 + b x y + c y^2 + d x + e y + f
    conic = sp.Matrix([[2 * a, b, d], [b, 2 * c, e], [d, e, 2 * f]])
    assume(conic.det() != 0)  # smooth, hence irreducible
    curve = PlaneCurve.from_expr(f"{a}*x**2 + {b}*x*y + {c}*y**2 + {d}*x + {e}*y + {f}")
    assume(not curve.genericity_flags())
    report = curve_report(CurveInvariants(2, 2, 0))
    (evolute_row,) = [row for row in report.results if "[evolute]" in row.locus]
    result = oracle_check(curve)
    assert result.degree == evolute_row.engine_degree == 6
    assert result.match is True


@settings(max_examples=10, deadline=None)
@given(
    st.fixed_dictionaries({(i, j): st.integers(-3, 3) for i in range(4) for j in range(4 - i)})
)
def test_generic_cubic_oracle_agrees_with_engine(terms):
    F = sp.Poly.from_dict(terms, x, y)
    assume(F.total_degree() == 3 and _smooth(F))
    try:
        curve = PlaneCurve.from_expr(str(F.as_expr()))
    except DegenerateCurveError:  # reducible
        assume(False)
    # smooth in the affine plane and transverse to the line at infinity:
    # a smooth plane cubic, genus 1
    assume(not curve.genericity_flags())
    report = curve_report(CurveInvariants(2, 3, 1))
    (evolute_row,) = [row for row in report.results if "[evolute]" in row.locus]
    result = oracle_check(curve)
    assert result.degree == evolute_row.engine_degree == 18
    assert result.match is True


def _term_times(f, g):
    out = {}
    for (a, b), c in f.items():
        for (i, j), e in g.items():
            out[a + i, b + j] = out.get((a + i, b + j), 0) + c * e
    return out


def _composed(P, forms, den):
    """den**d P(L1 / den, L2 / den) for the integer terms P of degree d and
    the affine integer forms (L1, L2), as integer terms."""
    d = max(i + j for i, j in P)
    powers = []
    for form in forms:
        powers.append([{(0, 0): 1}])
        for _ in range(d):
            powers[-1].append(_term_times(powers[-1][-1], form))
    out = {}
    for (i, j), c in P.items():
        for m, v in _term_times(powers[0][i], powers[1][j]).items():
            out[m] = out.get(m, 0) + c * den ** (d - i - j) * v
    return {m: v for m, v in out.items() if v}


def _inverse_forms(Q, shift):
    """The forms of Q^T (p - shift), the inverse of p -> Q p / c + shift
    times c, where Q Q^T = c**2: a rotation (a, -b; b, a) with
    a**2 + b**2 = c**2, or the swap (0, 1; 1, 0) with c = 1."""
    (q11, q12), (q21, q22) = Q
    t1, t2 = shift
    return (
        {(1, 0): q11, (0, 1): q21, (0, 0): -q11 * t1 - q21 * t2},
        {(1, 0): q12, (0, 1): q22, (0, 0): -q12 * t1 - q22 * t2},
    )


def _reading(result):
    """What the oracle reports of a curve apart from its evolute: the
    flags, the singular points read, the expected degree and `match`."""
    singular = [line for line in result.log if "singular points" in line]
    return result.flags, singular, result.expected_degree, result.match


# (Q, c) of the similarities' linear parts: the identity, the swap x <-> y,
# a quarter turn and the rotations of the triple (3, 4, 5)
_LINEAR_PARTS = st.sampled_from([
    (((1, 0), (0, 1)), 1),
    (((0, 1), (1, 0)), 1),
    (((0, -1), (1, 0)), 1),
    (((3, -4), (4, 3)), 5),
    (((4, 3), (-3, 4)), 5),
    (((-3, -4), (4, -3)), 5),
])
# (x, y) -> (x + y, y), affine but not a similarity; its inverse's forms
_SHEAR_INVERSE = ({(1, 0): 1, (0, 1): -1}, {(0, 1): 1})


@st.composite
def _dense_curves(draw):
    """Integer terms of a dense conic (coefficients -3..3, nonzero) or a
    dense cubic (coefficients +-1, which keeps its grid small)."""
    d = draw(st.sampled_from([2, 3]))
    coefficient = st.sampled_from((-3, -2, -1, 1, 2, 3) if d == 2 else (-1, 1))
    return {(i, j): draw(coefficient) for i in range(d + 1) for j in range(d + 1 - i)}


@settings(max_examples=12, deadline=None)
@given(
    _dense_curves(),
    _LINEAR_PARTS,
    st.sampled_from([-2, -1, 1, 2]),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
)
def test_oracle_is_covariant_under_similarities(terms, linear, scale, shift):
    # g(p) = scale Q p / c + shift maps the evolute of C onto that of g(C),
    # so the oracle's E for g(C) is E o g**-1, the same polynomial after
    # `_normalize_sign`; a shear is no similarity and must change E
    (Q, c), den = linear, linear[1] * scale
    try:
        text = " + ".join(f"({c})*x**{i}*y**{j}" for (i, j), c in terms.items())
        curve = PlaneCurve.from_expr(text)
        result = oracle_check(curve)
    except ValueError:  # reducible, or no evolute
        assume(False)
    forms = _inverse_forms(Q, shift)
    moved = oracle_check(PlaneCurve(_normalize_sign(_composed(terms, forms, den)), curve.degree))
    assert _normalize_sign(moved.terms) == _normalize_sign(_composed(result.terms, forms, den))
    assert _reading(moved) == _reading(result)
    sheared = oracle_check(PlaneCurve(_composed(terms, _SHEAR_INVERSE, 1), curve.degree))
    assert _normalize_sign(sheared.terms) != _normalize_sign(
        _composed(result.terms, _SHEAR_INVERSE, 1)
    )


T = sp.Symbol("t")
_SMALL_INT = st.integers(-3, 3)


@st.composite
def _rational_cubics(draw):
    """(P, k0): random integer cubics P = (P0 : P1 : P2) in t, a nodal
    cubic where no cusp is drawn (k0 = 0), or (1 : t**2 : t**3) under a
    random integer 3 x 3 matrix, a cuspidal cubic (k0 = 1) with no flex on
    the line at infinity, where an affine image of y**2 = x**3 has one."""
    if draw(st.booleans()):
        return [sum(draw(_SMALL_INT) * T**k for k in range(4)) for _ in range(3)], 0
    rows = draw(st.lists(st.lists(_SMALL_INT, min_size=3, max_size=3), min_size=3, max_size=3))
    return [a + b * T**2 + c * T**3 for a, b, c in rows], 1


def _cusp_count(P):
    """The weighted cusp count k0 of a proper parametrization of degree n:
    the zeros on the parameter line of the 2 x 2 minors of (P, P'), forms
    of degree 2n - 2 once homogenized, so 2n - 2 - (their top degree) of
    them lie at t = oo.  A branch of multiplicity m is a zero of order
    m - 1."""
    n = max(sp.degree(p, T) for p in P)
    dP = [sp.diff(p, T) for p in P]
    minors = [sp.Poly(P[i] * dP[j] - P[j] * dP[i], T) for i, j in ((0, 1), (0, 2), (1, 2))]
    minors = [m for m in minors if not m.is_zero]
    return reduce(sp.Poly.gcd, minors).degree() + 2 * n - 2 - max(m.degree() for m in minors)


@settings(max_examples=20, deadline=None)
@given(_rational_cubics())
def test_singular_cubic_oracle_agrees_with_engine(drawn):
    # the implicit equation of a rational cubic, whose one singular point is
    # a node or a cusp: the oracle reads it off R's content, strips it, and
    # finds the evolute degree 6(d + g - 1) - 2 k0 with g = 0
    P, k0 = drawn
    F = sp.Poly(sp.resultant(P[0] * x - P[1], P[0] * y - P[2], T), x, y)
    assume(not F.is_zero and F.total_degree() == 3)
    _, factors = sp.factor_list(F)
    assume(len(factors) == 1 and factors[0][1] == 1)  # a proper parametrization
    assume(_cusp_count(P) == k0)
    try:
        curve = PlaneCurve.from_expr(str(F.as_expr()))
    except ValueError:  # a guard refusal
        assume(False)
    assume(not curve.genericity_flags())
    report = curve_report(CurveInvariants(2, 3, 0, (k0,)))
    (evolute_row,) = [row for row in report.results if "[evolute]" in row.locus]
    result = oracle_check(curve)
    cusps = _cusp_count(P)
    assert result.log[0].endswith(f"(singular points: nodes {1 - cusps}, cusps {cusps})")
    assert result.degree == evolute_row.engine_degree == result.expected_degree == 12 - 2 * k0
    assert result.match is True


@st.composite
def _rational_quartics(draw):
    """(P, k0): random integer quartics P = (P0 : P1 : P2) in t, with three
    nodes where no cusp is drawn (k0 = 0), or with P'(0) = 0, a cusp at
    t = 0 beside two nodes (k0 = 1)."""
    cusp = draw(st.booleans())
    powers = (0, 2, 3, 4) if cusp else range(5)
    return [sum(draw(_SMALL_INT) * T**k for k in powers) for _ in range(3)], int(cusp)


@settings(max_examples=20, deadline=None)
@given(_rational_quartics())
@example(([1 + T + T**4, T**2 - T**3, T + 2 * T**4], 0))
@example(([2 + T**4, T**2 + T**3, 1 + T**3 + T**4], 1))
def test_rational_quartic_singular_points_are_read(drawn):
    # R and its content only: the guard refuses these quartics (~1e11).
    # Each singular point p adds mu_p + m_p - 1 = 2 delta_p + m_p - r_p to
    # R's content (Le-Greuel and Milnor's mu = 2 delta - r + 1, with r_p
    # branches), and on a rational quartic, whose points at infinity are
    # smooth when unflagged, the delta_p add up to the genus drop 3 and the
    # m_p - r_p to the weighted cusp count k0: the content has degree
    # 6 + k0 in all.  Where it reads only nodes and ordinary cusps, they
    # are the 3 - k0 nodes and the k0 cusps of the parametrization
    P, k0 = drawn
    F = sp.Poly(sp.resultant(P[0] * x - P[1], P[0] * y - P[2], T), x, y)
    assume(not F.is_zero and F.total_degree() == 4)
    _, factors = sp.factor_list(F)
    assume(len(factors) == 1 and factors[0][1] == 1)  # a proper parametrization
    assume(_cusp_count(P) == k0)
    curve = _curve(F)
    assume(not curve.genericity_flags())
    log = []
    _, singular = _strip_content(_normal_resultant(*center_of_curvature_system(curve)), log)
    assert sum(mult * part for mult, part in singular.items()) == 6 + k0
    if set(singular) <= {2, 3}:
        assert (singular.get(2, 0), singular.get(3, 0)) == (3 - k0, k0)
        assert log == [f"removed content of degree {6 + k0} in x (singular points: "
                       f"nodes {3 - k0}, cusps {k0})"]


def test_canonical_text_deterministic():
    def text(expr):
        return canonical_text(_integer_terms(sp.Poly(expr, X, Y)))

    assert text(3 * X**2 * Y - Y**3 + X - 7) == "3*X**2*Y - Y**3 + X - 7"
    assert text(-2 * X * Y**2 + Y - 1) == "-2*X*Y**2 + Y - 1"
    assert text(0) == "0"


# small values hit the +-1 and zero special cases, large ones the bignum printing
_COEFFICIENTS = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


def _grlex_text(poly):
    """The printer on sympy's grlex term order that `canonical_text` replaced."""
    pieces = []
    for monom, c in poly.terms(order="grlex"):
        mono = "*".join(f"{v}**{e}" if e > 1 else str(v) for v, e in zip(poly.gens, monom) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or f"{abs(c)}")
        pieces.append(("- " if c < 0 else "+ ") + body)
    head = pieces[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([head] + pieces[1:])


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 8)), _COEFFICIENTS, max_size=20))
def test_canonical_text_round_trip(terms):
    # zero coefficients are drawn and dropped, since the terms hold nonzero
    # ones; the empty dictionary is the zero polynomial
    terms = {m: c for m, c in terms.items() if c and sum(m) <= 8}
    poly = sp.Poly.from_dict(terms or {(0, 0): 0}, X, Y)
    text = canonical_text(terms)
    assert text == _grlex_text(poly)
    assert sp.Poly(sp.sympify(text), X, Y) == poly


# the plain-int certificates' work: `_irreducible_mod` tests of F(x, y0)
# modulo a prime, and `_yun` squarefree decompositions.  The conics'
# quadratics are decided by their discriminants; the folium's x**3 at
# y0 = 0 fails at all 15 primes and x**3 - 3 x + 1 at y0 = 1 is irreducible
# modulo 2.  One decomposition of R's content where it is not a constant
# (only the folium's), one per node where a root of multiplicity above
# 2 leaves the one-gcd split a remainder, and one of mu(Y) in the split of
# D unless it is a constant (only the ellipse's is not): none of the
# ellipse's nodes (its split is certified at the nodes 1 and -1, before its
# multiplicity-4 nodes 3 and -3), two of the folium's (7 and 6) and the
# circle's node 0, where D(X, 0) = X**4
_CERTIFICATE_CALLS = {
    ELLIPSE: (0, 1), "x**3 + y**3 - 3*x*y": (16, 3), CUBIC: (1, 0), "x**2 + y**2 - 1": (0, 1)
}


# `genus` is the genus read off R's content, None where the content is
# constant and the smooth genus (d - 1)(d - 2)/2 holds
@pytest.mark.parametrize(
    "text, genus, kernel_calls, isotropy_tests",
    [
        # R: one packed resultant at each of 5 x nodes; R's content is a gcd
        # fold, no resultant; the discriminant: m = 4 and a max-plus degree
        # of 10, so one packed resultant at each of 11 X nodes; one
        # Res(f, f') of f(t) = LF(1, t) for the transversality flag
        (ELLIPSE, None, 5 + 11 + 1, 0),
        # R: 10 x nodes; the gcd fold strips a content of degree 2 (the
        # node); then m = 7 and total degree 30, whose packed samples stay
        # within `_PACKED_BITS`: one packed resultant at each of 31 X nodes;
        # one transversality resultant
        ("x**3 + y**3 - 3*x*y", 0, 10 + 31 + 1, 0),
        # the same with the packed path shut: 496 discriminant samples on the
        # lower set of total degree 30 of the grid
        pytest.param("x**3 + y**3 - 3*x*y", 0, 10 + 496 + 1, 0, marks=pytest.mark.packed_bits(0)),
        # R: 10 nodes; 946 discriminant samples on the grid (total degree
        # 42); one transversality resultant
        (CUBIC, None, 10 + 946 + 1, 0),
        # R: 5 nodes; 5 packed discriminant samples (total degree 4); one
        # transversality resultant.  X**2 + Y**2 divides the evolute's
        # leading form, so its isotropy is tested once
        ("x**2 + y**2 - 1", None, 5 + 5 + 1, 1),
    ],
)
def test_oracle_work_counts(request, monkeypatch, text, genus, kernel_calls, isotropy_tests):
    # the kernel and the certificates are reached by name, through the module
    # globals that instrumentation wraps, with sympy's import refused
    marker = request.node.get_closest_marker("packed_bits")
    if marker:
        monkeypatch.setattr(oracle, "_PACKED_BITS", *marker.args)
    counts = _count_calls(monkeypatch)
    curve = PlaneCurve.from_expr(text)
    result = oracle_check(curve)
    d = curve.degree
    assert any("removed content" in line for line in result.log) is (genus is not None)
    g = (d - 1) * (d - 2) // 2 if genus is None else genus
    assert result.expected_degree == 6 * (d + g - 1)
    modular, decompositions = _CERTIFICATE_CALLS[text]
    assert counts == {
        "dup_resultant": kernel_calls, "_irreducible_mod": modular, "_yun": decompositions,
        "_is_isotropic_factor": isotropy_tests,
    }


# a conic of `oracle_plane` (perfbench seed 1): C's image in Y has degree
# 2, so three nodes fix it and a fourth adds nothing
_SEED_CONIC = "-4*x**2 + 2*x*y - 4*x + 3*y**2 + y - 3"


@pytest.mark.parametrize(
    "text, calls",
    [
        # lc_X(D) = c Y**2 takes one value at the nodes 1 and -1, so the
        # second node adds nothing to C's image, whose primitive part X is
        # already right
        (ELLIPSE, 2),
        (CUBIC, 13),
        (_SEED_CONIC, 4),
    ],
)
def test_square_split_node_counts(monkeypatch, text, calls):
    # the split finishes at the first node that adds nothing to C's image
    counts = []
    monkeypatch.setattr(oracle, "square_parts", lambda f: counts.append(1) or square_parts(f))
    oracle_check(PlaneCurve.from_expr(text))
    assert len(counts) == calls


def test_square_split_goes_on_past_a_false_settling(monkeypatch):
    # D = (X**2 + Y + 1)(X + Y**3 - Y)**2: C's image is X at the nodes 0 and
    # 1, so the second node adds nothing and C = X, which the division by
    # C**2 refuses; the node -1, where E(X, -1) = X**2 meets C, is dropped,
    # and the nodes 2, -2 and 3 fix C, with no second split
    D = _integer_terms(sp.Poly((X**2 + Y + 1) * (X + Y**3 - Y) ** 2, X, Y))
    _forbid_sympy(monkeypatch)
    counts = []
    monkeypatch.setattr(oracle, "square_parts", lambda f: counts.append(1) or square_parts(f))
    split = _simple_part(D, [])
    assert _normalize_sign(split) == {(2, 0): 1, (0, 1): 1, (0, 0): 1}
    assert len(counts) == 6


def test_reducible_input_is_refused_by_its_contents(monkeypatch):
    # every F(x, y0) of (x**2 + y**2 - 1)(x - 3) splits, so the certificate
    # fails at five values of y0 times 15 primes; with x and y swapped its
    # content in x is y - 3 and it fails at once.  One resultant at the
    # first node shows F squarefree, and its content in y, x - 3, reducible
    counts = _count_calls(monkeypatch)
    with pytest.raises(DegenerateCurveError, match="irreducible over Q"):
        PlaneCurve.from_expr("(x**2+y**2-1)*(x-3)")
    assert counts == {
        "dup_resultant": 1, "_irreducible_mod": 75, "_yun": 0, "_is_isotropic_factor": 0,
    }


def test_uncertified_square_split_takes_out_the_content(monkeypatch):
    # the higher cusp y**2 = x**5: D = c E X**3 Y**8, and the root 0 of
    # multiplicity 3 of every D(X, v0) skips each node, so the square split
    # certifies no E for D; it does for D / X**3, sympy's multiplicity-one
    # part of D
    system = center_of_curvature_system(PlaneCurve.from_expr("y**2 - x**5"))
    D = _discriminant(_strip_content(_normal_resultant(*system), [])[0])
    expected = sp.prod(
        [f for f, mult in sp.sqf_list(_as_poly(D, X, Y))[1] if mult == 1], start=sp.Poly(1, X, Y)
    )
    assert _as_poly(D, X, Y).exquo(expected * sp.Poly(X**3, X, Y)).is_monomial  # c Y**8
    assert _square_split(D) is None
    _forbid_sympy(monkeypatch)
    simple = _simple_part(D, [])
    assert polyparse.degree(simple) == 9
    assert _normalize_sign(simple) == _normalize_sign(_integer_terms(expected))


def _count_calls(monkeypatch):
    # the kernel through the oracle's global, the certificates inside intpoly,
    # and the isotropy test of an evolute that X**2 + Y**2 may divide
    own = (
        (oracle, "dup_resultant"), (intpoly, "_irreducible_mod"), (intpoly, "_yun"),
        (oracle, "_is_isotropic_factor"),
    )
    counts = dict.fromkeys([name for _, name in own], 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for module, name in own:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    _forbid_sympy(monkeypatch)
    return counts


def _forbid_sympy(monkeypatch):
    # `import sympy` raises from here to the end of the test, as where sympy
    # is not installed; sympy objects made before stay usable
    monkeypatch.setitem(sys.modules, "sympy", None)


def test_wide_coefficient_conic_needs_no_sympy_factoring(monkeypatch):
    _forbid_sympy(monkeypatch)
    result = oracle_check(PlaneCurve.from_expr(WIDE_CONIC))
    assert result.degree == 6
    assert result.match is True


def test_common_path_builds_no_poly(monkeypatch):
    # the integer certificates decide these curves, so sympy, and with it any
    # Poly, is not reached from the text to the report, rational input
    # included
    _forbid_sympy(monkeypatch)
    for text in (ELLIPSE, CUBIC, WIDE_CONIC, RATIONAL_CUBIC):
        assert oracle_check(PlaneCurve.from_expr(text)).to_dict()["match"] is True


def test_quartic_evolute_degree(monkeypatch):
    _forbid_sympy(monkeypatch)
    result = oracle_check(PlaneCurve.from_expr("x**4 + y**4 + x*y + x - 2*y + 1"))
    assert result.degree == 36
    assert result.match is True
