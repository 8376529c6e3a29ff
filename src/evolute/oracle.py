"""Independent evolute oracle for plane curves, by resultant elimination.

Given an implicit plane curve F(x, y) = 0 with exact rational coefficients,
the locus of its centers of curvature is carved out by

    F = 0,
    G1 = D (X - x) + S Fx = 0,
    G2 = D (Y - y) + S Fy = 0,

where S = Fx^2 + Fy^2 and D = Fy^2 Fxx - 2 Fx Fy Fxy + Fx^2 Fyy, so that
(X, Y) = (x, y) - (S / D) grad F.  Eliminating (x, y) by iterated univariate
resultants yields the evolute's defining polynomial in (X, Y).

A single iterated-resultant order introduces extraneous components coming
from pairs of distinct curve points that share one coordinate, so both
elimination orders are computed and their gcd taken; the orders have
disjoint extraneous loci, and every removal is logged.  The second-stage
resultants are evaluated on an integer grid and interpolated exactly, which
keeps each step a univariate resultant over the rationals.

This module shares no code with the intersection-theoretic engine; the two
paths cross-check each other through the closed-form target
6(d + g - 1) - 2 k0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_resultant

try:  # gmpy2 ships with sympy's optional fast ground types
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover - plain python ground types
    _rational = Fraction

x, y = sp.symbols("x y")
X, Y = sp.symbols("X Y")


class DegenerateCurveError(ValueError):
    """Input whose curvature system degenerates identically (lines, etc.)."""


class InconclusiveEliminationError(RuntimeError):
    """Elimination collapsed (zero resultant or empty hypersurface part)."""


@dataclass(frozen=True)
class PlaneCurve:
    """An implicit plane curve with its declared numerical invariants.

    The genus defaults to the smooth plane-curve value (d-1)(d-2)/2 and the
    weighted cusp count k0 to 0; both only feed the expected-degree target.
    """

    poly: sp.Expr
    degree: int
    genus: int
    cusps: int

    @classmethod
    def from_expr(
        cls,
        expr: sp.Expr | str,
        genus: int | None = None,
        cusps: int = 0,
    ) -> "PlaneCurve":
        poly = sp.sympify(expr, locals={"x": x, "y": y}, rational=True)
        if poly.free_symbols - {x, y}:
            raise ValueError(f"curve may involve only x and y, got {poly.free_symbols}")
        poly = sp.expand(poly)
        if not poly.has(x) and not poly.has(y):
            raise ValueError("constant input is not a curve")
        for coeff in sp.Poly(poly, x, y).coeffs():
            if not coeff.is_rational:
                raise ValueError("curve coefficients must be rational")
        d = int(sp.total_degree(poly, x, y))
        squarefree = sp.gcd(sp.gcd(poly, sp.diff(poly, x)), sp.diff(poly, y))
        if sp.total_degree(squarefree, x, y) > 0:
            raise ValueError("curve polynomial must be squarefree")
        if len(sp.factor_list(poly)[1]) > 1:
            raise DegenerateCurveError("curve polynomial must be irreducible over Q")
        if genus is None:
            genus = (d - 1) * (d - 2) // 2
        return cls(poly, d, int(genus), cusps)

    @property
    def expected_evolute_degree(self) -> int:
        return 6 * (self.degree + self.genus - 1) - 2 * self.cusps

    def leading_form(self) -> sp.Expr:
        terms = [
            t
            for t in sp.Add.make_args(self.poly)
            if sp.total_degree(t, x, y) == self.degree
        ]
        return sp.Add(*terms)

    def through_circular_points(self) -> bool:
        """Whether the projective closure meets the circular points at
        infinity (1 : +-i : 0), i.e. the leading form shares a factor with
        x^2 + y^2.  Such curves violate the genericity the degree formulas
        assume."""
        return sp.total_degree(sp.gcd(self.leading_form(), x**2 + y**2), x, y) > 0

    def meets_infinity_transversally(self) -> bool:
        """Whether the curve meets the line at infinity in d distinct points,
        i.e. the leading form is squarefree.  Tangency at infinity also
        violates the general-position assumption."""
        lead = self.leading_form()
        common = sp.gcd(sp.gcd(lead, sp.diff(lead, x)), sp.diff(lead, y))
        return sp.total_degree(common, x, y) == 0

    def genericity_flags(self) -> list[str]:
        flags = []
        if self.through_circular_points():
            flags.append(
                "genericity violated: curve passes through the circular points "
                "at infinity; degree comparison suspended"
            )
        if not self.meets_infinity_transversally():
            flags.append(
                "genericity violated: curve is tangent to the line at infinity; "
                "degree comparison suspended"
            )
        return flags


@dataclass(frozen=True)
class EvoluteResult:
    """Squarefree, content-free defining polynomial of the evolute with its
    degree, the closed-form target, and the elimination log."""

    polynomial: sp.Expr
    degree: int
    expected_degree: int
    match: bool | None
    flags: tuple[str, ...]
    log: tuple[str, ...]

    @property
    def text(self) -> str:
        return canonical_text(self.polynomial)

    def to_dict(self) -> dict:
        return {
            "polynomial": self.text,
            "degree": self.degree,
            "expected_degree": self.expected_degree,
            "match": self.match,
            "flags": list(self.flags),
            "log": list(self.log),
        }


def canonical_text(poly: sp.Expr) -> str:
    """Deterministic plain-text form: graded lexicographic, descending."""
    P = sp.Poly(sp.expand(poly), X, Y)
    pieces = []
    for (i, j), coeff in sorted(
        P.terms(), key=lambda t: (sum(t[0]), t[0]), reverse=True
    ):
        mono = "*".join(
            ([f"X**{i}" if i > 1 else "X"] if i else [])
            + ([f"Y**{j}" if j > 1 else "Y"] if j else [])
        )
        c = sp.Rational(coeff)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or f"{abs(c)}")
        pieces.append(("- " if c < 0 else "+ ") + body)
    if not pieces:
        return "0"
    head = pieces[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([head] + pieces[1:])


def center_of_curvature_system(curve: PlaneCurve) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
    """The three polynomials {F, G1, G2} in (x, y, X, Y) whose solutions
    project to the evolute; raises DegenerateCurveError when the curvature
    numerator vanishes on the whole curve (zero-curvature input)."""
    F = curve.poly
    Fx, Fy = sp.diff(F, x), sp.diff(F, y)
    if Fx == 0 and Fy == 0:
        raise DegenerateCurveError("curve has identically vanishing gradient")
    Fxx, Fxy, Fyy = sp.diff(Fx, x), sp.diff(Fx, y), sp.diff(Fy, y)
    D = sp.expand(Fy**2 * Fxx - 2 * Fx * Fy * Fxy + Fx**2 * Fyy)
    if D == 0 or sp.div(D, F, x, y)[1] == 0:
        raise DegenerateCurveError("zero curvature along the curve (line components)")
    S = sp.expand(Fx**2 + Fy**2)
    G1 = sp.expand(D * (X - x) + S * Fx)
    G2 = sp.expand(D * (Y - y) + S * Fy)
    return F, G1, G2


# --------------------------------------------------------------------------
# exact interpolated resultants
# --------------------------------------------------------------------------


def _integer_terms(poly: sp.Expr, main: sp.Symbol, par: sp.Symbol) -> dict[tuple[int, int], int]:
    """Exponent map of the polynomial with denominators cleared (the global
    rational scale is irrelevant downstream, where content is removed)."""
    P = sp.Poly(poly, main, par)
    rationals = {m: sp.Rational(c) for m, c in P.terms()}
    scale = lcm(*(c.q for c in rationals.values()))
    return {(i, j): int(c * scale) for (i, j), c in rationals.items()}


def _specialize(terms: dict[tuple[int, int], int], main_degree: int, value: int) -> list[int]:
    coeffs = [0] * (main_degree + 1)
    for (i, j), c in terms.items():
        coeffs[i] += c * value**j
    return coeffs


def _interpolate(xs: list[int], ys: list) -> list:
    """Exact Newton interpolation through integer nodes; returns ascending
    monomial coefficients (exact rationals)."""
    n = len(xs)
    dd = [_rational(v) for v in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    # expand sum_j dd[j] * prod_{i<j} (t - xs[i]) incrementally
    zero = _rational(0)
    coeffs = [zero] * n
    basis = [_rational(1)]  # coefficients of the node product so far
    for j in range(n):
        dj = dd[j]
        if dj:
            for k, b in enumerate(basis):
                coeffs[k] += dj * b
        if j < n - 1:
            new = [zero] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k + 1] += b
                new[k] -= xs[j] * b
            basis = new
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _grid(terms: dict[tuple[int, int], int], main_degree: int, count: int) -> list[int]:
    """Integer sample points avoiding drops of the leading coefficient."""
    points: list[int] = []
    v = 0
    while len(points) < count:
        for cand in ((v,) if v == 0 else (v, -v)):
            if len(points) >= count:
                break
            lead = sum(c * cand**j for (i, j), c in terms.items() if i == main_degree)
            if lead != 0:
                points.append(cand)
        v += 1
        if v > 10 * count + 10:
            raise InconclusiveEliminationError("could not find stable sample points")
    return points


def _resultant_by_interpolation(
    A: sp.Expr, B: sp.Expr, elim: sp.Symbol, pa: sp.Symbol, pb: sp.Symbol
) -> sp.Expr:
    """Res_elim(A(elim, pa), B(elim, pb)) as a polynomial in (pa, pb), up to
    a nonzero rational scale, from exact samples on an integer grid.

    A carries only (elim, pa) and B only (elim, pb), so the resultant's
    degree in pa is bounded by deg_pa(A) * deg_elim(B) and symmetrically in
    pb; one univariate integer resultant per grid point, then Newton
    interpolation in each variable."""
    ta = _integer_terms(A, elim, pa)
    tb = _integer_terms(B, elim, pb)
    da = max(i for i, _ in ta)
    db = max(i for i, _ in tb)
    if da == 0 or db == 0:
        raise InconclusiveEliminationError("nothing to eliminate")
    deg_pa = max(j for _, j in ta) * db
    deg_pb = max(j for _, j in tb) * da
    xs = _grid(ta, da, deg_pa + 1)
    ys = _grid(tb, db, deg_pb + 1)
    b_cols = {y0: [ZZ(c) for c in reversed(_specialize(tb, db, y0))] for y0 in ys}
    per_x = {}
    for x0 in xs:
        a_col = [ZZ(c) for c in reversed(_specialize(ta, da, x0))]
        samples = [dup_resultant(a_col, b_cols[y0], ZZ) for y0 in ys]
        per_x[x0] = _interpolate(ys, samples)
    result: dict[tuple[int, int], Fraction] = {}
    for j in range(deg_pb + 1):
        col = [per_x[x0][j] if j < len(per_x[x0]) else 0 for x0 in xs]
        for i, c in enumerate(_interpolate(xs, col)):
            if c:
                frac = Fraction(int(c.numerator), int(c.denominator))
                result[(i, j)] = frac
    if not result:
        raise InconclusiveEliminationError("interpolated resultant is identically zero")
    return sp.Add(
        *[sp.Rational(c.numerator, c.denominator) * pa**i * pb**j for (i, j), c in result.items()]
    )


# --------------------------------------------------------------------------
# elimination pipeline
# --------------------------------------------------------------------------


def _first_stage(F: sp.Expr, G: sp.Expr, elim: sp.Symbol, log: list[str]) -> sp.Expr:
    res = sp.expand(sp.resultant(sp.Poly(F, elim), sp.Poly(G, elim)))
    if res == 0:
        raise InconclusiveEliminationError(f"resultant in {elim} vanished identically")
    other = x if elim is y else y
    target = X if G.has(X) else Y
    # strip content in the surviving affine variable (extraneous for the image)
    coeffs = sp.Poly(res, target).all_coeffs()
    content = sp.gcd_list([c for c in coeffs if c != 0])
    if sp.total_degree(content, other) > 0:
        log.append(
            f"removed first-stage content of degree {sp.total_degree(content, other)} in {other}"
        )
        res = sp.expand(sp.quo(res, content, other, target))
    return res


def eliminate(system: tuple[sp.Expr, sp.Expr, sp.Expr]) -> tuple[sp.Expr, list[str]]:
    """Project the curvature system to (X, Y): both iterated-resultant
    orders, cross-order gcd, content and squarefree reduction, and the
    extraneous-factor policy.  Returns the evolute polynomial and the log."""
    F, G1, G2 = system
    log: list[str] = []

    A_y = _first_stage(F, G1, y, log)
    B_y = _first_stage(F, G2, y, log)
    if not A_y.has(x) or not B_y.has(x):
        return _zero_dimensional_image(A_y, B_y, log), log
    A_x = _first_stage(F, G1, x, log)
    B_x = _first_stage(F, G2, x, log)

    R1 = _resultant_by_interpolation(A_y, B_y, x, X, Y)
    R2 = _resultant_by_interpolation(A_x, B_x, y, X, Y)
    d1, d2 = sp.total_degree(R1, X, Y), sp.total_degree(R2, X, Y)

    G = sp.gcd(sp.Poly(R1, X, Y), sp.Poly(R2, X, Y)).as_expr()
    dg = sp.total_degree(G, X, Y)
    if dg == 0:
        raise InconclusiveEliminationError("elimination left no hypersurface part")
    if dg < max(d1, d2):
        log.append(
            f"removed cross-order resultant extraneity: degrees {d1}/{d2} -> {dg}"
        )

    sqf = sp.Poly(G, X, Y).sqf_part().as_expr()
    if sp.total_degree(sqf, X, Y) < dg:
        log.append(f"took squarefree part: degree {dg} -> {sp.total_degree(sqf, X, Y)}")

    _, factors = sp.factor_list(sqf)
    kept: list[sp.Expr] = []
    isotropic: list[sp.Expr] = []
    for fac, mult in factors:
        fvars = fac.free_symbols
        if X not in fvars or Y not in fvars:
            log.append(f"stripped univariate extraneous factor: {sp.sstr(fac)}")
            continue
        if _is_isotropic_factor(fac):
            isotropic.append(fac)
            continue
        kept.append(fac)
    if not kept and isotropic:
        # degenerate inputs (circles) collapse onto isotropic components;
        # keep them so the residual locus is still reported
        log.append("result consists of isotropic components only (degenerate input)")
        kept = isotropic
    else:
        for fac in isotropic:
            log.append(f"stripped isotropic-line factor: {sp.sstr(fac)}")
    if not kept:
        raise InconclusiveEliminationError("every factor was extraneous")

    evolute = sp.expand(sp.prod(kept))
    evolute = _normalize_sign(evolute)
    return evolute, log


def _zero_dimensional_image(A: sp.Expr, B: sp.Expr, log: list[str]) -> sp.Expr:
    """Constant center map (circles): the image is a single point (a, b),
    reported through its isotropic representative (X-a)^2 + (Y-b)^2."""
    if A.has(x, y) or B.has(x, y):
        raise InconclusiveEliminationError(
            "mixed zero-dimensional elimination; cannot separate image points"
        )
    px = sp.Poly(A, X).sqf_part()
    py = sp.Poly(B, Y).sqf_part()
    if px.degree() != 1 or py.degree() != 1:
        raise InconclusiveEliminationError(
            "zero-dimensional image with several points; not representable as one locus"
        )
    a = sp.Rational(-px.nth(0), px.nth(1))
    b = sp.Rational(-py.nth(0), py.nth(1))
    log.append(
        f"image is the single point ({a}, {b}); reporting its isotropic representative"
    )
    return _normalize_sign(sp.expand((X - a) ** 2 + (Y - b) ** 2))


def _is_isotropic_factor(fac: sp.Expr) -> bool:
    """True when the factor's leading form is a power of X^2 + Y^2, i.e. the
    component sits entirely on the circular points at infinity."""
    d = sp.total_degree(fac, X, Y)
    if d % 2:
        return False
    lead = sp.Add(
        *[t for t in sp.Add.make_args(sp.expand(fac)) if sp.total_degree(t, X, Y) == d]
    )
    quotient = sp.simplify(lead / (X**2 + Y**2) ** (d // 2))
    return quotient.is_number and quotient != 0


def _normalize_sign(poly: sp.Expr) -> sp.Expr:
    """Integer-primitive form with positive leading (graded-lex) coefficient."""
    P = sp.Poly(sp.expand(poly), X, Y)
    _, prim = P.primitive()
    terms = sorted(prim.terms(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    if terms and terms[0][1] < 0:
        prim = -prim
    denominators = [sp.Rational(c).q for _, c in prim.terms()]
    return sp.expand(prim.as_expr() * lcm(*denominators))


def oracle_check(curve: PlaneCurve) -> EvoluteResult:
    """Full oracle pipeline: build the curvature system, eliminate, and
    compare the evolute degree with the closed-form target."""
    flags = curve.genericity_flags()
    generic = not flags
    system = center_of_curvature_system(curve)
    evolute, log = eliminate(system)
    degree = int(sp.total_degree(evolute, X, Y))
    match = degree == curve.expected_evolute_degree if generic else None
    return EvoluteResult(
        polynomial=evolute,
        degree=degree,
        expected_degree=curve.expected_evolute_degree,
        match=match,
        flags=tuple(flags),
        log=tuple(log),
    )
