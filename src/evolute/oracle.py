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
disjoint extraneous loci, and every removal is logged.  The resultants of
both stages are sampled on an integer grid and interpolated exactly in
integer arithmetic (Collins' evaluation-interpolation scheme), so each
sample is one univariate resultant over the integers, computed by a
subresultant PRS on plain ints (`dup_resultant`).  Three bounds size the
grid: the degree in each of the two surviving variables (from the
Sylvester matrix) and the total degree (from how the roots of the two
inputs grow, read off their Newton polygons).  Only the lower set of the
tensor grid cut out by the total degree is sampled, which still fixes the
resultant (Dyn and Floater, J. Approx. Theory 177, 2014), and one grid in
the second variable serves every node of the first.  Polynomials are
`sp.Poly` from the parsed curve to the reported evolute; only the public
`EvoluteResult.polynomial` is an expression.  The curve text is read by a
whitelisting walk over its syntax tree (`parse_polynomial`) and is never
evaluated.

This module shares no code with the intersection-theoretic engine; the two
paths cross-check each other through the closed-form target
6(d + g - 1) - 2 k0.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import reduce

import sympy as sp
from sympy.polys.domains import QQ, ZZ

x, y = sp.symbols("x y")
X, Y = sp.symbols("X Y")


class DegenerateCurveError(ValueError):
    """Input whose curvature system degenerates identically (lines, etc.)."""


class InconclusiveEliminationError(RuntimeError):
    """Elimination collapsed (zero resultant or empty hypersurface part)."""


@dataclass(frozen=True)
class PlaneCurve:
    """An implicit plane curve, a `Poly` in (x, y) over ZZ or QQ, with its
    declared numerical invariants.

    The genus defaults to the smooth plane-curve value (d-1)(d-2)/2 and the
    weighted cusp count k0 to 0; both only feed the expected-degree target.
    """

    poly: sp.Poly
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
        if genus is not None and genus < 0:
            raise ValueError("genus must be nonnegative")
        if cusps < 0:
            raise ValueError("cusp count must be nonnegative")
        poly = parse_polynomial(str(expr))
        if poly.is_ground:
            raise ValueError("constant input is not a curve")
        if not _is_squarefree(poly):
            raise ValueError("curve polynomial must be squarefree")
        if len(sp.factor_list(poly)[1]) > 1:
            raise DegenerateCurveError("curve polynomial must be irreducible over Q")
        d = poly.total_degree()
        if genus is None:
            genus = (d - 1) * (d - 2) // 2
        return cls(poly, d, int(genus), cusps)

    @property
    def expected_evolute_degree(self) -> int:
        return 6 * (self.degree + self.genus - 1) - 2 * self.cusps

    def through_circular_points(self) -> bool:
        """Whether the projective closure meets the circular points at
        infinity (1 : +-i : 0), i.e. the leading form shares a factor with
        x^2 + y^2.  Such curves violate the genericity the degree formulas
        assume."""
        return _leading_form(self.poly).gcd(sp.Poly(x**2 + y**2, x, y)).total_degree() > 0

    def meets_infinity_transversally(self) -> bool:
        """Whether the curve meets the line at infinity in d distinct points,
        i.e. the leading form is squarefree.  Tangency at infinity also
        violates the general-position assumption."""
        return _is_squarefree(_leading_form(self.poly))

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


# --------------------------------------------------------------------------
# input parsing
# --------------------------------------------------------------------------

MAX_DEGREE = 24  # largest exponent, and largest degree of any product
MAX_POWER_BITS = 4096  # largest coefficient size a power or a literal may produce
NOT_POLYNOMIAL = "curve must be a polynomial in x and y"
TOO_LARGE = (
    f"curve polynomial too large: degree cap {MAX_DEGREE}, power size cap {MAX_POWER_BITS} bits"
)
TOO_DEEP = "curve polynomial nested too deeply"
_SYNTAX = (
    ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub,
)


def parse_polynomial(text: str) -> sp.Poly:
    """The polynomial in x and y written in `text`, built without evaluating
    any code: integer and decimal literals (read exactly), x, y, + - * /,
    unary signs, parentheses, division by a nonzero constant, and ** (or ^)
    with an integer literal exponent in 0..MAX_DEGREE.  The domain is ZZ
    when every coefficient is an integer and QQ otherwise."""
    text = text.strip().replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"--poly does not parse: {exc.msg}") from None
    except RecursionError:
        raise ValueError(TOO_DEEP) from None
    nodes = list(ast.walk(tree.body))
    if not all(isinstance(node, _SYNTAX) for node in nodes):
        raise ValueError(NOT_POLYNOMIAL)
    foreign = sorted({node.id for node in nodes if isinstance(node, ast.Name)} - {"x", "y"})
    if foreign:
        raise ValueError(f"curve may involve only x and y, got {', '.join(foreign)}")
    try:
        terms = _build(tree.body, text)
    except RecursionError:
        raise ValueError(TOO_DEEP) from None
    return sp.Poly.from_dict(
        {m: QQ(c.numerator, c.denominator) for m, c in terms.items()}, x, y, domain=QQ
    ).retract()


# a polynomial in (x, y) while it is parsed: exponents -> nonzero coefficient
_Terms = dict[tuple[int, int], Fraction]


def _build(node: ast.expr, text: str) -> _Terms:
    # a sum or product of m terms nests m levels deep on the left; fold that
    # spine in a loop, so that only parentheses and powers recurse
    spine = []
    while isinstance(node, ast.BinOp) and not isinstance(node.op, ast.Pow):
        spine.append(node)
        node = node.left
    value = _leaf(node, text)
    for binop in reversed(spine):
        value = _combine(binop.op, value, _build(binop.right, text))
    return value


def _leaf(node: ast.expr, text: str) -> _Terms:
    if isinstance(node, ast.Name):
        return {(1, 0) if node.id == "x" else (0, 1): Fraction(1)}
    if isinstance(node, ast.Constant):
        if type(node.value) is int:
            if node.value.bit_length() > MAX_POWER_BITS:
                raise ValueError(TOO_LARGE)
            value = Fraction(node.value)
        elif type(node.value) is float:
            value = _decimal(ast.get_source_segment(text, node))
        else:
            raise ValueError(NOT_POLYNOMIAL)
        return {(0, 0): value} if value else {}
    if isinstance(node, ast.UnaryOp):
        operand = _build(node.operand, text)
        return {m: -c for m, c in operand.items()} if isinstance(node.op, ast.USub) else operand
    base, e = _build(node.left, text), node.right  # a power
    if not (isinstance(e, ast.Constant) and type(e.value) is int):
        raise ValueError(NOT_POLYNOMIAL)
    bits = max((_bits(c) for c in base.values()), default=1)
    if e.value * max(_degree(base), 1) > MAX_DEGREE or e.value * bits > MAX_POWER_BITS:
        raise ValueError(TOO_LARGE)
    power = {(0, 0): Fraction(1)}
    for _ in range(e.value):
        power = _product(power, base)
    return power


def _decimal(literal: str) -> Fraction:
    """The exact value of a decimal literal, refused before it is built when
    its numerator or denominator would exceed MAX_POWER_BITS (`1e9999999`
    alone would be a 33-million-bit integer)."""
    try:
        value = Decimal(literal)
    except InvalidOperation:  # an exponent of 10**18 or more in magnitude
        if Decimal(literal.lower().partition("e")[0]):
            raise ValueError(TOO_LARGE) from None
        return Fraction(0)
    if value:
        # 10**k > 2**(3 k) bounds the numerator by the leading digit; the last
        # nonzero digit at 10**-k leaves a denominator of at least 2**k
        _, digits, exponent = value.as_tuple()
        digits = "".join(map(str, digits))
        last = exponent + len(digits) - len(digits.rstrip("0"))
        if 3 * value.adjusted() >= MAX_POWER_BITS or -last > MAX_POWER_BITS:
            raise ValueError(TOO_LARGE)
    exact = Fraction(value)
    if _bits(exact) > MAX_POWER_BITS:
        raise ValueError(TOO_LARGE)
    return exact


def _bits(c: Fraction) -> int:
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _degree(terms: _Terms) -> int:
    return max((i + j for i, j in terms), default=0)


def _product(left: _Terms, right: _Terms) -> _Terms:
    out: _Terms = {}
    for (i, j), a in left.items():
        for (p, q), b in right.items():
            out[i + p, j + q] = out.get((i + p, j + q), 0) + a * b
    return {m: c for m, c in out.items() if c}


def _combine(op: ast.operator, left: _Terms, right: _Terms) -> _Terms:
    if isinstance(op, ast.Div):
        if right.keys() != {(0, 0)}:  # zero or not a constant
            raise ValueError(NOT_POLYNOMIAL)
        return {m: c / right[0, 0] for m, c in left.items()}
    if isinstance(op, ast.Mult):
        if _degree(left) + _degree(right) > MAX_DEGREE:
            raise ValueError(TOO_LARGE)
        return _product(left, right)
    sign = 1 if isinstance(op, ast.Add) else -1
    out = dict(left)
    for m, c in right.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _leading_form(P: sp.Poly) -> sp.Poly:
    d = P.total_degree()
    return sp.Poly.from_dict({m: c for m, c in P.terms() if sum(m) == d}, *P.gens, domain=P.domain)


def _is_squarefree(P: sp.Poly) -> bool:
    """Whether gcd(P, dP/dx, dP/dy) is constant, i.e. P has no repeated factor."""
    return P.gcd(P.diff(x)).gcd(P.diff(y)).total_degree() == 0


@dataclass(frozen=True)
class EvoluteResult:
    """Squarefree, content-free defining polynomial of the evolute in (X, Y),
    the closed-form target, and the elimination log."""

    poly: sp.Poly
    expected_degree: int
    match: bool | None
    flags: tuple[str, ...]
    log: tuple[str, ...]

    @property
    def polynomial(self) -> sp.Expr:
        return self.poly.as_expr()

    @property
    def degree(self) -> int:
        return self.poly.total_degree()

    @property
    def text(self) -> str:
        return canonical_text(self.poly)

    def to_dict(self) -> dict:
        return {
            "polynomial": self.text,
            "degree": self.degree,
            "expected_degree": self.expected_degree,
            "match": self.match,
            "flags": list(self.flags),
            "log": list(self.log),
        }


def canonical_text(poly: sp.Poly) -> str:
    """Deterministic plain-text form: graded lexicographic, descending."""
    pieces = []
    for monom, c in poly.terms(order="grlex"):
        mono = "*".join(f"{v}**{e}" if e > 1 else str(v) for v, e in zip(poly.gens, monom) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or f"{abs(c)}")
        pieces.append(("- " if c < 0 else "+ ") + body)
    head = pieces[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([head] + pieces[1:])


def center_of_curvature_system(curve: PlaneCurve) -> tuple[sp.Poly, sp.Poly, sp.Poly]:
    """F in (x, y), G1 in (x, y, X) and G2 in (x, y, Y), whose common zeros
    project to the evolute; raises DegenerateCurveError when the curvature
    numerator vanishes on the whole curve (zero-curvature input)."""
    F = curve.poly
    Fx, Fy = F.diff(x), F.diff(y)
    if Fx.is_zero and Fy.is_zero:
        raise DegenerateCurveError("curve has identically vanishing gradient")
    Fxx, Fxy, Fyy = Fx.diff(x), Fx.diff(y), Fy.diff(y)
    D = Fy**2 * Fxx - 2 * Fx * Fy * Fxy + Fx**2 * Fyy
    if D.is_zero or D.rem(F).is_zero:
        raise DegenerateCurveError("zero curvature along the curve (line components)")
    S = Fx**2 + Fy**2
    G1 = D * sp.Poly(X - x, x, y, X) + S * Fx
    G2 = D * sp.Poly(Y - y, x, y, Y) + S * Fy
    return F, G1, G2


# --------------------------------------------------------------------------
# exact interpolated resultants
# --------------------------------------------------------------------------


def dup_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) = lc(f)**deg(g) * prod(g(a) for the roots a of f) of two
    descending integer coefficient lists with nonzero heads, by the
    subresultant PRS (Collins, J. ACM 14, 1967; Cohen, Alg. 3.3.7).

    Each pseudo-remainder and each division by lead * h**delta is exact, so
    every intermediate value is a plain int.  The degree gap delta is 0 or 1
    at almost every step; those steps skip the zero-padded tail and the
    powers of h."""
    sign = 1
    if len(f) < len(g):
        f, g = g, f
        sign = -1 if (len(f) - 1) * (len(g) - 1) % 2 else 1
    if len(g) == 1:
        return sign * g[0] ** (len(f) - 1)
    lead = h = 1
    while True:
        da, db = len(f) - 1, len(g) - 1
        delta = da - db
        if da * db % 2:
            sign = -sign
        # r = lc(g)**(delta + 1) * f mod g, one elimination step per power
        lg, rest = g[0], g[1:]
        if delta > 1:
            r, tail = f, rest + [0] * delta
            for _ in range(delta + 1):
                c = r[0]
                r = [lg * a - c * b for a, b in zip(r[1:], tail)]
            scale = lead * h**delta
        else:
            c = f[0]
            r = [lg * a - c * b for a, b in zip(f[1:], rest)]
            scale = lead
            if delta:
                r.append(lg * f[-1])
                c = r[0]
                r = [lg * a - c * b for a, b in zip(r[1:], rest)]
                scale *= h
        while r and not r[0]:
            del r[0]
        if not r:
            return 0
        f, g = g, r if scale == 1 else [c // scale for c in r]
        lead = lg
        if delta == 1:
            h = lg
        elif delta:
            h = lg**delta // h ** (delta - 1)
        if len(g) == 1:
            da = len(f) - 1
            return sign * (g[0] ** da // h ** (da - 1))


def _integer_terms(poly: sp.Poly, *gens: sp.Symbol) -> dict[tuple[int, ...], int]:
    """Exponent map in `gens` of the polynomial with denominators cleared
    (the global rational scale is irrelevant downstream, where content is
    removed)."""
    _, P = poly.clear_denoms(convert=True)
    where = [P.gens.index(g) if g in P.gens else None for g in gens]
    return {
        tuple(0 if i is None else m[i] for i in where): int(c) for m, c in P.terms()
    }


def _specialize(terms: dict[tuple[int, int], int], main_degree: int, value: int) -> list[int]:
    coeffs = [0] * (main_degree + 1)
    for (i, j), c in terms.items():
        coeffs[i] += c * value**j
    return coeffs


def _divided_differences(nodes: list[int], values: list[int]) -> list[int]:
    """Newton coefficients [t0], [t0, t1], ... of the polynomial of degree
    < len(values) that takes `values` at the first len(values) `nodes`.

    Every divided difference of an integer polynomial at integer nodes is an
    integer, so each division is exact; a remainder means the samples are
    not those of an integer polynomial of degree < len(values)."""
    n = len(values)
    dd = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], nodes[i] - nodes[i - j])
            if r:
                raise ArithmeticError("interpolated samples are not an integer polynomial")
            dd[i] = q
    return dd


def _monomials(nodes: list[int], dd: list[int]) -> list[int]:
    """Ascending monomial coefficients of the Newton form with coefficients
    `dd` at `nodes`, by Horner's rule:
    dd[0] + (t - nodes[0]) (dd[1] + (t - nodes[1]) (dd[2] + ...))."""
    coeffs = [dd[-1]]
    for j in range(len(dd) - 2, -1, -1):
        shifted = [dd[j]] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] -= nodes[j] * c
        coeffs = shifted
    return coeffs


def _interpolate(xs: list[int], ys: list[int]) -> list[int]:
    """Exact Newton interpolation of samples of an integer polynomial at
    integer nodes; returns its ascending monomial coefficients, without
    trailing zeros."""
    coeffs = _monomials(xs, _divided_differences(xs, ys))
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _grid(leads: list[dict[int, int]], count: int) -> list[int]:
    """The first `count` of the integers 0, 1, -1, 2, -2, ... at which none
    of the univariate polynomials `leads` (exponent -> coefficient) vanishes."""
    points: list[int] = []
    v = 0
    while len(points) < count:
        for cand in ((v,) if v == 0 else (v, -v)):
            if len(points) < count and all(
                sum(c * cand**e for e, c in lead.items()) for lead in leads
            ):
                points.append(cand)
        v += 1
        if v > 10 * count + 10:
            raise InconclusiveEliminationError("could not find stable sample points")
    return points


def _root_growths(profile: dict[int, int]) -> tuple[int, list[tuple[int, int]]]:
    """How the roots in elim of a polynomial grow when its other variables
    are scaled by t -> oo, from its profile i -> degree of the coefficient of
    elim**i: the number of roots at elim = 0, and one (width, drop) per edge
    of the upper hull of the points (i, profile[i]), whose `width` roots grow
    like t**(drop / width)."""
    hull: list[tuple[int, int]] = []
    for i, d in sorted(profile.items()):
        # drop the last point while it lies on or below the chord to (i, d)
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (d - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])
        ):
            hull.pop()
        hull.append((i, d))
    edges = [(i1 - i0, d0 - d1) for (i0, d0), (i1, d1) in zip(hull, hull[1:])]
    return hull[0][0], edges


def _total_degree_bound(a_profile: dict[int, int], b_profile: dict[int, int]) -> int:
    """A bound, at least 0, on the total degree of Res_elim(A, B) in the
    variables that A and B keep, from their profiles (see `_root_growths`).

    Res = lc(A)**q lc(B)**p prod(alpha - beta) over the roots alpha of A and
    beta of B in elim, with p, q their degrees in elim.  Scale the kept
    variables by t: lc(A) grows like t**a(p), lc(B) like t**b(q), and each
    factor at most like the faster of its two roots, so the resultant grows
    at most like t**D with D = q a(p) + p b(q) + sum of max(s_alpha, s_beta).
    A root at elim = 0 stays there, and one of A and one of B make the
    resultant zero.  D is reached unless leading terms cancel: it is exact
    for a conic's second stage (12) and above the cubic's (81 against 72)."""
    p, q = max(a_profile), max(b_profile)
    a_zeros, a_edges = _root_growths(a_profile)
    b_zeros, b_edges = _root_growths(b_profile)
    if a_zeros and b_zeros:
        return 0
    bound = q * a_profile[p] + p * b_profile[q]
    bound += a_zeros * sum(drop for _, drop in b_edges)
    bound += b_zeros * sum(drop for _, drop in a_edges)
    # a pair of edges adds wa wb max(da / wa, db / wb), an integer
    bound += sum(max(da * wb, db * wa) for wa, da in a_edges for wb, db in b_edges)
    return max(bound, 0)


def _resultant_by_interpolation(
    A: sp.Poly, B: sp.Poly, elim: sp.Symbol, u: sp.Symbol, v: sp.Symbol
) -> sp.Poly:
    """Res_elim(A(elim, u), B(elim, u, v)) as an integer polynomial in
    (u, v), up to a nonzero rational scale, from exact samples on an integer
    grid (Collins, J. ACM 18, 1971); zero when the resultant vanishes.

    Three bounds fix which samples are taken.  With p, q the degrees of A, B
    in elim and m, n their total degrees in (elim, u), the Sylvester matrix
    bounds the degree in u by both q m + p n - p q and q deg_u(A) +
    p deg_u(B), and the degree in v by p deg_v(B).  The roots of A and B in
    elim bound the total degree by D (`_total_degree_bound`).  A polynomial
    of total degree at most D is fixed by its values on the lower set
    {(a, b): a <= deg_u, b <= deg_v, a + b <= D} of a tensor grid
    (Dyn and Floater, J. Approx. Theory 177, 2014), and only those nodes are
    sampled.  One v grid serves every u node; the nodes avoid the zeros of
    both leading coefficients in elim, so each sample is the specialized
    resultant, one `dup_resultant` per node.  The tensor divided
    differences, in u along each column and then in v along each row, are
    the Newton coefficients, and Horner's rule turns them into monomials."""
    ta = _integer_terms(A, elim, u)
    tb = _integer_terms(B, elim, u, v)
    p = max(i for i, _ in ta)
    q = max(i for i, _, _ in tb)
    deg_u = min(
        q * max(i + j for i, j in ta) + p * max(i + j for i, j, _ in tb) - p * q,
        q * max(j for _, j in ta) + p * max(j for _, j, _ in tb),
    )
    deg_v = p * max(k for _, _, k in tb)
    a_profile: dict[int, int] = {}
    for i, j in ta:
        a_profile[i] = max(a_profile.get(i, 0), j)
    b_profile: dict[int, int] = {}
    for i, j, k in tb:
        b_profile[i] = max(b_profile.get(i, 0), j + k)
    D = min(_total_degree_bound(a_profile, b_profile), deg_u + deg_v)
    # at the u nodes, B's leading coefficient stays a nonzero polynomial in v
    top = max(k for i, _, k in tb if i == q)
    us = _grid(
        [
            {j: c for (i, j), c in ta.items() if i == p},
            {j: c for (i, j, k), c in tb.items() if i == q and k == top},
        ],
        min(deg_u, D) + 1,
    )
    # B specialized at each u node, once when B is free of u (every
    # second-stage call); its leading coefficients fix the one v grid
    free = not any(j for _, j, _ in tb)
    b_at: list[dict[tuple[int, int], int]] = []
    for u0 in us[:1] if free else us:
        b_u: dict[tuple[int, int], int] = {}
        for (i, j, k), c in tb.items():
            b_u[(i, k)] = b_u.get((i, k), 0) + c * u0**j
        b_at.append(b_u)
    vs = _grid([{k: c for (i, k), c in b_u.items() if i == q} for b_u in b_at], min(deg_v, D) + 1)
    shared = [_specialize(b_at[0], q, v0)[::-1] for v0 in vs] if free else None
    # row a holds the samples at us[a] and the first min(deg_v, D - a) + 1 v nodes
    rows: list[list[int]] = []
    for a, u0 in enumerate(us):
        width = min(deg_v, D - a) + 1
        b_cols = shared or [_specialize(b_at[a], q, v0)[::-1] for v0 in vs[:width]]
        a_col = _specialize(ta, p, u0)[::-1]
        rows.append([dup_resultant(a_col, b_col) for b_col in b_cols[:width]])
    # divided differences in u down each column, over the rows that reach it
    columns = [
        _divided_differences(us, [row[b] for row in rows if b < len(row)])
        for b in range(len(vs))
    ]
    # then in v along each row, to monomials in v of Newton polynomials in u
    in_v = [
        _interpolate(vs, [col[a] for col in columns if a < len(col)]) for a in range(len(us))
    ]
    result: dict[tuple[int, int], int] = {}
    for k in range(len(vs)):
        dd = [coeffs[k] if k < len(coeffs) else 0 for coeffs in in_v[: len(columns[k])]]
        for i, c in enumerate(_monomials(us, dd)):
            if c:
                result[(i, k)] = c
    return sp.Poly.from_dict(result, u, v, domain=ZZ)


# --------------------------------------------------------------------------
# elimination pipeline
# --------------------------------------------------------------------------


def _first_stage(F: sp.Poly, G: sp.Poly, elim: sp.Symbol, log: list[str]) -> sp.Poly:
    """Res_elim(F, G) as a polynomial in (other, target), with its content
    in target removed."""
    other = x if elim is y else y
    target = X if X in G.gens else Y
    res = _resultant_by_interpolation(F, G, elim, other, target)
    if res.is_zero:
        raise InconclusiveEliminationError(f"resultant in {elim} vanished identically")
    # strip content in the surviving affine variable (extraneous for the image)
    columns: dict[int, dict] = {}
    for (i, j), c in res.terms():
        columns.setdefault(j, {})[(i, 0)] = c
    # the content is certified constant by a constant column or by two
    # coprime columns (nonzero resultant); the gcd fold decides the rest
    dense = sorted(
        ([col.get((i, 0), 0) for i in range(max(col)[0], -1, -1)] for col in columns.values()),
        key=len,
    )
    if len(dense[0]) == 1 or (len(dense) > 1 and dup_resultant(dense[0], dense[1])):
        return res
    content = reduce(
        lambda a, b: a.gcd(b),
        (sp.Poly.from_dict(col, other, target, domain=res.domain) for col in columns.values()),
    )
    if content.degree(other) > 0:
        log.append(f"removed first-stage content of degree {content.degree(other)} in {other}")
        res = res.exquo(content)
    return res


def _second_stage(A: sp.Poly, B: sp.Poly, elim: sp.Symbol) -> sp.Poly:
    """Res_elim(A(elim, X), B(elim, Y)) as an integer polynomial in (X, Y),
    up to a nonzero rational scale."""
    if A.degree(elim) == 0 or B.degree(elim) == 0:
        raise InconclusiveEliminationError("nothing to eliminate")
    res = _resultant_by_interpolation(A, B, elim, X, Y)
    if res.is_zero:
        raise InconclusiveEliminationError("interpolated resultant is identically zero")
    return res


def eliminate(system: tuple[sp.Poly, sp.Poly, sp.Poly]) -> tuple[sp.Poly, list[str]]:
    """Project the curvature system to (X, Y): both iterated-resultant
    orders, cross-order gcd, content and squarefree reduction, and the
    extraneous-factor policy.  Returns the evolute polynomial in (X, Y) and
    the log."""
    F, G1, G2 = system
    log: list[str] = []

    A_y = _first_stage(F, G1, y, log)
    B_y = _first_stage(F, G2, y, log)
    if A_y.degree(x) == 0 or B_y.degree(x) == 0:
        return _zero_dimensional_image(A_y, B_y, log), log
    A_x = _first_stage(F, G1, x, log)
    B_x = _first_stage(F, G2, x, log)

    R1 = _second_stage(A_y, B_y, x)
    R2 = _second_stage(A_x, B_x, y)
    d1, d2 = R1.total_degree(), R2.total_degree()

    G = sp.gcd(R1, R2)
    dg = G.total_degree()
    if dg == 0:
        raise InconclusiveEliminationError("elimination left no hypersurface part")
    if dg < max(d1, d2):
        log.append(
            f"removed cross-order resultant extraneity: degrees {d1}/{d2} -> {dg}"
        )

    sqf = G.sqf_part()
    if sqf.total_degree() < dg:
        log.append(f"took squarefree part: degree {dg} -> {sqf.total_degree()}")

    # sp.factor_list sorts the factors, which fixes the order of the log
    _, factors = sp.factor_list(sqf)
    kept: list[sp.Poly] = []
    isotropic: list[sp.Poly] = []
    for fac, mult in factors:
        if fac.degree(X) == 0 or fac.degree(Y) == 0:
            log.append(f"stripped univariate extraneous factor: {sp.sstr(fac.as_expr())}")
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
            log.append(f"stripped isotropic-line factor: {sp.sstr(fac.as_expr())}")
    if not kept:
        raise InconclusiveEliminationError("every factor was extraneous")

    return _normalize_sign(sp.prod(kept)), log


def _zero_dimensional_image(A: sp.Poly, B: sp.Poly, log: list[str]) -> sp.Poly:
    """Constant center map (circles): the image is a single point (a, b),
    reported through its isotropic representative (X-a)^2 + (Y-b)^2."""
    if A.degree(x) > 0 or B.degree(x) > 0:
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
    return _normalize_sign(sp.Poly((X - a) ** 2 + (Y - b) ** 2, X, Y))


def _is_isotropic_factor(fac: sp.Poly) -> bool:
    """True when the factor's leading form is a nonzero constant times a
    power of X^2 + Y^2, i.e. the component sits entirely on the circular
    points at infinity.  Both forms have degree d, so an exact division
    leaves a nonzero constant quotient."""
    d = fac.total_degree()
    if d % 2:
        return False
    return _leading_form(fac).rem(sp.Poly(X**2 + Y**2, X, Y) ** (d // 2)).is_zero


def _normalize_sign(P: sp.Poly) -> sp.Poly:
    """Integer-primitive form with positive leading (graded-lex) coefficient."""
    _, prim = P.clear_denoms(convert=True)[1].primitive()
    return -prim if prim.LC(order="grlex") < 0 else prim


def oracle_check(curve: PlaneCurve) -> EvoluteResult:
    """Full oracle pipeline: build the curvature system, eliminate, and
    compare the evolute degree with the closed-form target."""
    flags = curve.genericity_flags()
    evolute, log = eliminate(center_of_curvature_system(curve))
    match = evolute.total_degree() == curve.expected_evolute_degree if not flags else None
    return EvoluteResult(
        poly=evolute,
        expected_degree=curve.expected_evolute_degree,
        match=match,
        flags=tuple(flags),
        log=tuple(log),
    )
