"""Independent evolute oracle for plane curves, as the ED discriminant.

The evolute of a plane curve F(x, y) = 0 is the envelope of its normal
lines: the centres (X, Y) whose squared-distance function to the curve has a
degenerate critical point, i.e. its ED discriminant (Draisma, Horobet,
Ottaviani, Sturmfels and Thomas, Found. Comput. Math. 16, 2016, section 7).
The point (X, Y) lies on the normal at (x, y) when

    H = Fy (X - x) - Fx (Y - y) = 0,

so R(x; X, Y) = Res_y(F, H) vanishes at the x-coordinates of the critical
points of the distance from (X, Y).  Its content in x (the singular
points, a root at every centre) is removed, and D = disc_x(R) vanishes
where two critical points meet (the evolute) and where two distinct ones
share their x (the x-coincidence locus).  The second kind comes in pairs,
so D is the evolute times the square of that locus, and the evolute is the
multiplicity-one part of D.  One elimination order suffices: the gcd with
the other order's discriminant can keep a common factor of both
coincidence loci that is not on the evolute.  Univariate and isotropic
factors are then stripped, and every removal is logged.

Both R and D are sampled on integer grids and interpolated exactly in
integer arithmetic (Collins' evaluation-interpolation scheme): each sample
is one univariate resultant over the integers, computed by a subresultant
PRS on plain ints (`dup_resultant`), and the samples of a polynomial in
(X, Y) of total degree T are taken on the lower set of total degree T of a
tensor grid, which fixes it (Dyn and Floater, J. Approx. Theory 177,
2014).  The work is predicted from the degree and the coefficient size
before the curve is factored, and a curve above `MAX_WORK` is refused.
Polynomials are `sp.Poly` from the parsed curve to the reported evolute;
only the public `EvoluteResult.polynomial` is an expression.  The curve
text is read by a whitelisting walk over its syntax tree
(`parse_polynomial`) and is never evaluated.

This module shares no code with the intersection-theoretic engine; the two
paths cross-check each other through the closed-form target
6(d + g - 1) - 2 k0.
"""

from __future__ import annotations

import ast
from collections.abc import Callable
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
        # before the factorization, which for large coefficients costs as
        # much as the elimination
        work, samples, bits = predicted_work(poly)
        if work > MAX_WORK:
            raise ValueError(
                f"curve too costly to eliminate: predicted {samples} discriminant samples "
                f"of ~{bits} bits, work {work:.1e} > budget {MAX_WORK:.0e}"
            )
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
ZERO_CURVATURE = "zero curvature along the curve (line components)"
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


# largest `predicted_work` the oracle accepts: a quartic with 6-bit
# coefficients (1.7e10; the generic quartic is 1.9e9, ~15 s); a conic with
# 512-bit coefficients (2.5e10) or a sextic (6.6e10) is refused
MAX_WORK = 2 * 10**10


def predicted_work(poly: sp.Poly) -> tuple[int, int, int]:
    """(work, samples, bits) of eliminating the curve, predicted from its
    degree d and the size B in bits of its largest integer coefficient.

    R = Res_y(F, H) has degree at most m = d**2 in x and d in (X, Y), so the
    discriminant in x is sampled on at most the lower set of total degree
    T = (2m - 1) d.  A sample has degree 2m - 1 in the coefficients of R,
    which have about 2 d B bits, so about 2 T B bits.  The work is the
    sample count times the squared sample size: one schoolbook product of
    two samples per sample."""
    d = poly.total_degree()
    B = max(abs(int(c)).bit_length() for c in poly.clear_denoms(convert=True)[1].coeffs())
    T = (2 * d * d - 1) * d
    samples, bits = (T + 1) * (T + 2) // 2, 2 * T * B
    return samples * bits * bits, samples, bits


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


def center_of_curvature_system(curve: PlaneCurve) -> tuple[sp.Poly, sp.Poly]:
    """F in (x, y) and the normal condition H = Fy (X - x) - Fx (Y - y) in
    (x, y, X, Y), which says that (X, Y) lies on the normal to the curve at
    (x, y); a line has no evolute and raises DegenerateCurveError."""
    F = curve.poly
    if F.total_degree() < 2:
        raise DegenerateCurveError(ZERO_CURVATURE)
    H = F.diff(y) * sp.Poly(X - x, x, y, X, Y) - F.diff(x) * sp.Poly(Y - y, x, y, X, Y)
    return F, H


# --------------------------------------------------------------------------
# exact sampled elimination
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


def _lower_set(
    row: Callable[[int, list[int]], list[int]], us: list[int], vs: list[int]
) -> dict[tuple[int, int], int]:
    """The integer polynomial P(u, v) of total degree < n = len(us) =
    len(vs), as exponents -> nonzero coefficient, from its values on the
    lower set {(us[a], vs[b]): a + b < n} of the tensor grid, which fix it
    (Dyn and Floater, J. Approx. Theory 177, 2014); `row(u0, vs[:k])` gives
    the samples P(u0, v0) at one u node.  The divided differences in u down
    each column, then in v along each row, are the Newton coefficients, and
    Horner's rule turns them into monomials."""
    n = len(us)
    rows = [row(u0, vs[: n - a]) for a, u0 in enumerate(us)]
    columns = [_divided_differences(us, [r[b] for r in rows[: n - b]]) for b in range(n)]
    in_v = [_interpolate(vs, [col[a] for col in columns[: n - a]]) for a in range(n)]
    result: dict[tuple[int, int], int] = {}
    for k in range(n):
        dd = [coeffs[k] if k < len(coeffs) else 0 for coeffs in in_v[: n - k]]
        for i, c in enumerate(_monomials(us, dd)):
            if c:
                result[(i, k)] = c
    return result


# R(x; X, Y) while it is eliminated: exponents (i, a, b) of x**i X**a Y**b
# -> nonzero coefficient
_Resultant = dict[tuple[int, int, int], int]


def _normal_resultant(F: sp.Poly, H: sp.Poly) -> _Resultant:
    """R(x; X, Y) = Res_y(F, H) up to a nonzero rational scale, from exact
    samples (Collins, J. ACM 18, 1971).

    With p and n the degrees of F and H in y, R is homogeneous of degree p
    in the coefficients of H, which are linear in (X, Y), so p bounds its
    total degree in (X, Y); Bezout bounds its degree in x by d**2.  It is
    sampled at d**2 + 1 x nodes that avoid the zeros of lc_y(F), times the
    (X, Y) lower set of total degree p, one `dup_resultant` per node.
    Where the head of H in y vanishes at a node, H0 falls delta degrees
    short of n and the sample is lc(F0)**delta Res(F0, H0), the resultant
    at the formal degree n."""
    f = _integer_terms(F, x, y)
    h = _integer_terms(H, x, y, X, Y)
    d = F.total_degree()
    p = max(j for _, j in f)
    n = max(j for _, j, _, _ in h)
    xs = _grid([{i: c for (i, j), c in f.items() if j == p}], d * d + 1)
    uv = _grid([], p + 1)
    at_x: list[dict[tuple[int, int], int]] = []
    for x0 in xs:
        f0 = [0] * (p + 1)
        for (i, j), c in f.items():
            f0[p - j] += c * x0**i
        # H at x0 is the sum of X**a Y**b parts[a, b], each descending in y
        parts: dict[tuple[int, int], list[int]] = {}
        for (i, j, a, b), c in h.items():
            parts.setdefault((a, b), [0] * (n + 1))[n - j] += c * x0**i

        # called at once by `_lower_set`, so it sees this x0's f0 and parts
        def row(u0: int, vs: list[int]) -> list[int]:
            samples = []
            for v0 in vs:
                h0 = [0] * (n + 1)
                for (a, b), part in parts.items():
                    w = u0**a * v0**b
                    h0 = [s + w * c for s, c in zip(h0, part)]
                delta = next((k for k, c in enumerate(h0) if c), None)
                if delta is None:  # Res(F0, 0) = 0, or lc(F0)**n when F0 is a constant
                    samples.append(0 if p else f0[0] ** n)
                else:
                    samples.append(dup_resultant(f0, h0[delta:]) * f0[0] ** delta)
            return samples

        at_x.append(_lower_set(row, uv, uv))
    R: _Resultant = {}
    for a, b in sorted(set().union(*at_x)):
        for i, c in enumerate(_interpolate(xs, [s.get((a, b), 0) for s in at_x])):
            if c:
                R[(i, a, b)] = c
    if not R:
        raise InconclusiveEliminationError("resultant in y vanished identically")
    return R


def _strip_content(R: _Resultant, log: list[str]) -> _Resultant:
    """R without its content in x: the x-coordinates of the singular points,
    which are roots of R at every centre (X, Y).

    A constant column (the coefficient of one X**a Y**b) or two coprime ones
    (a nonzero resultant) certify that the content is constant; the gcd
    fold of every column decides the rest.  Vertical lines leave no x."""
    m = max(i for i, _, _ in R)
    columns: dict[tuple[int, int], list[int]] = {}
    for (i, a, b), c in R.items():
        columns.setdefault((a, b), [0] * (m + 1))[m - i] = c
    dense = sorted(
        (col[next(k for k, c in enumerate(col) if c):] for col in columns.values()), key=len
    )
    if len(dense[0]) > 1 and not (len(dense) > 1 and dup_resultant(dense[0], dense[1])):
        content = reduce(lambda g, col: g.gcd(sp.Poly(col, x)), dense[1:], sp.Poly(dense[0], x))
        if content.degree() > 0:
            log.append(f"removed content of degree {content.degree()} in x (singular points)")
            m -= content.degree()
            R = {}
            for (a, b), col in columns.items():
                quotient = sp.Poly(col, x).exquo(content).all_coeffs()[::-1]
                R.update({(i, a, b): int(c) for i, c in enumerate(quotient) if c})
    if m == 0:
        raise DegenerateCurveError(ZERO_CURVATURE)
    return R


def _discriminant(R: _Resultant) -> sp.Poly:
    """disc_x(R) = Res_x(R, dR/dx) / lc_x(R) in (X, Y), up to sign.

    With m = deg_x R and e its total degree in (X, Y), the Sylvester matrix
    of R and dR/dx has 2m - 1 rows of coefficients of degree at most e, so
    the quotient has total degree at most T = (2m - 1) e - deg lc_x(R).  It
    is sampled on the lower set of total degree T of a grid that avoids the
    zeros of lc_x(R), one `dup_resultant(R0, R0')` per node, each divided
    exactly by lc(R0)."""
    m = max(i for i, _, _ in R)
    e = max(a + b for _, a, b in R)
    lead = {(a, b): c for (i, a, b), c in R.items() if i == m}
    count = (2 * m - 1) * e - max(a + b for a, b in lead) + 1
    # at the X nodes, lc_x(R) stays a nonzero polynomial in Y
    top = max(b for _, b in lead)
    us = _grid([{a: c for (a, b), c in lead.items() if b == top}], count)
    leads = []
    for u0 in us:
        lead_u: dict[int, int] = {}
        for (a, b), c in lead.items():
            lead_u[b] = lead_u.get(b, 0) + c * u0**a
        leads.append(lead_u)
    vs = _grid(leads, count)

    def row(u0: int, vs: list[int]) -> list[int]:
        # R at X = u0: one ascending polynomial in Y per power of x, descending
        in_y = [[0] * (e + 1) for _ in range(m + 1)]
        for (i, a, b), c in R.items():
            in_y[m - i][b] += c * u0**a
        samples = []
        for v0 in vs:
            r0 = []
            for coeffs in in_y:
                value = 0
                for c in reversed(coeffs):
                    value = value * v0 + c
                r0.append(value)
            dr0 = [(m - k) * c for k, c in enumerate(r0[:-1])]
            q, rem = divmod(dup_resultant(r0, dr0), r0[0])
            if rem:
                raise ArithmeticError("discriminant sample not divisible by lc(R0)")
            samples.append(q)
        return samples

    D = _lower_set(row, us, vs)
    if not D:
        # two roots of R share x at every centre only when each normal
        # meets the curve twice at one x: a pair of horizontal lines
        raise DegenerateCurveError(ZERO_CURVATURE)
    return sp.Poly.from_dict(D, X, Y, domain=ZZ)


def _simple_part(D: sp.Poly, log: list[str]) -> sp.Poly:
    """The product of the factors of multiplicity one of D (sympy's
    `sqf_list`).  D is the evolute times the square of the x-coincidence
    locus, the centres on the normals of two curve points with one x; a
    curve of lines has no multiplicity-one factor."""
    _, parts = sp.sqf_list(D)
    simple = [fac for fac, mult in parts if mult == 1]
    if not simple:
        raise DegenerateCurveError(ZERO_CURVATURE)
    P = sp.prod(simple)
    if P.total_degree() < D.total_degree():
        log.append(
            f"removed x-coincidence extraneity: degree {D.total_degree()} -> {P.total_degree()}"
        )
    return P


# --------------------------------------------------------------------------
# elimination pipeline
# --------------------------------------------------------------------------


def eliminate(system: tuple[sp.Poly, sp.Poly]) -> tuple[sp.Poly, list[str]]:
    """Project the normal system (F, H) to the ED discriminant in (X, Y):
    R = Res_y(F, H) without its content in x, D = disc_x(R), the
    multiplicity-one part of D, and the extraneous-factor policy.  Returns
    the evolute polynomial in (X, Y) and the log."""
    log: list[str] = []
    R = _strip_content(_normal_resultant(*system), log)
    evolute = _simple_part(_discriminant(R), log)

    # sp.factor_list sorts the factors, which fixes the order of the log
    _, factors = sp.factor_list(evolute)
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
