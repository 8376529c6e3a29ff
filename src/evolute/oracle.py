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

Exact integer certificates decide the common case before any bivariate
factorization.  The input is certified irreducible when its content in x
is constant and one specialization F(x, y0) is irreducible; the evolute is
split from D by univariate splits at sample nodes, interpolated and
accepted only on an exact identity D = mu E C**2; and nothing needs
stripping when both of its contents are constant and X**2 + Y**2 does not
divide its leading form.  The genericity flags are exact tests on the
leading form.  sympy's `factor_list` and `sqf_list` run only on what a
certificate leaves undecided: reducible or non-squarefree input, circles
and other isotropic evolutes, and a D whose split is not a square.

Both R and D are sampled on integer grids and interpolated exactly in
integer arithmetic (Collins' evaluation-interpolation scheme): each sample
is one univariate resultant over the integers, computed by a subresultant
PRS on plain ints (`dup_resultant`), and the samples of a polynomial in
(X, Y) of total degree T are taken on the lower set of total degree T of a
tensor grid, which fixes it (Dyn and Floater, J. Approx. Theory 177,
2014).  The work is predicted from the degree and the coefficient size
before the curve is checked, and a curve above `MAX_WORK` is refused.
The curve text is read by a whitelisting walk over its syntax tree
(`parse_polynomial`), is never evaluated, and gives exact rational terms;
`PlaneCurve.from_expr` clears their denominators once, by their lcm, and
from there to the evolute every polynomial is an integer term map,
exponents -> nonzero coefficient.  sympy's `Poly` is built only by the
three sympy fallbacks (the curve's `factor_list`, D's `sqf_list` and the
evolute's `factor_list`, which `_integer_terms` converts back) and by the
public `EvoluteResult.polynomial`.

This module shares no code with the intersection-theoretic engine; the two
paths cross-check each other through the closed-form target
6(d + g - 1) - 2 k0.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm

import sympy as sp
from sympy.polys.densearith import dup_div, dup_exquo, dup_mul, dup_pow, dup_sqr
from sympy.polys.densebasic import dmp_to_dict, dup_strip
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_primitive, dup_gcd
from sympy.polys.factortools import dup_factor_list
from sympy.polys.sqfreetools import dup_sqf_list

x, y = sp.symbols("x y")
X, Y = sp.symbols("X Y")


# exponents -> nonzero integer coefficient: F in (x, y), H in (x, y, X, Y),
# R in (x, X, Y), D and the evolute in (X, Y)
_IntTerms = dict[tuple[int, ...], int]
# the parsed curve in (x, y): exponents -> nonzero exact coefficient
_Terms = dict[tuple[int, int], Fraction]


class DegenerateCurveError(ValueError):
    """Input whose curvature system degenerates identically (lines, etc.)."""


class InconclusiveEliminationError(ArithmeticError):
    """Elimination collapsed (zero resultant or empty hypersurface part)."""


@dataclass(frozen=True)
class PlaneCurve:
    """An implicit plane curve F(x, y) = 0, as integer terms (exponents
    (i, j) of x**i y**j -> nonzero coefficient, denominators cleared), with
    its declared numerical invariants.

    The genus defaults to the smooth plane-curve value (d-1)(d-2)/2 and the
    weighted cusp count k0 to 0; both only feed the expected-degree target.
    """

    terms: _IntTerms = field(hash=False)  # a dict: curves hash by their invariants
    degree: int
    genus: int
    cusps: int

    @classmethod
    def from_expr(cls, text: str, genus: int | None = None, cusps: int = 0) -> "PlaneCurve":
        if genus is not None and genus < 0:
            raise ValueError("genus must be nonnegative")
        if cusps < 0:
            raise ValueError("cusp count must be nonnegative")
        terms = parse_polynomial(text)
        scale = lcm(*(c.denominator for c in terms.values()))
        F = {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}
        d = _degree(F)
        if not d:
            raise ValueError("constant input is not a curve")
        # before the irreducibility check, whose sympy fallback can cost
        # more than the elimination for large coefficients
        work, samples, bits = predicted_work(F)
        if work > MAX_WORK:
            raise ValueError(
                f"curve too costly to eliminate: predicted {samples} discriminant samples "
                f"of ~{bits} bits, work {work:.1e} > budget {MAX_WORK:.0e}"
            )
        if not _certified_irreducible(F):
            _, factors = sp.factor_list(sp.Poly.from_dict(F, x, y))
            if any(mult > 1 for _, mult in factors):
                raise ValueError("curve polynomial must be squarefree")
            if len(factors) > 1:
                raise DegenerateCurveError("curve polynomial must be irreducible over Q")
        if genus is None:
            genus = (d - 1) * (d - 2) // 2
        return cls(F, d, int(genus), cusps)

    @property
    def expected_evolute_degree(self) -> int:
        return 6 * (self.degree + self.genus - 1) - 2 * self.cusps

    def through_circular_points(self) -> bool:
        """Whether the projective closure meets the circular points at
        infinity (1 : +-i : 0), i.e. the leading form shares a factor with
        x^2 + y^2.  Such curves violate the genericity the degree formulas
        assume."""
        return _isotropic(_infinity_form(self.terms))

    def meets_infinity_transversally(self) -> bool:
        """Whether the curve meets the line at infinity in d distinct points,
        i.e. the leading form LF is squarefree: x^2 does not divide it and
        f(t) = LF(1, t) has no repeated root, Res(f, f') != 0.  Tangency at
        infinity also violates the general-position assumption."""
        form = _infinity_form(self.terms)
        f = form[next(k for k, c in enumerate(form) if c) :]
        if len(form) - len(f) > 1:
            return False
        return len(f) == 1 or dup_resultant(f, _derivative(f)) != 0

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


def parse_polynomial(text: str) -> _Terms:
    """The polynomial in x and y written in `text`, as exact terms (exponents
    (i, j) of x**i y**j -> nonzero `Fraction`), built without evaluating any
    code: integer and decimal literals (read exactly), x, y, + - * /, unary
    signs, parentheses, division by a nonzero constant, and ** (or ^) with
    an integer literal exponent in 0..MAX_DEGREE."""
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
        return _build(tree.body, text)
    except RecursionError:
        raise ValueError(TOO_DEEP) from None


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


def _degree(terms: _Terms | _IntTerms) -> int:
    return max((sum(m) for m in terms), default=0)


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
# coefficients (1.7e10; the generic quartic is 1.9e9); a conic with 512-bit
# coefficients (2.5e10) or a sextic (6.6e10) is refused.  The budget bounds
# the sampling; sympy's factoring, which grows faster in the coefficient
# size, runs only on inputs that fail the integer certificates
MAX_WORK = 2 * 10**10


def predicted_work(F: _IntTerms) -> tuple[int, int, int]:
    """(work, samples, bits) of eliminating the curve, predicted from its
    degree d and the size B in bits of its largest integer coefficient.

    R = Res_y(F, H) has degree at most m = d**2 in x and d in (X, Y), so the
    discriminant in x is sampled on at most the lower set of total degree
    T = (2m - 1) d.  A sample has degree 2m - 1 in the coefficients of R,
    which have about 2 d B bits, so about 2 T B bits.  The work is the
    sample count times the squared sample size: one schoolbook product of
    two samples per sample.  The model covers the sampling only: sympy's
    bivariate factoring is not modelled, and runs only on inputs that fail
    the integer certificates."""
    d = _degree(F)
    B = max(abs(c).bit_length() for c in F.values())
    T = (2 * d * d - 1) * d
    samples, bits = (T + 1) * (T + 2) // 2, 2 * T * B
    return samples * bits * bits, samples, bits


def _infinity_form(P: _IntTerms) -> list[int]:
    """f(t) = LF(1, t) for the leading form LF of P in its two generators
    (u, v), as a descending list of d + 1 integers: entry k is the
    coefficient of u**k v**(d - k), so k leading zeros mean that u**k
    divides LF."""
    d = _degree(P)
    form = [0] * (d + 1)
    for (i, j), c in P.items():
        if i + j == d:
            form[i] = c
    return form


def _isotropic(form: list[int]) -> bool:
    """Whether u**2 + v**2 divides the real leading form, i.e. LF(1, i) = 0,
    in exact Gaussian-integer arithmetic on `_infinity_form`'s list."""
    up = form[::-1]  # up[j] is the coefficient of t**j, and i**j cycles 1, i, -1, -i
    return sum(up[0::4]) == sum(up[2::4]) and sum(up[1::4]) == sum(up[3::4])


def _derivative(f: list[int]) -> list[int]:
    """f' of a descending integer coefficient list of degree >= 1."""
    m = len(f) - 1
    return [(m - k) * c for k, c in enumerate(f[:-1])]


def _certified_irreducible(f: _IntTerms) -> bool:
    """Whether F is certified irreducible over Q, hence squarefree: its
    content in x over Z[y] is constant (`_content`) and F(x, y0)
    keeps degree deg_x F and is irreducible in Z[x] for some y0 in
    0, +-1, +-2.  A factorization F = G H would survive at y0: a factor free
    of x would divide the content, and two factors of positive degree in x
    keep it where lc_x(F) does not vanish.  False leaves it undecided."""
    n = max(i for i, _ in f)
    if not n or len(_content(_columns(f, 1).values())) > 1:
        return False
    for y0 in (0, 1, -1, 2, -2):
        f0 = [0] * (n + 1)
        for (i, j), c in f.items():
            f0[n - i] += c * y0**j
        if f0[0]:
            _, factors = dup_factor_list(f0, ZZ)
            if len(factors) == 1 and factors[0][1] == 1:
                return True
    return False


@dataclass(frozen=True)
class EvoluteResult:
    """Squarefree, content-free defining polynomial of the evolute, as
    integer terms in (X, Y), the closed-form target, and the elimination
    log."""

    terms: _IntTerms
    expected_degree: int
    match: bool | None
    flags: tuple[str, ...]
    log: tuple[str, ...]

    @property
    def polynomial(self) -> sp.Expr:
        return sp.Poly.from_dict(self.terms, X, Y).as_expr()

    @property
    def degree(self) -> int:
        return _degree(self.terms)

    @property
    def text(self) -> str:
        return canonical_text(self.terms)

    def to_dict(self) -> dict:
        return {
            "polynomial": self.text,
            "degree": self.degree,
            "expected_degree": self.expected_degree,
            "match": self.match,
            "flags": list(self.flags),
            "log": list(self.log),
        }


def canonical_text(terms: _IntTerms) -> str:
    """Deterministic plain-text form of integer terms in (X, Y): graded
    lexicographic, descending; no terms print as 0."""
    pieces = []
    for (a, b), c in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(f"{v}**{e}" if e > 1 else v for v, e in (("X", a), ("Y", b)) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or f"{abs(c)}")
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces) or "+ 0"
    return ("-" if text[0] == "-" else "") + text[2:]


def center_of_curvature_system(curve: PlaneCurve) -> tuple[_IntTerms, _IntTerms]:
    """F in (x, y) and the normal condition H = Fy (X - x) - Fx (Y - y) in
    (x, y, X, Y), which says that (X, Y) lies on the normal to the curve at
    (x, y); a line has no evolute and raises DegenerateCurveError."""
    F = curve.terms
    if curve.degree < 2:
        raise DegenerateCurveError(ZERO_CURVATURE)
    H: _IntTerms = {}
    for (i, j), c in F.items():  # the term's parts of Fy X, -x Fy, -Fx Y and y Fx
        for m, v in (((i, j - 1, 1, 0), j * c), ((i + 1, j - 1, 0, 0), -j * c),
                     ((i - 1, j, 0, 1), -i * c), ((i - 1, j + 1, 0, 0), i * c)):
            H[m] = H.get(m, 0) + v
    return F, {m: c for m, c in H.items() if c}


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


def _integer_terms(poly: sp.Poly) -> _IntTerms:
    """The integer terms of a sympy `Poly` with its denominators cleared
    (the rational scale is irrelevant downstream, where content is
    removed): the way back from the sympy fallbacks."""
    return {m: int(c) for m, c in poly.clear_denoms(convert=True)[1].rep.to_dict().items()}


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
            dd[i] = _exact(dd[i] - dd[i - 1], nodes[i] - nodes[i - j])
    return dd


def _exact(a: int, b: int) -> int:
    """a / b, which must be an integer: samples of an integer polynomial at
    integer nodes have integer divided differences."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("interpolated samples are not an integer polynomial")
    return q


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


def _normal_resultant(f: _IntTerms, h: _IntTerms) -> _IntTerms:
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
    d = _degree(f)
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
    R: _IntTerms = {}
    for a, b in sorted(set().union(*at_x)):
        for i, c in enumerate(_interpolate(xs, [s.get((a, b), 0) for s in at_x])):
            if c:
                R[(i, a, b)] = c
    if not R:
        raise InconclusiveEliminationError("resultant in y vanished identically")
    return R


def _columns(terms: _IntTerms, var: int) -> dict[tuple[int, ...], list[int]]:
    """The polynomial `terms` (exponents -> nonzero coefficient) as
    polynomials in the variable at position `var`, one per monomial in the
    others: descending coefficient lists with a nonzero head."""
    grouped: dict[tuple[int, ...], dict[int, int]] = {}
    for m, c in terms.items():
        grouped.setdefault(m[:var] + m[var + 1 :], {})[m[var]] = c
    return {
        rest: [col.get(k, 0) for k in range(max(col), -1, -1)] for rest, col in grouped.items()
    }


def _content(columns: Iterable[list[int]]) -> list[int]:
    """The gcd of these integer polynomials (descending lists with a nonzero
    head), folded from the shortest.  The fold stops once the gcd is a
    constant, so a constant content is known only up to an integer factor."""
    content, *rest = sorted(columns, key=len)
    for col in rest:
        if len(content) == 1:
            break
        content = dup_gcd(content, col, ZZ)
    return content


def _strip_content(R: _IntTerms, log: list[str]) -> _IntTerms:
    """R without its content in x, the gcd of its columns (the coefficients
    of each X**a Y**b): the x-coordinates of the singular points, which are
    roots of R at every centre (X, Y).  Vertical lines leave no x."""
    m = max(i for i, _, _ in R)
    columns = _columns(R, 0)
    content = _content(columns.values())
    if len(content) > 1:
        log.append(f"removed content of degree {len(content) - 1} in x (singular points)")
        m -= len(content) - 1
        R = {}
        for (a, b), col in columns.items():
            quotient = dup_exquo(col, content, ZZ)[::-1]
            R.update({(i, a, b): c for i, c in enumerate(quotient) if c})
    if m == 0:
        raise DegenerateCurveError(ZERO_CURVATURE)
    return R


def _discriminant(R: _IntTerms) -> _IntTerms:
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
            q, rem = divmod(dup_resultant(r0, _derivative(r0)), r0[0])
            if rem:
                raise ArithmeticError("discriminant sample not divisible by lc(R0)")
            samples.append(q)
        return samples

    D = _lower_set(row, us, vs)
    if not D:
        # two roots of R share x at every centre only when each normal
        # meets the curve twice at one x: a pair of horizontal lines
        raise DegenerateCurveError(ZERO_CURVATURE)
    return D


def _simple_part(D: _IntTerms, log: list[str]) -> _IntTerms:
    """The product of the factors of multiplicity one of D, up to a
    constant: `_square_split`, or sympy's `sqf_list` where that certifies
    nothing.  D is the evolute times the square of the x-coincidence locus,
    the centres on the normals of two curve points with one x; a curve of
    lines has no multiplicity-one factor."""
    P = _square_split(D)
    if P is None:
        _, parts = sp.sqf_list(sp.Poly.from_dict(D, X, Y, domain=ZZ))
        P = _integer_terms(sp.prod([f for f, mult in parts if mult == 1], start=sp.Poly(1, X, Y)))
    if _degree(P) == 0:
        raise DegenerateCurveError(ZERO_CURVATURE)
    if _degree(P) < _degree(D):
        log.append(f"removed x-coincidence extraneity: degree {_degree(D)} -> {_degree(P)}")
    return P


def _square_split(D: _IntTerms) -> _IntTerms | None:
    """E primitive in X with D = mu(Y) E C**2, E squarefree and coprime to
    C, and every factor of mu of multiplicity at least 2: then E is D's
    multiplicity-one part.  None when the samples below certify no such E.

    At a node v0 where lc_X(D) does not vanish, `_square_parts` splits
    D0 = D(X, v0) into its simple roots and a square; a node with fewer
    simple roots than another lies on a collision of E and C and is
    dropped.  The images, scaled to the head lc_X(D)(v0), are those of
    polynomials of degree at most deg_Y D in Y; Newton interpolation (Brown,
    J. ACM 18, 1971) adds nodes until two in a row add nothing.  E and C
    are the primitive parts in X, mu = lc_X(D) / (lc_X(E) lc_X(C)**2), and the
    result stands only on the exact identity D = mu E C**2.  Given it, the
    deg_X E simple roots of D0 at a kept node are roots of E(X, v0) not
    shared with C(X, v0), so E(X, v0) is squarefree and coprime to C(X, v0);
    a repeated or common factor would stay one at v0, since lc_X(D)(v0) != 0
    and E has no factor free of X."""
    in_y = _columns(D, 1)
    rows = [in_y.get((a,), []) for a in range(max(in_y)[0], -1, -1)]  # descending in X, then Y
    top = max(len(row) for row in rows) - 1  # deg_Y D
    lead = {b: c for b, c in enumerate(rows[0][::-1]) if c}
    nodes: list[int] = []
    # per coefficient of the two images: the last diagonal of its divided
    # difference table and its Newton coefficients
    tables: list[tuple[list[int], list[int]]] = []
    simple = quiet = -1
    grid = _grid([lead], 2 * top + 2)  # out of nodes is inconclusive, not a refusal
    try:
        for v0 in grid:
            d0 = [reduce(lambda acc, c: acc * v0 + c, row, 0) for row in rows]
            parts = _square_parts(d0)
            if parts is None or len(parts[0]) < simple:
                continue
            e0, g = parts
            scaled = [divmod(d0[0] * c, f[0]) for f in (e0, g) for c in f]
            if any(r for _, r in scaled):  # not the images of E and C
                continue
            if len(e0) > simple:  # every earlier node lay on a collision
                simple, nodes, tables = len(e0), [], [([], []) for _ in scaled]
            nodes.append(v0)
            settled = True
            for (diagonal, newton), (value, _) in zip(tables, scaled):
                row = [value]
                for j, previous in enumerate(diagonal, 1):
                    row.append(_exact(row[-1] - previous, v0 - nodes[-1 - j]))
                diagonal[:] = row
                newton.append(row[-1])
                settled = settled and not row[-1]
            # a set of nodes symmetric about a centre of symmetry of the
            # images also adds nothing, but never two sets in a row
            quiet = quiet + 1 if settled else 0
            if quiet == 2 or len(nodes) > top:
                break
        else:
            return None
    except ArithmeticError:  # the kept images are not those of integer polynomials
        return None
    dense = [dup_strip(_monomials(nodes, newton)[::-1]) for _, newton in tables]
    E = dmp_primitive(dense[:simple], 1, ZZ)[1]
    C = dmp_primitive(dense[simple:], 1, ZZ)[1]
    mu, rem = dup_div(
        [lead.get(b, 0) for b in range(max(lead), -1, -1)],
        dup_mul(E[0], dup_sqr(C[0], ZZ), ZZ),
        ZZ,
    )
    if rem or any(mult == 1 for _, mult in dup_sqf_list(mu, ZZ)[1]):
        return None
    # both sides at Y = 2**k (Kronecker): every coefficient of either side
    # is below 2**(k - 1) in size, so equal values mean equal polynomials
    size = max(
        sum(map(abs, mu)) * _norm(E) * _norm(C) ** 2, max(abs(c) for row in rows for c in row)
    )
    k = size.bit_length() + 1

    def at(row: list[int]) -> int:
        return reduce(lambda acc, c: (acc << k) + c, row, 0)

    product = dup_mul([at(row) for row in E], dup_sqr([at(row) for row in C], ZZ), ZZ)
    if dup_mul([at(mu)], product, ZZ) != [at(row) for row in rows]:
        return None
    return dmp_to_dict(E, 1, ZZ)


def _square_parts(f: list[int]) -> tuple[list[int], list[int]] | None:
    """(e, c) with f = lc * e * c**2 and e the product of the simple roots
    of f, up to constants, by Yun's squarefree decomposition (sympy's
    `dup_sqf_list`); None when a root has odd multiplicity above 1."""
    e, c = [1], [1]
    for part, mult in dup_sqf_list(f, ZZ)[1]:
        if mult == 1:
            e = part
        elif mult % 2:
            return None
        else:
            c = dup_mul(c, dup_pow(part, mult // 2, ZZ), ZZ)
    return e, c


def _norm(rows: list[list[int]]) -> int:
    return sum(abs(c) for row in rows for c in row)


# --------------------------------------------------------------------------
# elimination pipeline
# --------------------------------------------------------------------------


def eliminate(system: tuple[_IntTerms, _IntTerms]) -> tuple[_IntTerms, list[str]]:
    """Project the normal system (F, H) to the ED discriminant in (X, Y):
    R = Res_y(F, H) without its content in x, D = disc_x(R), the
    multiplicity-one part of D, and the extraneous-factor policy.  Returns
    the evolute polynomial in (X, Y) and the log."""
    log: list[str] = []
    R = _strip_content(_normal_resultant(*system), log)
    evolute = _simple_part(_discriminant(R), log)
    if _nothing_to_strip(evolute):
        return _normalize_sign(evolute), log

    # sp.factor_list sorts the factors, which fixes the order of the log
    _, factors = sp.factor_list(sp.Poly.from_dict(evolute, X, Y, domain=ZZ))
    kept: list[sp.Poly] = []
    isotropic: list[sp.Poly] = []
    for fac, mult in factors:
        if fac.degree(X) == 0 or fac.degree(Y) == 0:
            log.append(f"stripped univariate extraneous factor: {sp.sstr(fac.as_expr())}")
            continue
        if _is_isotropic_factor(_integer_terms(fac)):
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

    return _normalize_sign(_integer_terms(sp.prod(kept))), log


def _nothing_to_strip(P: _IntTerms) -> bool:
    """Whether P certifiably has no univariate and no isotropic factor: its
    contents in X and in Y are constant (`_content`), and X**2 + Y**2 does
    not divide its leading form, which every isotropic factor's leading
    form would bring.  False leaves it undecided."""
    return (
        len(_content(_columns(P, 1).values())) == 1
        and len(_content(_columns(P, 0).values())) == 1
        and not _isotropic(_infinity_form(P))
    )


def _is_isotropic_factor(fac: _IntTerms) -> bool:
    """True when the factor's leading form is a nonzero constant times a
    power of X^2 + Y^2, i.e. the component sits entirely on the circular
    points at infinity: entry k of `_infinity_form` is then that constant
    times binomial(d/2, k/2) for even k and 0 for odd k."""
    d = _degree(fac)
    form = _infinity_form(fac)
    power = [0 if k % 2 else comb(d // 2, k // 2) for k in range(d + 1)]
    return d % 2 == 0 and form == [form[0] * c for c in power]


def _normalize_sign(P: _IntTerms) -> _IntTerms:
    """Integer-primitive form with positive leading (graded-lex) coefficient."""
    scale = reduce(gcd, P.values(), 0)
    if P[max(P, key=lambda m: (sum(m), m))] < 0:
        scale = -scale
    return {m: c // scale for m, c in P.items()}


def oracle_check(curve: PlaneCurve) -> EvoluteResult:
    """Full oracle pipeline: build the curvature system, eliminate, and
    compare the evolute degree with the closed-form target."""
    flags = curve.genericity_flags()
    evolute, log = eliminate(center_of_curvature_system(curve))
    match = _degree(evolute) == curve.expected_evolute_degree if not flags else None
    return EvoluteResult(
        terms=evolute,
        expected_degree=curve.expected_evolute_degree,
        match=match,
        flags=tuple(flags),
        log=tuple(log),
    )
