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
is constant and one specialization F(x, y0) is irreducible (a quadratic
by its discriminant, a higher degree modulo a small prime); the square
part C of D is interpolated from univariate splits at sample nodes (one
gcd each unless a root has multiplicity above 2), and the evolute E is
D / C**2 by one exact division, accepted only on the exact identity
D = mu E C**2; and nothing needs stripping when both of its
contents are constant and X**2 + Y**2 does not divide its leading form.
The genericity flags are exact tests on the leading form.  sympy's
`factor_list` and `sqf_list` run only on what a certificate leaves
undecided: reducible or non-squarefree input, circles and other isotropic
evolutes, and a D whose split is not a square.

Both R and D are sampled at integer nodes and interpolated exactly in
integer arithmetic (Collins' evaluation-interpolation scheme): each sample
is one univariate resultant over the integers, computed by a subresultant
PRS on plain ints (`dup_resultant`).  A sample's coefficients in (X, Y)
are packed into one integer by Kronecker substitution, at a power of two
that Hadamard's bound makes large enough to read them back off its digits:
X = t and Y = t**(p + 1) for R, whose total degree in (X, Y) is at most
p = deg_y F, one resultant per x node; Y = t for D, one resultant per X
node, while the packed samples stay within `_PACKED_BITS`.  A larger D is
sampled on the lower set of total degree T of a tensor grid, which fixes a
polynomial of total degree T (Dyn and Floater, J. Approx. Theory 177,
2014).  For D, T is read off the Newton polygon of R in x, from the
degrees of its coefficients and the growth of its roots.  The work is
predicted from the degree and the coefficient size before the curve is
checked, and a curve above `MAX_WORK` is refused.
The curve text is read by a whitelisting walk over its syntax tree
(`parse_polynomial`), is never evaluated, and gives exact rational terms;
`PlaneCurve.from_expr` clears their denominators once, by their lcm, and
from there to the evolute every polynomial is an integer term map,
exponents -> nonzero coefficient, and every univariate one a descending
list of ints.  Their gcds (the heuristic gcd), exact quotients, products
and squarefree parts (Yun) are plain-int code in this module.  sympy is
imported only by the three fallbacks (the curve's `factor_list`, D's
`sqf_list` and the evolute's `factor_list`), through `_sympy`; they build
its `Poly`, and `_integer_terms` converts their results back.

This module shares no code with the intersection-theoretic engine; the two
paths cross-check each other through the closed-form target
6(d + g - 1) - 2 k0.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import reduce
from math import comb, gcd, inf, isqrt, lcm


def _sympy():
    """sympy, imported on first use: only the three fallbacks need it.  It
    is also this module's attribute `sp` (PEP 562, `__getattr__` below),
    which instrumentation may replace, so the fallbacks reach sympy here."""
    global sp
    try:
        return sp
    except NameError:
        import sympy as sp

        return sp


def __getattr__(name: str):
    if name == "sp":
        return _sympy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# exponents -> nonzero integer coefficient: F in (x, y), H in (x, y, X, Y),
# R in (x, X, Y), D and the evolute in (X, Y)
_IntTerms = dict[tuple[int, ...], int]
# the parsed curve in (x, y): exponents -> nonzero exact coefficient, an
# int unless a `/` or a decimal literal made it a `Fraction`
_Terms = dict[tuple[int, int], int | Fraction]


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
            sp = _sympy()
            _, factors = sp.factor_list(sp.Poly.from_dict(F, *sp.symbols("x y")))
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
        f = _strip(form)
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
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_polynomial(text: str) -> _Terms:
    """The polynomial in x and y written in `text`, as exact terms (exponents
    (i, j) of x**i y**j -> nonzero coefficient: an int, or a `Fraction`
    where a `/` or a decimal literal is involved), built without evaluating
    any code: integer and decimal literals (read exactly), x, y, + - * /,
    unary signs, parentheses, division by a nonzero constant, and ** (or ^)
    with an integer literal exponent in 0..MAX_DEGREE."""
    text = text.strip().replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"--poly does not parse: {exc.msg}") from None
    except RecursionError:
        raise ValueError(TOO_DEEP) from None
    # one walk over the grammar; any other node is refused at once, so
    # foreign syntax is named before a foreign name
    foreign = set()
    stack = [tree.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            stack += (node.left, node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            stack.append(node.operand)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in ("x", "y"):
                foreign.add(node.id)
        elif not isinstance(node, ast.Constant):
            raise ValueError(NOT_POLYNOMIAL)
    if foreign:
        raise ValueError(f"curve may involve only x and y, got {', '.join(sorted(foreign))}")
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
        return {(1, 0) if node.id == "x" else (0, 1): 1}
    if isinstance(node, ast.Constant):
        if type(node.value) is int:
            if node.value.bit_length() > MAX_POWER_BITS:
                raise ValueError(TOO_LARGE)
            value = node.value
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
    power = {(0, 0): 1}
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


def _bits(c: int | Fraction) -> int:
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
        return {m: Fraction(c) / right[0, 0] for m, c in left.items()}
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
    the integer certificates.

    This prices the lower-set grid of the Sylvester bound, kept on purpose
    although `_discriminant` samples only up to the tighter
    `_discriminant_degree`, and a small conic's D in 11 packed resultants
    (against the 120 grid samples predicted here): it needs no R, so the
    guard runs before any elimination, and admission, its message and the
    exit codes stay as they were."""
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


def _horner(f: list[int], t: int) -> int:
    """f(t) of a descending integer coefficient list ([] is 0)."""
    value = 0
    for c in f:
        value = value * t + c
    return value


def _certified_irreducible(f: _IntTerms) -> bool:
    """Whether F is certified irreducible over Q, hence squarefree: its
    content in x over Z[y] is constant (`_content`) and F(x, y0)
    keeps degree deg_x F and is certified irreducible in Z[x] for some y0
    in 0, +-1, +-2 (`_irreducible`).  A factorization F = G H would survive
    at y0: a factor free of x would divide the content, and two factors of
    positive degree in x keep it where lc_x(F) does not vanish.  False
    leaves it undecided."""
    n = max(i for i, _ in f)
    in_y = _columns(f, 1)
    if not n or len(_content(in_y.values())) > 1:
        return False
    for y0 in (0, 1, -1, 2, -2):
        f0 = [_horner(in_y.get((i,), []), y0) for i in range(n, -1, -1)]
        if f0[0] and _irreducible(f0):
            return True
    return False


# a specialization of degree n whose Galois group is the symmetric group
# stays irreducible modulo about 1/n of the primes (Chebotarev), so a
# generic one is certified by one of these
_CERTIFYING_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _irreducible(f: list[int]) -> bool:
    """Whether f, a descending integer list of degree >= 1 with a nonzero
    head, is certified irreducible over Q (its content aside): always at
    degree 1, a quadratic exactly when its discriminant is not a square,
    any other when it is irreducible modulo one of `_CERTIFYING_PRIMES`
    that does not divide its head.  A factorization over Z would survive
    modulo such a p with both degrees, since p divides neither head.  False
    leaves a cubic or higher undecided."""
    if len(f) == 2:
        return True
    if len(f) == 3:
        a, b, c = f
        disc = b * b - 4 * a * c
        return disc < 0 or isqrt(disc) ** 2 != disc
    return any(_irreducible_mod(f, p) for p in _CERTIFYING_PRIMES if f[0] % p)


def _irreducible_mod(f: list[int], p: int) -> bool:
    """Whether f, of degree n >= 2 with a head prime to p, is irreducible
    over F_p: gcd(f, x**(p**k) - x) = 1 for k = 1 .. n // 2, since a
    reducible f has an irreducible factor of some degree k <= n / 2, and
    those divide x**(p**k) - x (Ben-Or's form of the distinct-degree test,
    FOCS 1981).  The powers are residues mod f, descending lists of n
    integers in 0 .. p - 1."""
    n = len(f) - 1
    inverse = pow(f[0], -1, p)
    monic = [c * inverse % p for c in f]

    def times(a: list[int], b: list[int]) -> list[int]:  # a b mod (f, p)
        product = [0] * (2 * n - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b, i):
                    product[j] += u * v
        for k in range(n - 1):
            c = product[k] % p
            if c:
                for j, v in enumerate(monic[1:], k + 1):
                    product[j] -= c * v
        return [c % p for c in product[n - 1 :]]

    x = [0] * (n - 2) + [1, 0]
    power = x
    for _ in range(n // 2):
        base, power = power, [0] * (n - 1) + [1]
        for bit in bin(p)[2:]:  # power = base**p, by squaring
            power = times(power, power)
            if bit == "1":
                power = times(power, base)
        difference = [(a - b) % p for a, b in zip(power, x)]
        if len(_gcd_mod(monic, difference, p)) > 1:
            return False
    return True


def _gcd_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """A gcd over F_p of f, with a nonzero head, and g, by Euclid's
    algorithm."""
    g = _strip(g)
    while g:
        inverse = pow(g[0], -1, p)
        while len(f) >= len(g):
            c = f[0] * inverse % p
            f = _strip([(a - c * b) % p for a, b in zip(f[1:], g[1:] + [0] * (len(f) - len(g)))])
        f, g = g, f
    return f


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


def _integer_terms(poly) -> _IntTerms:
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


def _grid(leads: list[list[int]], count: int) -> list[int]:
    """The first `count` of the integers 0, 1, -1, 2, -2, ... at which none
    of the univariate polynomials `leads` (descending lists) vanishes."""
    points: list[int] = []
    v = 0
    while len(points) < count:
        for cand in ((v,) if v == 0 else (v, -v)):
            if len(points) < count and all(_horner(lead, cand) for lead in leads):
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
    sampled at d**2 + 1 x nodes that avoid the zeros of lc_y(F), one
    `dup_resultant` per node with X = t and Y = t**(p + 1) packed into one
    integer (`_packed_resultant`): the exponent a + (p + 1) b of t is X**a
    Y**b's alone for a + b <= p, and a digit beyond that raises
    `ArithmeticError`.  Where the head of H in y vanishes at a node, H0
    falls delta degrees short of n and the sample is lc(F0)**delta
    Res(F0, H0), the resultant at the formal degree n."""
    d = _degree(f)
    p = max(j for _, j in f)
    n = max(j for _, j, _, _ in h)
    f_in_x, h_in_x = _columns(f, 0), _columns(h, 0)
    xs = _grid([f_in_x[(p,)]], d * d + 1)
    at_x: list[dict[tuple[int, int], int]] = []
    for x0 in xs:
        f0 = [[_horner(f_in_x.get((j,), []), x0)] for j in range(p, -1, -1)]
        # H at x0, descending in y: coefficients c + c' X + c'' Y, descending in t
        h0 = [[0] * (p + 2) for _ in range(n + 1)]
        for (j, a, b), col in h_in_x.items():
            h0[n - j][p + 1 - a - (p + 1) * b] = _horner(col, x0)
        delta = next((k for k, c in enumerate(h0) if any(c)), None)
        if delta is None:  # Res(F0, 0) = 0, or lc(F0)**n when F0 is a constant
            at_x.append({} if p else {(0, 0): f0[0][0] ** n})
            continue
        scale = f0[0][0] ** delta
        digits = _packed_resultant(f0, h0[delta:], _packing_bits(f0, h0[delta:]))
        sample = {}
        for e, c in enumerate(reversed(digits)):
            if c:
                a, b = e % (p + 1), e // (p + 1)
                if a + b > p:
                    raise ArithmeticError("packed resultant has a term beyond its degree")
                sample[a, b] = scale * c
        at_x.append(sample)
    R: _IntTerms = {}
    for a, b in sorted(set().union(*at_x)):
        for i, c in enumerate(_interpolate(xs, [s.get((a, b), 0) for s in at_x])):
            if c:
                R[(i, a, b)] = c
    if not R:
        raise InconclusiveEliminationError("resultant in y vanished identically")
    return R


def _packing_bits(f: list[list[int]], g: list[list[int]]) -> int:
    """k such that every coefficient of Res(f, g) in t is below 2**(k - 1)
    in size, for f and g in one variable with coefficients in Z[t]
    (descending lists of descending lists).  On |t| = 1 an entry of their
    Sylvester matrix is at most the 1-norm of its coefficients, so Hadamard's
    bound with those norms bounds the determinant there, and with it each of
    its coefficients (Cauchy's estimate)."""
    f_rows, g_rows = (sum(sum(map(abs, c)) ** 2 for c in poly) for poly in (f, g))
    square = f_rows ** (len(g) - 1) * g_rows ** (len(f) - 1)
    return (square.bit_length() + 1) // 2 + 1


def _packed_resultant(f: list[list[int]], g: list[list[int]], k: int) -> list[int]:
    """Res(f, g) of `_packing_bits`'s f and g, with nonzero heads, as a
    descending list in t, from one `dup_resultant` at t = 2**k (Kronecker
    substitution), k = `_packing_bits(f, g)`: its coefficients are the
    balanced base-t digits of the integer resultant, each in (-t/2, t/2],
    read off by masks and shifts."""

    value = dup_resultant([_pack(c, k) for c in f], [_pack(c, k) for c in g])
    return _unpack(value, k)


def _pack(f: list[int], k: int) -> int:
    """f(2**k) of a descending integer coefficient list: Kronecker
    substitution, by shifts."""
    return reduce(lambda acc, c: (acc << k) + c, f, 0)


def _unpack(value: int, k: int) -> list[int]:
    """The balanced base-2**k digits of `value`, each in (-2**(k-1),
    2**(k-1)], descending ([] for 0): the polynomial f with
    `_pack(f, k) == value` whose coefficients are below 2**(k - 1) in size,
    read off by masks and shifts."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    digits = []
    while value:
        digit = value & mask
        if digit > half:
            digit -= mask + 1
        digits.append(digit)
        value = (value - digit) >> k
    return digits[::-1]


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
        content = _gcd(content, col)[0]
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
            quotient = _exquo(col, content)[::-1]
            R.update({(i, a, b): c for i, c in enumerate(quotient) if c})
    if m == 0:
        raise DegenerateCurveError(ZERO_CURVATURE)
    return R


def _discriminant_degree(R: _IntTerms) -> float:
    """A bound T on the total degree of disc_x(R) in (X, Y), read off the
    Newton polygon of R in x; -inf when x**2 divides R, and D = 0.

    With m = deg_x R and w_k the total degree of the coefficient r_k of
    x**k, disc_x(R) = lc**(m - 2) prod R'(a) over the roots a of R, up to
    sign.  Along a generic line to infinity, each segment (k1, k2) of the
    upper hull of the points (k, w_k) holds k2 - k1 roots growing like
    s**rho, rho = (w_k1 - w_k2) / (k2 - k1) (Newton-Puiseux; Walker,
    Algebraic Curves, 1950, ch. IV), where R' grows at most like
    s**max_k(w_(k + 1) + k rho); a root 0 gives R'(0) = r_1.  T is the
    max-plus determinant of the Sylvester matrix of R and R', less w_m:
    10 for a conic and 42 for the generic cubic, where the Sylvester bound
    (2m - 1) deg_XY(R) - w_m is 14 and 51."""
    m = max(i for i, _, _ in R)
    w = [-inf] * (m + 1)
    for i, a, b in R:
        w[i] = max(w[i], a + b)
    support = [k for k in range(m + 1) if w[k] > -inf]
    if support[0] > 1:
        return -inf
    hull: list[int] = []
    for k in support:  # drop the last vertex while it is on or below the chord to k
        while len(hull) > 1 and (w[hull[-1]] - w[hull[-2]]) * (k - hull[-2]) <= (
            w[k] - w[hull[-2]]
        ) * (hull[-1] - hull[-2]):
            hull.pop()
        hull.append(k)
    T = (m - 2) * w[m] + (w[1] if support[0] else 0)
    for k1, k2 in zip(hull, hull[1:]):
        T += max((k2 - k1) * w[k + 1] + k * (w[k1] - w[k2]) for k in range(m) if w[k + 1] > -inf)
    return T


# the largest packed sample, in bits, of `_discriminant`'s one resultant per
# X node; above it CPython's quadratic long division makes those resultants
# slower than the lower-set grid's many small ones: the crossover on conics
# is near 2 800 bits, and the generic cubic's 15 400-bit samples take D 175
# ms against 46 ms on the grid
_PACKED_BITS = 2048


def _discriminant(R: _IntTerms) -> _IntTerms:
    """disc_x(R) = Res_x(R, dR/dx) / lc_x(R) in (X, Y), up to sign.

    Its total degree is at most T = `_discriminant_degree(R)`, so its
    coefficient of Y**b has degree at most T - b in X, and it is sampled at
    T + 1 X nodes that avoid the zeros of lc_x(R).  At each node u0, one
    `dup_resultant(R0, R0')` with Y = t packed into one integer
    (`_packed_resultant`) gives Res_x(R, dR/dx)(u0, Y), divided exactly by
    lc_x(R)(u0, Y) in Z[Y]; each power Y**b is interpolated in X over the
    first T + 1 - b nodes.  When a packed sample would exceed `_PACKED_BITS`,
    D is sampled instead on the lower set of total degree T of a grid, one
    `dup_resultant(R0, R0')` per node, each divided exactly by lc(R0)."""
    T = _discriminant_degree(R)
    if T < 0:  # x**2 divides R, and D = 0
        raise DegenerateCurveError(ZERO_CURVATURE)
    m = max(i for i, _, _ in R)
    in_x = _columns(R, 1)
    e = max(b for _, b in in_x)  # deg_Y R

    def at(u0: int, i: int, top: int) -> list[int]:  # x**i's coefficient, descending in Y
        return [_horner(in_x.get((i, b), []), u0) for b in range(top, -1, -1)]

    # at the X nodes, lc_x(R) stays a nonzero polynomial in Y, of degree top
    top = max(b for i, b in in_x if i == m)
    us = _grid([in_x[m, top]], T + 1)
    in_y = {u0: [at(u0, i, e) for i in range(m, -1, -1)] for u0 in us}  # descending in x
    pairs = [  # R0 and R0', with coefficients in Z[Y]
        (r0, [[(m - k) * c for c in coeffs] for k, coeffs in enumerate(r0[:-1])])
        for r0 in in_y.values()
    ]
    bits = [_packing_bits(r0, dr0) for r0, dr0 in pairs]
    # Res_x(R0, R0') has degree at most top + T in Y
    if max(bits) * (top + T + 1) <= _PACKED_BITS:
        D: _IntTerms = {}
        at_u = []
        for (r0, dr0), k in zip(pairs, bits):
            sample = _exquo(_packed_resultant(r0, dr0, k), _strip(r0[0]))
            if sample is None:
                raise ArithmeticError("discriminant sample not divisible by lc(R0)")
            if len(sample) > T + 1:
                raise ArithmeticError("discriminant sample beyond its degree bound")
            at_u.append(sample[::-1])  # ascending in Y
        for b in range(T + 1):
            column = [s[b] if b < len(s) else 0 for s in at_u[: T + 1 - b]]
            D.update({(i, b): c for i, c in enumerate(_interpolate(us, column)) if c})
    else:
        vs = _grid([at(u0, m, top) for u0 in us], T + 1)

        def row(u0: int, vs: list[int]) -> list[int]:
            samples = []
            for v0 in vs:
                r0 = [_horner(coeffs, v0) for coeffs in in_y[u0]]
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
        sp = _sympy()
        gens = sp.symbols("X Y")
        _, parts = sp.sqf_list(sp.Poly.from_dict(D, *gens, domain=sp.ZZ))
        P = _integer_terms(sp.prod([f for f, mult in parts if mult == 1], start=sp.Poly(1, *gens)))
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
    D0 = D(X, v0) into its simple roots and a square, by one gcd unless a
    root has multiplicity above 2; a node with fewer simple roots than
    another lies on a collision of E and C and is dropped, and one with a
    root of odd multiplicity above 1 is skipped.  Only the image of C is
    interpolated: scaled to the head lc_X(D)(v0), it is that of
    lc_X(D) C / lc_X(C), of degree at most deg_Y D in Y, and Newton
    interpolation (Brown, J. ACM 18, 1971) adds nodes until one adds
    nothing.  C is its primitive part in X, and one exact division of D by
    C**2 at Y = 2**k (Kronecker) gives mu E, read off the balanced digits
    of the quotient: E is its primitive part in X and mu its content.

    k comes from Mignotte's factor-coefficient bound: a factor Q of D in
    Z[X, Y] has a 1-norm, and so every coefficient, of at most
    2**(deg_X Q + deg_Y Q) M(Q), where the Mahler measure M is
    multiplicative, at least 1 on nonzero integer polynomials and at most
    the 2-norm.  Partial degrees add, so mu E, and the product of the
    1-norms of mu, E, C and C, are at most 2**(deg_X D + deg_Y D) |D|_2,
    which k keeps at most 2**(k - 2), as it does every coefficient of D.
    Where that product is below 2**(k - 1), it bounds every coefficient of
    mu E C**2, and D = C**2 mu E at Y = 2**k is the exact identity
    D = mu E C**2.

    Given it, and deg_X E + 1 = `simple`, the deg_X E simple roots of D0 at
    a kept node are roots of E(X, v0) not shared with C(X, v0), so E(X, v0)
    is squarefree and coprime to C(X, v0); a repeated or common factor
    would stay one at v0, since lc_X(D)(v0) != 0 and E has no factor free of
    X.  A failed division or certificate means C is not yet right, as when
    the nodes so far are symmetric about a centre of symmetry of its image:
    the next node goes on, up to deg_Y D + 1 kept nodes, which fix C."""
    in_y = _columns(D, 1)
    rows = [in_y.get((a,), []) for a in range(max(in_y)[0], -1, -1)]  # descending in X, then Y
    top = max(len(row) for row in rows) - 1  # deg_Y D
    norm_bits = (sum(c * c for c in D.values()).bit_length() + 1) // 2  # 2**norm_bits >= |D|_2
    k = len(rows) - 1 + top + norm_bits + 2  # 2**(k - 2) >= 2**(deg_X D + deg_Y D) |D|_2
    packed = [_pack(row, k) for row in rows]

    def divided_out(C: list[list[int]]) -> _IntTerms | None:
        """E from D / C**2, or None where a certificate fails."""
        image = [_pack(row, k) for row in C]
        quotient = _exquo(packed, _mul(image, image))
        if quotient is None:
            return None
        mu, E = _primitive([_unpack(c, k) for c in quotient])
        norm_e, norm_c = (sum(abs(c) for row in P for c in row) for P in (E, C))
        if (
            len(E) != simple
            or (sum(map(abs, mu)) * norm_e * norm_c**2).bit_length() >= k
            or [_pack(mu, k) * _pack(row, k) for row in E] != quotient
            or any(mult == 1 for _, mult in _sqf_list(mu))
        ):
            return None
        return {
            (len(E) - 1 - a, b): c for a, row in enumerate(E) for b, c in enumerate(row[::-1]) if c
        }

    nodes: list[int] = []
    # per coefficient of the image of C: the last diagonal of its divided
    # difference table and its Newton coefficients
    tables: list[tuple[list[int], list[int]]] = []
    simple = -1
    grid = _grid([rows[0]], 2 * top + 2)  # out of nodes is inconclusive, not a refusal
    try:
        for v0 in grid:
            d0 = [_horner(row, v0) for row in rows]
            parts = _square_parts(d0)
            if parts is None or len(parts[0]) < simple:
                continue
            e0, c0 = parts
            scaled = [divmod(d0[0] * c, f[0]) for f in (e0, c0) for c in f]
            if any(r for _, r in scaled):  # not the images of E and C
                continue
            if len(e0) > simple:  # every earlier node lay on a collision
                simple, nodes, tables = len(e0), [], [([], []) for _ in c0]
            nodes.append(v0)
            settled = True
            for (diagonal, newton), (value, _) in zip(tables, scaled[simple:]):
                row = [value]
                for j, previous in enumerate(diagonal, 1):
                    row.append(_exact(row[-1] - previous, v0 - nodes[-1 - j]))
                diagonal[:] = row
                newton.append(row[-1])
                settled = settled and not row[-1]
            if settled or len(nodes) > top:
                E = divided_out(_primitive([_monomials(nodes, dd)[::-1] for _, dd in tables])[1])
                if E is not None or len(nodes) > top:
                    return E
    except ArithmeticError:  # the kept images are not those of integer polynomials
        pass
    return None


def _primitive(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """The content in Z[Y], the integer content included, of a polynomial
    in (X, Y), as rows descending in X of coefficient lists descending in
    Y, and the polynomial divided by it, with leading zeros stripped ([]
    for a zero row)."""
    rows = [_strip(row) for row in rows]
    content = _content(row for row in rows if row)
    if len(content) == 1:  # known only up to an integer factor
        g = reduce(gcd, (c for row in rows for c in row))
        return [g], [[c // g for c in row] for row in rows]
    return content, [_exquo(row, content) for row in rows]


def _square_parts(f: list[int]) -> tuple[list[int], list[int]] | None:
    """(e, c) with f = lc * e * c**2 and e the product of the simple roots
    of f, up to constants; None when a root has odd multiplicity above 1.

    When no root has multiplicity above 2, one gcd splits f: c = gcd(f, f')
    is the product of the double roots, and its cofactor pp(f) / c, which
    the gcd computes too, divided by c is e exactly.  A remainder means a
    root of higher multiplicity, and Yun's squarefree decomposition goes on
    from that gcd's cofactors (`_yun`); it stops at the first part of odd
    multiplicity above 1, whose node is skipped."""
    content = gcd(*f)
    f = [a // content for a in f]
    c, cofactor, derived = _gcd(f, _derivative(f))
    e = _exquo(cofactor, c)
    if e is not None:
        return e, c
    e, c = [1], [1]
    for part, mult in _yun(cofactor, derived):
        if mult == 1:
            e = part
        elif mult % 2:
            return None
        else:
            for _ in range(mult // 2):
                c = _mul(c, part)
    return e, c


# --------------------------------------------------------------------------
# univariate integer polynomials: descending lists of ints, [] for zero
# --------------------------------------------------------------------------

# evaluation points the heuristic gcd tries before the primitive PRS
_HEURISTIC_POINTS = 6


def _strip(f: list[int]) -> list[int]:
    """f without its leading zeros."""
    return f[next((k for k, c in enumerate(f) if c), len(f)) :]


def _mul(f: list[int], g: list[int]) -> list[int]:
    """f g, by the schoolbook product."""
    if not (f and g):
        return []
    product = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                product[j] += a * b
    return product


def _exquo(f: list[int], g: list[int]) -> list[int] | None:
    """f / g for g with a nonzero head, or None when g does not divide f in
    Z[x]: a head that does not divide, or a remainder."""
    r = list(f)
    lead, tail = g[0], g[1:]
    quotient = []
    for k in range(len(f) - len(g) + 1):
        q, rem = divmod(r[k], lead)
        if rem:
            return None
        if q:
            for j, b in enumerate(tail, k + 1):
                r[j] -= q * b
        quotient.append(q)
    return None if any(r[len(quotient) :]) else quotient


def _gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f / h, g / h) for h = gcd(f, g) in Z[x], normalised as sympy's
    `dup_inner_gcd` normalises it: the gcd of the two contents times a
    primitive polynomial, with a positive head when f or g vanishes.

    The heuristic gcd (Char, Geddes and Gonnet, J. Symb. Comput. 7, 1989)
    evaluates f and g at a large integer t, reads a candidate h from the
    balanced base-t digits of the integer gcd (or a cofactor from those of
    a cofactor's value), and keeps it only when it divides both; t grows
    after a failure, and after `_HEURISTIC_POINTS` of them a primitive PRS
    decides."""
    if not (f and g):
        if not (f or g):
            return [], [], []
        h = f or g
        unit = 1 if h[0] > 0 else -1
        h = [unit * c for c in h]
        return (h, [unit], []) if f else (h, [], [unit])
    common = gcd(*f, *g)
    if common > 1:
        f, g = [c // common for c in f], [c // common for c in g]
    if len(f) == 1 or len(g) == 1:
        return [common], f, g
    f_norm, g_norm = max(map(abs, f)), max(map(abs, g))
    bound = 2 * min(f_norm, g_norm) + 29
    t = max(min(bound, 99 * isqrt(bound)), 2 * min(f_norm // abs(f[0]), g_norm // abs(g[0])) + 4)
    for _ in range(_HEURISTIC_POINTS):
        ft, gt = _horner(f, t), _horner(g, t)
        if ft and gt:
            ht = gcd(ft, gt)

            def candidates() -> Iterator[list[int] | None]:
                h = _balanced_digits(ht, t)
                yield [c // gcd(*h) for c in h]
                yield _exquo(f, _balanced_digits(ft // ht, t))
                yield _exquo(g, _balanced_digits(gt // ht, t))

            for h in candidates():
                if h is not None:
                    cff = _exquo(f, h)
                    cfg = None if cff is None else _exquo(g, h)
                    if cfg is not None:
                        return [common * c for c in h], cff, cfg
        t = 73794 * t * isqrt(isqrt(t)) // 27011
    return _prs_gcd(f, g, common)


def _balanced_digits(value: int, t: int) -> list[int]:
    """The digits of `value` in base t, each in (-t/2, t/2], descending: the
    coefficients of the polynomial with small coefficients that takes
    `value` at t."""
    digits = []
    while value:
        digit = value % t
        if digit > t // 2:
            digit -= t
        digits.append(digit)
        value = (value - digit) // t
    return digits[::-1]


def _prs_gcd(
    f: list[int], g: list[int], common: int
) -> tuple[list[int], list[int], list[int]]:
    """`_gcd` of f and g, of degree >= 1 with no common integer content,
    times `common`, by the primitive PRS: each pseudo-remainder is divided
    by its content, so the coefficients do not grow exponentially."""
    a, b = ([c // gcd(*h) for c in h] for h in sorted((f, g), key=len, reverse=True))
    while len(b) > 1:
        r = a
        while len(r) >= len(b):  # lc(b) r - lc(r) x**k b drops the head
            r = _strip([b[0] * u - r[0] * v for u, v in zip(r[1:], b[1:] + [0] * (len(r) - len(b)))])
        if not r:
            break
        a, b = b, [c // gcd(*r) for c in r]
    unit = gcd(*b) if b[0] > 0 else -gcd(*b)
    h = [c // unit for c in b]
    return [common * c for c in h], _exquo(f, h), _exquo(g, h)


def _sqf_list(f: list[int]) -> Iterator[tuple[list[int], int]]:
    """Yun's squarefree decomposition (Yun, SYMSAC 1976) of f's primitive
    part with a positive head, as sympy's `dup_sqf_list` lists it: the
    pairs (part, multiplicity) with a part of positive degree, by rising
    multiplicity.  It is lazy, so a caller can stop at the part it needs."""
    if len(f) > 1:
        scale = gcd(*f) if f[0] > 0 else -gcd(*f)
        f = [c // scale for c in f]
        _, p, q = _gcd(f, _derivative(f))
        yield from _yun(p, q)


def _yun(p: list[int], q: list[int]) -> Iterator[tuple[list[int], int]]:
    """Yun's decomposition of f from p = f / gcd(f, f') and q = f' / gcd(f,
    f'): gcd(p, q - p') is the part of multiplicity 1, and the cofactors
    repeat the step for the next multiplicity."""
    multiplicity = 1
    while True:
        d = _derivative(p)
        n = max(len(q), len(d))
        h = _strip([a - b for a, b in zip([0] * (n - len(q)) + q, [0] * (n - len(d)) + d)])
        if not h:
            yield p, multiplicity
            return
        g, p, q = _gcd(p, h)
        if len(g) > 1:
            yield g, multiplicity
        multiplicity += 1


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
    sp = _sympy()
    _, factors = sp.factor_list(sp.Poly.from_dict(evolute, *sp.symbols("X Y"), domain=sp.ZZ))
    kept: list[sp.Poly] = []
    isotropic: list[sp.Poly] = []
    for fac, mult in factors:
        if fac.degree(0) == 0 or fac.degree(1) == 0:
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
