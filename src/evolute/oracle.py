"""Independent evolute oracle for plane curves, as the ED discriminant.

The evolute of a plane curve F(x, y) = 0 is the envelope of its normal
lines: the centres (X, Y) whose squared-distance function to the curve has a
degenerate critical point, i.e. its ED discriminant (Draisma, Horobet,
Ottaviani, Sturmfels and Thomas, Found. Comput. Math. 16, 2016, section 7).
The point (X, Y) lies on the normal at (x, y) when

    H = Fy (X - x) - Fx (Y - y) = 0,

so R(x; X, Y) = Res_y(F, H) vanishes at the x-coordinates of the critical
points of the distance from (X, Y).  Its content in x (the singular
points, a root at every centre) is removed, and its multiplicities count
the nodes and the ordinary cusps.  D = disc_x(R) vanishes where two
critical points meet (the evolute) and where two distinct ones share their
x (the x-coincidence locus).  The second kind comes in pairs, so D is the
evolute times the square of that locus, and the evolute is the
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
PRS on plain ints (`dup_resultant`).  The variables (X, Y) are packed into
one integer by Kronecker substitution at t = 2**k, one k per stage, which
Hadamard's bound makes large enough for every coefficient of the result:
X = t and Y = t**(p + 1) for R, whose total degree in (X, Y) is at most
p = deg_y F, one resultant per x node; Y = t for D, one resultant per X
node, while the packed samples stay within `_PACKED_BITS`.  The packed
samples are Newton-interpolated as they are, and each interpolated
coefficient is read back off its base-t digits.  A larger D is sampled on
the lower set of total degree T of a tensor grid, which fixes a
polynomial of total degree T (Dyn and Floater, J. Approx. Theory 177,
2014).  For D, T is read off the Newton polygon of R in x, from the
degrees of its coefficients and the growth of its roots.  The work is
predicted from the degree and the coefficient size before the curve is
checked, and a curve above `MAX_WORK` is refused.
`PlaneCurve.from_expr` clears the denominators of the parsed terms
(`polyparse`) once, by their lcm, and from there to the evolute every
polynomial is an integer term map, exponents -> nonzero coefficient, and
every univariate one a list of ints (`intpoly`).  sympy is imported only
by the three fallbacks (the curve's `factor_list`, D's `sqf_list` and the
evolute's `factor_list`), through `_sympy`; they build its `Poly`, and
`_integer_terms` converts their results back.

This module shares no algebra with the intersection-theoretic engine, only
the record base `ring.Record`, so the two paths cross-check each other
through the closed-form target 6(d + g - 1) - 2 k0, with the genus g and
the cusp count k0 read off the curve.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce
from itertools import count, islice
from math import comb, gcd, inf, lcm

from .intpoly import (
    content,
    derivative,
    divided_differences,
    dup_resultant,
    exquo,
    horner,
    interpolate,
    irreducible,
    monomials,
    mul,
    newton_step,
    pack,
    sqf_list,
    square_parts,
    strip,
    unpack,
)
from .polyparse import degree, parse_polynomial
from .ring import Record


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


class DegenerateCurveError(ValueError):
    """Input whose curvature system degenerates identically (lines, etc.)."""


class InconclusiveEliminationError(ArithmeticError):
    """Elimination collapsed (zero resultant or empty hypersurface part)."""


class PlaneCurve(Record):
    """An implicit plane curve F(x, y) = 0 and its degree, as integer terms
    (exponents (i, j) of x**i y**j -> nonzero coefficient, denominators cleared)."""

    __slots__ = _fields = ("terms", "degree")

    def __hash__(self) -> int:
        # the terms are a dict: curves hash by their degree
        return hash(self.degree)

    @classmethod
    def from_expr(cls, text: str) -> "PlaneCurve":
        terms = parse_polynomial(text)
        scale = lcm(*(c.denominator for c in terms.values()))
        F = {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}
        d = degree(F)
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
        return cls(F, d)

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
        f = strip(form)
        if len(form) - len(f) > 1:
            return False
        return len(f) == 1 or dup_resultant(f, derivative(f)) != 0

    def genericity_flags(self) -> list[str]:
        flags = []
        if self.through_circular_points():
            flags.append(_suspended("curve passes through the circular points at infinity"))
        if not self.meets_infinity_transversally():
            flags.append(_suspended("curve is tangent to the line at infinity"))
        return flags


def _suspended(reason: str) -> str:
    """The flag of a genericity violation, which suspends the comparison."""
    return f"genericity violated: {reason}; degree comparison suspended"


ZERO_CURVATURE = "zero curvature along the curve (line components)"
STRIPPED_ISOTROPIC = "stripped isotropic-line factor"

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
    d = degree(F)
    B = max(abs(c).bit_length() for c in F.values())
    T = (2 * d * d - 1) * d
    samples, bits = (T + 1) * (T + 2) // 2, 2 * T * B
    return samples * bits * bits, samples, bits


def _infinity_form(P: _IntTerms) -> list[int]:
    """f(t) = LF(1, t) for the leading form LF of P in its two generators
    (u, v), as a descending list of d + 1 integers: entry k is the
    coefficient of u**k v**(d - k), so k leading zeros mean that u**k
    divides LF."""
    d = degree(P)
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


def _certified_irreducible(f: _IntTerms) -> bool:
    """Whether F is certified irreducible over Q, hence squarefree: its
    content in x over Z[y] is constant (`content`) and F(x, y0)
    keeps degree deg_x F and is certified irreducible in Z[x] for some y0
    in 0, +-1, +-2 (`irreducible`).  A factorization F = G H would survive
    at y0: a factor free of x would divide the content, and two factors of
    positive degree in x keep it where lc_x(F) does not vanish.  False
    leaves it undecided."""
    n = max(i for i, _ in f)
    in_y = _columns(f, 1)
    if not n or len(content(in_y.values())) > 1:
        return False
    for y0 in (0, 1, -1, 2, -2):
        f0 = [horner(in_y.get((i,), []), y0) for i in range(n, -1, -1)]
        if f0[0] and irreducible(f0):
            return True
    return False


class EvoluteResult(Record):
    """Squarefree, content-free defining polynomial of the evolute, as
    integer terms in (X, Y), the closed-form target, and the elimination
    log; unhashable, since the terms are a dict."""

    __slots__ = _fields = ("terms", "expected_degree", "match", "flags", "log")

    @property
    def degree(self) -> int:
        return degree(self.terms)

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


def _integer_terms(poly) -> _IntTerms:
    """The integer terms of a sympy `Poly` with its denominators cleared
    (the rational scale is irrelevant downstream, where content is
    removed): the way back from the sympy fallbacks."""
    return {m: int(c) for m, c in poly.clear_denoms(convert=True)[1].rep.to_dict().items()}


def _grid(leads: list[list[int]]) -> Iterator[int]:
    """The integers 0, 1, -1, 2, -2, ... at which none of the univariate
    polynomials `leads` (descending lists) vanishes, one at a time.  A
    nonzero lead vanishes at finitely many of them, so the nodes run out
    only where a lead is zero, which raises at the first node."""
    if not all(any(lead) for lead in leads):
        raise InconclusiveEliminationError("could not find stable sample points")
    for v in count():
        for cand in ((v,) if v == 0 else (v, -v)):
            if all(horner(lead, cand) for lead in leads):
                yield cand


def _lower_set(rows: list[list[int]], us: list[int], vs: list[int]) -> dict[tuple[int, int], int]:
    """The integer polynomial P(u, v) of total degree < n = len(us) =
    len(vs), as exponents -> nonzero coefficient, from its values on the
    lower set {(us[a], vs[b]): a + b < n} of the tensor grid, which fix it
    (Dyn and Floater, J. Approx. Theory 177, 2014); `rows[a]` holds the
    samples P(us[a], v0) at the nodes v0 in vs[: n - a].  The divided
    differences in u down each column, then in v along each row, are the
    Newton coefficients, and Horner's rule turns them into monomials."""
    n = len(us)
    columns = [divided_differences(us, [r[b] for r in rows[: n - b]]) for b in range(n)]
    in_v = [interpolate(vs, [col[a] for col in columns[: n - a]]) for a in range(n)]
    result: dict[tuple[int, int], int] = {}
    for k in range(n):
        dd = [coeffs[k] if k < len(coeffs) else 0 for coeffs in in_v[: n - k]]
        for i, c in enumerate(monomials(us, dd)):
            if c:
                result[(i, k)] = c
    return result


def _normal_resultant(f: _IntTerms, h: _IntTerms) -> _IntTerms:
    """R(x; X, Y) = Res_y(F, H) up to a nonzero rational scale, from exact
    samples (Collins, J. ACM 18, 1971).

    With p and n the degrees of F and H in y, R is homogeneous of degree p
    in the coefficients of H, which are linear in (X, Y), so p bounds its
    total degree in (X, Y); Bezout bounds its degree in x by d**2.  F and H
    are packed once, with X = t and Y = t**(p + 1) at t = 2**k for
    k = `_normal_width(F, H)`, and R(x; t, t**(p + 1)) is sampled, one
    `dup_resultant` per node, at d**2 + 1 x nodes that avoid the zeros of
    lc_y(F) and of H's head in y at t, where F and H keep their degrees p
    and n.  The samples are Newton-interpolated once, and the coefficient
    of x**i in R is read back off the balanced base-2**k digits of that of
    R(x; t, t**(p + 1)) (Kronecker substitution): the exponent
    a + (p + 1) b of t is X**a Y**b's alone for a + b <= p, and a digit
    beyond that raises `ArithmeticError`.

    Every coefficient of R is below 2**(k - 1) in size, so the digits are
    its coefficients.  So is every coefficient of H when p > 0, since
    Hadamard's bound is then at least the 1-norm of each entry of H's p
    rows of the Sylvester matrix, and H's head at t is a nonzero polynomial
    in x: the nodes exist.  When p = 0, H's head in y is Fx, free of
    (X, Y)."""
    d = degree(f)
    p = max(j for _, j in f)
    n = max(j for _, j, _, _ in h)
    k = _normal_width(f, h)
    # F and H at t, descending in y, then in x
    f_rows = [[0] * (d + 1) for _ in range(p + 1)]
    for (i, j), c in f.items():
        f_rows[p - j][d - i] = c
    h_rows = [[0] * (d + 1) for _ in range(n + 1)]
    for (i, j, a, b), c in h.items():
        h_rows[n - j][d - i] += c << k * (a + (p + 1) * b)
    xs = list(islice(_grid([f_rows[0], h_rows[0]]), d * d + 1))
    values = [
        dup_resultant([horner(row, x0) for row in f_rows], [horner(row, x0) for row in h_rows])
        for x0 in xs
    ]
    R: _IntTerms = {}
    for i, e, c in _unpacked(xs, values, k):
        a, b = e % (p + 1), e // (p + 1)
        if a + b > p:
            raise ArithmeticError("packed resultant has a term beyond its degree")
        R[(i, a, b)] = c
    if not R:
        raise InconclusiveEliminationError("resultant in y vanished identically")
    return R


def _hadamard_bits(f: list[int], g: list[int]) -> int:
    """k such that every coefficient of Res(f, g) is below 2**(k - 1) in
    size, for f and g in one variable whose coefficients are polynomials
    with the 1-norms `f` and `g` (descending lists, heads included).  On the
    torus, where every other variable has modulus 1, an entry of their
    Sylvester matrix is at most its 1-norm, so Hadamard's bound with those
    norms bounds the determinant there, and with it each of its
    coefficients (Cauchy's estimate)."""
    square = sum(c * c for c in f) ** (len(g) - 1) * sum(c * c for c in g) ** (len(f) - 1)
    return (square.bit_length() + 1) // 2 + 1


def _norms(terms: _IntTerms, var: int) -> list[int]:
    """The 1-norms of the coefficients of each power of the variable at
    position `var`, descending from its degree."""
    top = max(m[var] for m in terms)
    norms = [0] * (top + 1)
    for m, c in terms.items():
        norms[top - m[var]] += abs(c)
    return norms


def _normal_width(f: _IntTerms, h: _IntTerms) -> int:
    """`_hadamard_bits` of F and H in y, whose coefficients are polynomials
    in (x, X, Y): every coefficient of R = Res_y(F, H) is below 2**(k - 1)
    in size."""
    return _hadamard_bits(_norms(f, 1), _norms(h, 1))


def _unpacked(nodes: list[int], values: list[int], k: int) -> Iterator[tuple[int, int, int]]:
    """(i, e, c) for each nonzero balanced base-2**k digit c, at t**e, of
    the coefficient of x**i of the integer polynomial that takes `values`
    at the integer `nodes` (Newton interpolation, then `unpack`)."""
    for i, packed in enumerate(interpolate(nodes, values)):
        for e, c in enumerate(reversed(unpack(packed, k))):
            if c:
                yield i, e, c


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


def _strip_content(R: _IntTerms, log: list[str]) -> tuple[_IntTerms, dict[int, int]]:
    """R without its content in x, the gcd of its columns (the coefficients
    of each X**a Y**b), and the content's multiplicities -> the degree of
    the part of each (`sqf_list`); vertical lines leave no x.

    H = Fx Gy - Fy Gx, the Jacobian of F and the squared distance to the
    centre G = ((x - X)**2 + (y - Y)**2) / 2.  When the leading form LF is
    squarefree (else flagged), F or H has a constant head in y: F's when
    y**d is in LF, else H's, F's coefficient of x y**(d - 1).  So no root
    in y escapes to infinity, the order of R at x0 for a generic centre is
    the sum of I_p(F, H) over the points p of F on x = x0, and lc_y(F)
    adds no root: x*y - 1 and x*y**2 - x**3 - 1 have constant content.
    I_p = 0 at a smooth p, where H(p) != 0.  At a singular p, of Milnor
    number mu_p and multiplicity m_p, G - G(p) has a generic differential,
    so I_p(F, G - G(p)) = m_p and the Le-Greuel formula (Le, Funct. Anal.
    Appl. 8, 1974; Greuel, Math. Ann. 214, 1975) gives
    I_p(F, H) = mu_p + m_p - 1: 2 at a node, 3 at an ordinary cusp, at
    least 4 at any other point (A_k gives k + 1; m_p >= 3 gives
    mu_p >= (m_p - 1)**2) and on any line through two singular points.
    Singular points at infinity are flagged: a squarefree LF has d smooth."""
    columns = _columns(R, 0)
    common = content(columns.values())
    singular = {mult: len(part) - 1 for part, mult in sqf_list(common)}
    if len(common) > 1:
        log.append(
            f"removed content of degree {len(common) - 1} in x (singular points: "
            f"nodes {singular.get(2, 0)}, cusps {singular.get(3, 0)})"
        )
        R = {}
        for (a, b), col in columns.items():
            quotient = exquo(col, common)[::-1]
            R.update({(i, a, b): c for i, c in enumerate(quotient) if c})
    if max(i for i, _, _ in R) == 0:
        raise DegenerateCurveError(ZERO_CURVATURE)
    return R, singular


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
# slower than the lower-set grid's many small ones.  D's time packed against
# on the grid (best of 3): 0.5 on 8-bit conics (2 900-3 000 bits), about 1
# near 5 500 bits on conics and near 5 700 on the folium's shape (x**3 +
# y**3 - c x y: 0.73 at 4 743 bits, 1.4 at 7 192), 3.5 on the generic cubic
# (12 126 bits)
_PACKED_BITS = 5000


def _discriminant(R: _IntTerms) -> _IntTerms:
    """disc_x(R) = Res_x(R, dR/dx) / lc_x(R) in (X, Y), up to sign.

    Its total degree is at most T = `_discriminant_degree(R)`, so its
    coefficient of X**i has degree at most T - i in Y.  R is packed in Y
    once, at Y = 2**k for k = `_discriminant_width(R, T)`, and sampled at
    T + 1 X nodes that avoid the zeros of its packed lc_x(R): at each node
    u0, one `dup_resultant(R0, R0')` gives Res_x(R, dR/dx)(u0, 2**k),
    divided exactly by lc_x(R)(u0, 2**k) as one integer.  The quotients,
    D(u0, 2**k), are Newton-interpolated once, and each coefficient of X**i
    is read back off its balanced base-2**k digits: a digit beyond Y**(T - i)
    raises `ArithmeticError`.

    Every digit is below 2**(k - 1) in size: `_hadamard_bits` of R and
    dR/dx in x bounds every coefficient of Res_x(R, dR/dx) on the torus, and
    D, a factor of it in Z[X, Y], has partial degrees at most T, so by
    Mignotte's bound (see `_square_split`) its 1-norm is at most 2**(2 T)
    times that bound.  The packed lc_x(R) is a nonzero polynomial in X,
    since its coefficients are below that bound too, so the nodes exist, and
    R0 and R0' keep the degrees m and m - 1 in x at each of them.

    When the packed samples, of about k (deg_Y lc_x(R) + T + 1) bits, would
    exceed `_PACKED_BITS`, D is sampled instead on the lower set of total
    degree T of a grid, one `dup_resultant(R0, R0')` per node, each divided
    exactly by lc(R0)."""
    T = _discriminant_degree(R)
    if T < 0:  # x**2 divides R, and D = 0
        raise DegenerateCurveError(ZERO_CURVATURE)
    m = max(i for i, _, _ in R)
    top = max(b for i, _, b in R if i == m)  # deg_Y lc_x(R)
    k = _discriminant_width(R, T)
    D: _IntTerms = {}
    if k * (top + T + 1) <= _PACKED_BITS:
        deg_X = max(a for _, a, _ in R)
        rows = [[0] * (deg_X + 1) for _ in range(m + 1)]  # descending in x, then in X
        for (i, a, b), c in R.items():
            rows[m - i][deg_X - a] += c << k * b
        us = list(islice(_grid([rows[0]]), T + 1))
        quotients = [_discriminant_sample([horner(row, u0) for row in rows]) for u0 in us]
        for i, b, c in _unpacked(us, quotients, k):
            if i + b > T:
                raise ArithmeticError("packed discriminant has a term beyond its degree")
            D[(i, b)] = c
    else:
        in_x = _columns(R, 1)
        e = max(b for _, b in in_x)  # deg_Y R

        def at(u0: int, i: int, top: int) -> list[int]:  # x**i's coefficient, descending in Y
            return [horner(in_x.get((i, b), []), u0) for b in range(top, -1, -1)]

        # at the X nodes, lc_x(R) stays a nonzero polynomial in Y, of degree top
        us = list(islice(_grid([in_x[m, top]]), T + 1))
        vs = list(islice(_grid([at(u0, m, top) for u0 in us]), T + 1))
        rows = []
        for a, u0 in enumerate(us):
            r = [at(u0, i, e) for i in range(m, -1, -1)]  # descending in x
            samples = ([horner(coeffs, v0) for coeffs in r] for v0 in vs[: T + 1 - a])
            rows.append([_discriminant_sample(r0) for r0 in samples])
        D = _lower_set(rows, us, vs)
    if not D:
        # two roots of R share x at every centre only when each normal
        # meets the curve twice at one x: a pair of horizontal lines
        raise DegenerateCurveError(ZERO_CURVATURE)
    return D


def _discriminant_sample(r0: list[int]) -> int:
    """Res(r0, r0') / lc(r0), the discriminant of the univariate sample r0
    up to sign, by one `dup_resultant` and one exact division: a remainder
    raises `ArithmeticError`."""
    q, rem = divmod(dup_resultant(r0, derivative(r0)), r0[0])
    if rem:
        raise ArithmeticError("discriminant sample not divisible by lc(R0)")
    return q


def _discriminant_width(R: _IntTerms, T: int) -> int:
    """k such that every coefficient of disc_x(R), of total degree at most
    T, is below 2**(k - 1) in size: `_hadamard_bits` of R and dR/dx in x,
    whose coefficients are polynomials in (X, Y), plus 2 T bits for
    Mignotte's bound on a factor of their resultant."""
    norms = _norms(R, 0)
    return _hadamard_bits(norms, derivative(norms)) + 2 * T


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
    if degree(P) == 0:
        raise DegenerateCurveError(ZERO_CURVATURE)
    if degree(P) < degree(D):
        log.append(f"removed x-coincidence extraneity: degree {degree(D)} -> {degree(P)}")
    return P


def _square_split(D: _IntTerms) -> _IntTerms | None:
    """E primitive in X with D = mu(Y) E C**2, E squarefree and coprime to
    C, and every factor of mu of multiplicity at least 2: then E is D's
    multiplicity-one part.  None when the samples below certify no such E.

    At a node v0 where lc_X(D) does not vanish, `square_parts` splits
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
    packed = [pack(row, k) for row in rows]

    def divided_out(C: list[list[int]]) -> _IntTerms | None:
        """E from D / C**2, or None where a certificate fails."""
        image = [pack(row, k) for row in C]
        quotient = exquo(packed, mul(image, image))
        if quotient is None:
            return None
        mu, E = _primitive([unpack(c, k) for c in quotient])
        norm_e, norm_c = (sum(abs(c) for row in P for c in row) for P in (E, C))
        if (
            len(E) != simple
            or (sum(map(abs, mu)) * norm_e * norm_c**2).bit_length() >= k
            or [pack(mu, k) * pack(row, k) for row in E] != quotient
            or any(mult == 1 for _, mult in sqf_list(mu))
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
    try:
        for v0 in islice(_grid([rows[0]]), 2 * top + 2):
            d0 = [horner(row, v0) for row in rows]
            parts = square_parts(d0)
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
                diagonal[:] = newton_step(nodes, diagonal, value)
                newton.append(diagonal[-1])
                settled = settled and not diagonal[-1]
            if settled or len(nodes) > top:
                E = divided_out(_primitive([monomials(nodes, dd)[::-1] for _, dd in tables])[1])
                if E is not None or len(nodes) > top:
                    return E
    except InconclusiveEliminationError:  # out of nodes is inconclusive, not a refusal
        raise
    except ArithmeticError:  # the kept images are not those of integer polynomials
        pass
    return None


def _primitive(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """The content in Z[Y], the integer content included, of a polynomial
    in (X, Y), as rows descending in X of coefficient lists descending in
    Y, and the polynomial divided by it, with leading zeros stripped ([]
    for a zero row)."""
    rows = [strip(row) for row in rows]
    common = content(row for row in rows if row)
    if len(common) == 1:  # known only up to an integer factor
        g = reduce(gcd, (c for row in rows for c in row))
        return [g], [[c // g for c in row] for row in rows]
    return common, [exquo(row, common) for row in rows]


# --------------------------------------------------------------------------
# elimination pipeline
# --------------------------------------------------------------------------


def eliminate(system: tuple[_IntTerms, _IntTerms]) -> tuple[_IntTerms, list[str], dict[int, int]]:
    """Project the normal system (F, H) to the ED discriminant in (X, Y):
    R = Res_y(F, H) without its content in x, D = disc_x(R), the
    multiplicity-one part of D, and the extraneous-factor policy.  Returns
    the evolute in (X, Y), the log and `_strip_content`'s reading of R."""
    log: list[str] = []
    R, singular = _strip_content(_normal_resultant(*system), log)
    evolute = _simple_part(_discriminant(R), log)
    if _nothing_to_strip(evolute):
        return _normalize_sign(evolute), log, singular

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
            log.append(f"{STRIPPED_ISOTROPIC}: {sp.sstr(fac.as_expr())}")
    if not kept:
        raise InconclusiveEliminationError("every factor was extraneous")

    return _normalize_sign(_integer_terms(sp.prod(kept))), log, singular


def _nothing_to_strip(P: _IntTerms) -> bool:
    """Whether P certifiably has no univariate and no isotropic factor: its
    contents in X and in Y are constant (`content`), and X**2 + Y**2 does
    not divide its leading form, which every isotropic factor's leading
    form would bring.  False leaves it undecided."""
    return (
        len(content(_columns(P, 1).values())) == 1
        and len(content(_columns(P, 0).values())) == 1
        and not _isotropic(_infinity_form(P))
    )


def _is_isotropic_factor(fac: _IntTerms) -> bool:
    """True when the factor's leading form is a nonzero constant times a
    power of X^2 + Y^2, i.e. the component sits entirely on the circular
    points at infinity: entry k of `_infinity_form` is then that constant
    times binomial(d/2, k/2) for even k and 0 for odd k."""
    d = degree(fac)
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
    compare the evolute degree with 6(d + g - 1) - 2 k0, with the nodes and
    the cusps k0 read off R's content and g = (d - 1)(d - 2)/2 - nodes - k0.
    Other singular points suspend the comparison, as do isotropic factors
    stripped from the ED discriminant of a curve that avoids the circular
    points (isotropic tangents of higher contact, as on
    x**3 - 3 x y**2 + 1): the closed form may count them."""
    flags = curve.genericity_flags()
    evolute, log, singular = eliminate(center_of_curvature_system(curve))
    unread = ", ".join(str(k) for k in sorted(singular) if k not in (2, 3))
    if unread:
        flags.append(_suspended("a singular point other than a node or an ordinary cusp, or two "
                                f"on one vertical line (content multiplicity {unread} in x)"))
    stripped = any(line.startswith(STRIPPED_ISOTROPIC) for line in log)
    if stripped and not curve.through_circular_points():
        flags.append(_suspended("isotropic-line factors of the ED discriminant were stripped "
                                "from the evolute"))
    d, nodes, cusps = curve.degree, singular.get(2, 0), singular.get(3, 0)
    genus = (d - 1) * (d - 2) // 2 - nodes - cusps
    expected = 6 * (d + genus - 1) - 2 * cusps
    return EvoluteResult(
        terms=evolute,
        expected_degree=expected,
        match=degree(evolute) == expected if not flags else None,
        flags=tuple(flags),
        log=tuple(log),
    )
