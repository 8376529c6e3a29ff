"""Univariate integer polynomials: descending lists of ints, [] for zero.

Their resultants (a subresultant PRS), gcds (the heuristic gcd), exact
quotients, products, squarefree parts (Yun), irreducibility certificates,
Newton interpolation at integer nodes and Kronecker packing are plain-int
code in this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd, isqrt

# evaluation points the heuristic gcd tries before the primitive PRS
_HEURISTIC_POINTS = 6
# a specialization of degree n whose Galois group is the symmetric group
# stays irreducible modulo about 1/n of the primes (Chebotarev), so a
# generic one is certified by one of these
_CERTIFYING_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def strip(f: list[int]) -> list[int]:
    """f without its leading zeros."""
    return f[next((k for k, c in enumerate(f) if c), len(f)) :]


def derivative(f: list[int]) -> list[int]:
    """f' of a descending integer coefficient list of degree >= 1."""
    m = len(f) - 1
    return [(m - k) * c for k, c in enumerate(f[:-1])]


def horner(f: list[int], t: int) -> int:
    """f(t) of a descending integer coefficient list ([] is 0)."""
    value = 0
    for c in f:
        value = value * t + c
    return value


def mul(f: list[int], g: list[int]) -> list[int]:
    """f g, by the schoolbook product."""
    if not (f and g):
        return []
    product = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                product[j] += a * b
    return product


def exquo(f: list[int], g: list[int]) -> list[int] | None:
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


def dup_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) = lc(f)**deg(g) * prod(g(a) for the roots a of f) of two
    descending integer coefficient lists with nonzero heads, by the
    subresultant PRS (Collins, J. ACM 14, 1967; Cohen, Alg. 3.3.7).

    A step of degree gap delta = deg f - deg g takes the pseudo-remainder
    r = lc(g)**(delta + 1) f mod g, by delta + 1 steps that each drop the
    head, and divides it by lead * h**delta.  By the subresultant theorem
    that quotient is the next subresultant, whose coefficients are minors
    of the Sylvester matrix of the inputs, so each coefficient of r is
    divisible on its own and every intermediate value is a plain int.

    The gap is 1 at almost every step (the normal case, and every step of
    a generic (f, f') pair), and that step is one pass.  With f = f0 x**n +
    f1 x**(n - 1) + ..., g = g0 x**(n - 1) + g1 x**(n - 2) + ... and
    c = g0 f1 - f0 g1, the two head-dropping steps g0 f - f0 x g and
    g0 (g0 f - f0 x g) - c g give coefficient i of r as
    g0**2 f(i+2) - g0 f0 g(i+2) - c g(i+1), g past its end read as 0; it is
    the same integer as before, so its division by lead * h stays exact."""
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
        # r = lc(g)**(delta + 1) * f mod g, divided by scale = lead * h**delta
        lg, rest = g[0], g[1:]
        if delta == 1:
            c = lg * f[1] - f[0] * g[1]
            lg2, lglf, scale = lg * lg, lg * f[0], lead * h
            r = [
                (lg2 * a - lglf * b - c * e) // scale
                for a, b, e in zip(f[2:], rest[1:] + [0], rest)
            ]
        else:
            r, tail = f, rest + [0] * delta
            for _ in range(delta + 1):
                c = r[0]
                r = [lg * a - c * b for a, b in zip(r[1:], tail)]
            scale = lead * h**delta
            if scale != 1:
                r = [c // scale for c in r]
        while r and not r[0]:
            del r[0]
        if not r:
            return 0
        f, g = g, r
        lead = lg
        if delta == 1:
            h = lg
        elif delta:
            h = lg**delta // h ** (delta - 1)
        if len(g) == 1:
            da = len(f) - 1
            return sign * (g[0] ** da // h ** (da - 1))


def content(columns: Iterable[list[int]]) -> list[int]:
    """The gcd of these integer polynomials (descending lists with a nonzero
    head), folded from the shortest.  The fold stops once the gcd is a
    constant, so a constant content is known only up to an integer factor."""
    common, *rest = sorted(columns, key=len)
    for col in rest:
        if len(common) == 1:
            break
        common = _gcd(common, col)[0]
    return common


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
        ft, gt = horner(f, t), horner(g, t)
        if ft and gt:
            ht = gcd(ft, gt)

            def candidates() -> Iterator[list[int] | None]:
                h = _balanced_digits(ht, t)
                yield [c // gcd(*h) for c in h]
                yield exquo(f, _balanced_digits(ft // ht, t))
                yield exquo(g, _balanced_digits(gt // ht, t))

            for h in candidates():
                if h is not None:
                    cff = exquo(f, h)
                    cfg = None if cff is None else exquo(g, h)
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
            r = strip([b[0] * u - r[0] * v for u, v in zip(r[1:], b[1:] + [0] * (len(r) - len(b)))])
        if not r:
            break
        a, b = b, [c // gcd(*r) for c in r]
    unit = gcd(*b) if b[0] > 0 else -gcd(*b)
    h = [c // unit for c in b]
    return [common * c for c in h], exquo(f, h), exquo(g, h)


def sqf_list(f: list[int]) -> Iterator[tuple[list[int], int]]:
    """Yun's squarefree decomposition (Yun, SYMSAC 1976) of f's primitive
    part with a positive head, as sympy's `dup_sqf_list` lists it: the
    pairs (part, multiplicity) with a part of positive degree, by rising
    multiplicity.  It is lazy, so a caller can stop at the part it needs."""
    if len(f) > 1:
        scale = gcd(*f) if f[0] > 0 else -gcd(*f)
        f = [c // scale for c in f]
        _, p, q = _gcd(f, derivative(f))
        yield from _yun(p, q)


def _yun(p: list[int], q: list[int]) -> Iterator[tuple[list[int], int]]:
    """Yun's decomposition of f from p = f / gcd(f, f') and q = f' / gcd(f,
    f'): gcd(p, q - p') is the part of multiplicity 1, and the cofactors
    repeat the step for the next multiplicity."""
    multiplicity = 1
    while True:
        d = derivative(p)
        n = max(len(q), len(d))
        h = strip([a - b for a, b in zip([0] * (n - len(q)) + q, [0] * (n - len(d)) + d)])
        if not h:
            yield p, multiplicity
            return
        g, p, q = _gcd(p, h)
        if len(g) > 1:
            yield g, multiplicity
        multiplicity += 1


def square_parts(f: list[int]) -> tuple[list[int], list[int]] | None:
    """(e, c) with f = lc * e * c**2 and e the product of the simple roots
    of f, up to constants; None when a root has odd multiplicity above 1.

    When no root has multiplicity above 2, one gcd splits f: c = gcd(f, f')
    is the product of the double roots, and its cofactor pp(f) / c, which
    the gcd computes too, divided by c is e exactly.  A remainder means a
    root of higher multiplicity, and Yun's squarefree decomposition goes on
    from that gcd's cofactors (`_yun`); it stops at the first part of odd
    multiplicity above 1, whose node is skipped."""
    scale = gcd(*f)
    f = [a // scale for a in f]
    c, cofactor, derived = _gcd(f, derivative(f))
    e = exquo(cofactor, c)
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
                c = mul(c, part)
    return e, c


def irreducible(f: list[int]) -> bool:
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
    g = strip(g)
    while g:
        inverse = pow(g[0], -1, p)
        while len(f) >= len(g):
            c = f[0] * inverse % p
            f = strip([(a - c * b) % p for a, b in zip(f[1:], g[1:] + [0] * (len(f) - len(g)))])
        f, g = g, f
    return f


def newton_step(nodes: list[int], diagonal: list[int], value: int) -> list[int]:
    """The divided differences [t_n], [t_(n-1), t_n], ..., [t_0, ..., t_n]
    of samples at the integer nodes t_k = nodes[k], from `value` at t_n and
    `diagonal`, the n previous ones ending at t_(n-1) ([] for n = 0); the
    last is the Newton coefficient of t_n.

    Every divided difference of an integer polynomial at integer nodes is an
    integer, so each division is exact; a remainder means the samples are
    not those of an integer polynomial of degree <= n."""
    n = len(diagonal)
    row = [value]
    for j, previous in enumerate(diagonal, 1):
        value, r = divmod(value - previous, nodes[n] - nodes[n - j])
        if r:
            raise ArithmeticError("interpolated samples are not an integer polynomial")
        row.append(value)
    return row


def divided_differences(nodes: list[int], values: list[int]) -> list[int]:
    """Newton coefficients [t0], [t0, t1], ... of the polynomial of degree
    < len(values) that takes `values` at the first len(values) `nodes`, one
    `newton_step` per value."""
    diagonal: list[int] = []
    newton = []
    for value in values:
        diagonal = newton_step(nodes, diagonal, value)
        newton.append(diagonal[-1])
    return newton


def monomials(nodes: list[int], dd: list[int]) -> list[int]:
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


def interpolate(xs: list[int], ys: list[int]) -> list[int]:
    """Exact Newton interpolation of samples of an integer polynomial at
    integer nodes; returns its ascending monomial coefficients, without
    trailing zeros."""
    coeffs = monomials(xs, divided_differences(xs, ys))
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def pack(f: list[int], k: int) -> int:
    """f(2**k) of a descending integer coefficient list: Kronecker
    substitution, by shifts."""
    value = 0
    for c in f:
        value = (value << k) + c
    return value


def unpack(value: int, k: int) -> list[int]:
    """The balanced base-2**k digits of `value`, each in (-2**(k-1),
    2**(k-1)], descending ([] for 0): the polynomial f with
    `pack(f, k) == value` whose coefficients are below 2**(k - 1) in size,
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
