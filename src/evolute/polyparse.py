"""The `--poly` parser: a plane curve's text to exact terms in (x, y).

The curve text is read by a whitelisting walk over its syntax tree
(`parse_polynomial`), is never evaluated, and gives exact rational terms.
"""

from __future__ import annotations

import ast
from decimal import Decimal, InvalidOperation
from fractions import Fraction

# the parsed curve in (x, y): exponents -> nonzero exact coefficient, an
# int unless a `/` or a decimal literal made it a `Fraction`
_Terms = dict[tuple[int, int], int | Fraction]

MAX_DEGREE = 24  # largest exponent, and largest degree of any product
MAX_POWER_BITS = 4096  # largest coefficient size a power or a literal may produce
NOT_POLYNOMIAL = "curve must be a polynomial in x and y"
TOO_LARGE = (
    f"curve polynomial too large: degree cap {MAX_DEGREE}, power size cap {MAX_POWER_BITS} bits"
)
TOO_DEEP = "curve polynomial nested too deeply"
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
        return _build(tree.body, text)[0]
    except RecursionError:
        raise ValueError(TOO_DEEP) from None


def _build(node: ast.expr, text: str) -> tuple[_Terms, int]:
    # the terms of `node` and their degree (0 for no terms), carried along so
    # that no cap re-scans the terms.  A sum or product of m terms nests m
    # levels deep on the left; fold that spine in a loop, so that only
    # parentheses and powers recurse
    spine = []
    while isinstance(node, ast.BinOp) and not isinstance(node.op, ast.Pow):
        spine.append(node)
        node = node.left
    value = _leaf(node, text)
    for binop in reversed(spine):
        value = _combine(binop.op, value, _build(binop.right, text))
    return value


def _leaf(node: ast.expr, text: str) -> tuple[_Terms, int]:
    if isinstance(node, ast.Name):
        return {(1, 0) if node.id == "x" else (0, 1): 1}, 1
    if isinstance(node, ast.Constant):
        if type(node.value) is int:
            if node.value.bit_length() > MAX_POWER_BITS:
                raise ValueError(TOO_LARGE)
            value = node.value
        elif type(node.value) is float:
            value = _decimal(ast.get_source_segment(text, node))
        else:
            raise ValueError(NOT_POLYNOMIAL)
        return ({(0, 0): value} if value else {}), 0
    if isinstance(node, ast.UnaryOp):
        operand, d = _build(node.operand, text)
        if isinstance(node.op, ast.USub):
            operand = {m: -c for m, c in operand.items()}
        return operand, d
    (base, d), e = _build(node.left, text), node.right  # a power
    if not (isinstance(e, ast.Constant) and type(e.value) is int):
        raise ValueError(NOT_POLYNOMIAL)
    bits = max((_bits(c) for c in base.values()), default=1)
    if e.value * max(d, 1) > MAX_DEGREE or e.value * bits > MAX_POWER_BITS:
        raise ValueError(TOO_LARGE)
    power = {(0, 0): 1}
    for _ in range(e.value):
        power = _product(power, base)
    return power, e.value * d


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


def degree(terms: dict[tuple[int, ...], int | Fraction]) -> int:
    return max((sum(m) for m in terms), default=0)


def _product(left: _Terms, right: _Terms) -> _Terms:
    out: _Terms = {}
    for (i, j), a in left.items():
        for (p, q), b in right.items():
            out[i + p, j + q] = out.get((i + p, j + q), 0) + a * b
    return {m: c for m, c in out.items() if c}


def _combine(
    op: ast.operator, left: tuple[_Terms, int], right: tuple[_Terms, int]
) -> tuple[_Terms, int]:
    (left, dl), (right, dr) = left, right
    if isinstance(op, ast.Div):
        if right.keys() != {(0, 0)}:  # zero or not a constant
            raise ValueError(NOT_POLYNOMIAL)
        return {m: Fraction(c) / right[0, 0] for m, c in left.items()}, dl
    if isinstance(op, ast.Mult):
        if dl + dr > MAX_DEGREE:
            raise ValueError(TOO_LARGE)
        # the leading forms multiply to a nonzero form of degree dl + dr
        product = _product(left, right)
        return product, dl + dr if product else 0
    sign = 1 if isinstance(op, ast.Add) else -1
    out = dict(left)
    for m, c in right.items():
        out[m] = out.get(m, 0) + sign * c
    kept = {m: c for m, c in out.items() if c}
    # only a cancellation can lower the degree below the larger one
    return kept, max(dl, dr) if len(kept) == len(out) else degree(kept)
