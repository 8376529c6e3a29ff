"""Output checker, independent of the package under test.

Every headline degree is recomputed here from the operation's argv by the
closed forms of the source paper and its classical references; nothing is
imported from `evolute`.  `check` returns None for a correct output and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import re

MONOMIAL = re.compile(r"x\*\*(\d+)\*y\*\*(\d+)")


def options(argv: tuple[str, ...]) -> dict[str, str]:
    """`--name value` and `--name=value` pairs after the subcommand."""
    out: dict[str, str] = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        if "=" in token:
            key, value = token.split("=", 1)
            out[key[2:]] = value
            i += 1
        else:
            out[token[2:]] = argv[i + 1]
            i += 2
    return out


def curve_forms(d: int, g: int, k0: int) -> dict[int, int]:
    """Envelope and cuspidal-edge degrees of the normal-space family."""
    return {1: 6 * (d + g - 1) - 2 * k0, 2: 3 * (3 * d + 4 * g - 4 - k0)}


def trifogli(n: int, d: int) -> int:
    """Focal-locus degree of a smooth degree-d hypersurface in n-space."""
    e = d - 1
    return d * e * ((n - 1) * e ** (n - 2) + 2 * sum(e**i for i in range(n - 1)))


def surface_forms(K2: int, c2: int, KH: int, H2: int) -> dict[int, int]:
    return {
        1: 2 * K2 + 2 * c2 + 18 * KH + 30 * H2,
        2: 17 * K2 + 5 * c2 + 102 * KH + 138 * H2,
        3: 2 * (55 * K2 + 5 * c2 + 266 * KH + 310 * H2),
    }


def surface_numbers_of_degree(d: int) -> tuple[int, int, int, int]:
    """K^2, c_2, K.H, H^2 of a smooth degree-d surface in 3-space."""
    return d * (d - 4) ** 2, d * (d * d - 4 * d + 6), d * (d - 4), d


def osculating_envelope(n: int, d: int, g: int, ks: list[int]) -> int:
    correction = sum((n - 1 - i) * k for i, k in enumerate(ks))
    return 2 * (n * d + (n * n - n + 1) * (g - 1) - correction)


def salmon_values(d: int) -> list[int]:
    return [2 * d * (d * d - d - 1), d * (d * d - d + 1), 2 * d * (5 * d * d - 14 * d + 11)]


def expected_degrees(argv: tuple[str, ...]) -> dict:
    """Map from locus order k (or row index for `salmon`) to the degree."""
    sub, opt = argv[0], options(argv)
    num = {k: int(v) for k, v in opt.items() if k not in ("format", "poly")}
    if sub == "curve":
        return curve_forms(num["d"], num.get("g", 0), num.get("k0", 0))
    if sub == "hypersurface":
        return {1: trifogli(num["n"], num["d"])}
    if sub == "surface":
        if "d" in num:
            return surface_forms(*surface_numbers_of_degree(num["d"]))
        return surface_forms(num["K2"], num["c2"], num["KH"], num["H2"])
    if sub == "osculating":
        n = num["n"]
        ks = [num.get(f"k{i}", 0) for i in range(n - 1)]
        return {1: osculating_envelope(n, num["d"], num.get("g", 0), ks)}
    if sub == "salmon":
        return dict(enumerate(salmon_values(num["d"])))
    if sub == "oracle":
        d = max(int(i) + int(j) for i, j in MONOMIAL.findall(opt["poly"]))
        return {"degree": 3 * d * (d - 1)}
    raise ValueError(f"no closed form for subcommand {sub!r}")


def check(argv: tuple[str, ...], exit_code: int | None, output: str) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        report = json.loads(output)
    except ValueError:
        return "output is not JSON"
    expected = expected_degrees(argv)
    if argv[0] == "oracle":
        if report.get("match") is not True or report.get("flags"):
            return f"oracle report not passing: match={report.get('match')}"
        if report.get("degree") != expected["degree"]:
            return f"evolute degree {report.get('degree')} != {expected['degree']}"
        return None
    rows = report.get("results", [])
    if any(r["match"] is False for r in rows):
        return "engine value differs from the report's closed form"
    if not all(i["holds"] for i in report.get("identities", [])):
        return "report identity fails"
    if argv[0] == "salmon":
        got = {i: r["engine_degree"] for i, r in enumerate(rows)}
    else:
        got = {r["k"]: r["engine_degree"] for r in rows if r["k"] is not None}
    for key, value in expected.items():
        if got.get(key) != value:
            return f"degree for {key} is {got.get(key)}, closed form gives {value}"
    return None
