"""Seeded workload generators.

Each workload is a fixed list of CLI argv lists (one pass) drawn from the
seed; the client runs the pass again and again until its time is used.  The
mix of subcommands and ambient dimensions in a pass is fixed, so two seeds
differ only in the parameters drawn inside each stratum.  That keeps the
cost of a pass, and the position of the median and tail latency inside the
cost distribution, the same from seed to seed.

Oracle curves are accepted or rejected on input properties alone, computed
here: smooth, irreducible over Q, leading form squarefree and coprime to
x^2 + y^2.  The oracle's own verdict never filters an input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("engine_sweep", "osculating_high", "oracle_plane")

# engine_sweep: operations per pass for each (subcommand, ambient) stratum
CURVE_PER_N = {2: 30, 3: 30, 4: 30, 5: 30}
SURFACE_BY_DEGREE = 30
SURFACE_NUMBERS_PER_N = {3: 8, 4: 8, 5: 8, 6: 8}
HYPERSURFACE_PER_N = {n: 10 for n in range(2, 11)}
SALMON = 30

# osculating_high: the ambient mix puts the median and the tail latency
# inside the n = 7 group, away from the jumps between groups
OSCULATING_PER_N = {5: 2, 6: 2, 7: 5, 8: 1}
CLI_STATIONARY_FLAGS = 5  # the CLI accepts --k0 .. --k4

# oracle_plane: conics carry the median and the tail, the cubic about half
# of the pass time.
# Coefficients are dense and nonzero.  The cost of a cubic grows with the
# bit size of its grid samples, so cubics take coefficients +-1 only: with
# +-5 one cubic took 9 to 23 s, which no seed-to-seed bound could absorb.
ORACLE_CONICS = 30
ORACLE_CUBICS = 1
COEFFICIENTS = {2: (-4, -3, -2, -1, 1, 2, 3, 4), 3: (-1, 1)}



@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[tuple[str, ...], ...]
    warmup: tuple[str, ...]
    rejected_draws: int

    def stats(self) -> dict:
        shapes = {(op[0], ambient(op)) for op in self.ops}
        return {
            "ops_per_pass": len(self.ops),
            "distinct_inputs": len(set(self.ops)),
            "distinct_shapes": len(shapes),
            "repeated_shape_share": 1 - len(shapes) / len(self.ops),
            "rejected_draws": self.rejected_draws,
        }


def ambient(op: tuple[str, ...]) -> int:
    """Ambient dimension of an operation (the CLI default when not given)."""
    for i, token in enumerate(op):
        if token == "--n":
            return int(op[i + 1])
        if token.startswith("--n="):
            return int(token[4:])
    return 2 if op[0] == "oracle" else 3


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    ops, rejected = _GENERATORS[name](rng)
    json_ops = tuple(tuple(op) + ("--format", "json") for op in ops)
    return Workload(name, json_ops, WARMUP[name], rejected)


def _engine_sweep(rng: random.Random) -> tuple[list[list[str]], int]:
    ops: list[list[str]] = []
    for n, count in CURVE_PER_N.items():
        for _ in range(count):
            d, g, k0 = rng.randint(2, 12), rng.randint(0, 6), rng.randint(0, 3)
            ops.append(["curve", "--n", str(n), "--d", str(d), "--g", str(g), "--k0", str(k0)])
    for _ in range(SURFACE_BY_DEGREE):
        ops.append(["surface", "--d", str(rng.randint(2, 12))])
    for n, count in SURFACE_NUMBERS_PER_N.items():
        for _ in range(count):
            numbers = {
                "K2": rng.randint(-10, 40),
                "c2": rng.randint(0, 80),
                "KH": rng.randint(-10, 40),
                "H2": rng.randint(1, 16),
            }
            ops.append(["surface", "--n", str(n)] + [f"--{k}={v}" for k, v in numbers.items()])
    for n, count in HYPERSURFACE_PER_N.items():
        for _ in range(count):
            ops.append(["hypersurface", "--n", str(n), "--d", str(rng.randint(2, 10))])
    for _ in range(SALMON):
        ops.append(["salmon", "--d", str(rng.randint(2, 12))])
    rng.shuffle(ops)
    return ops, 0


def hyperosculation_index(n: int, d: int, g: int, ks: list[int]) -> int:
    return (n + 1) * (d + n * (g - 1)) - sum((n - i) * k for i, k in enumerate(ks))


def _osculating_high(rng: random.Random) -> tuple[list[list[str]], int]:
    ops: list[list[str]] = []
    rejected = 0
    for n, count in OSCULATING_PER_N.items():
        drawn = 0
        while drawn < count:
            d, g = rng.randint(n, n + 8), rng.randint(0, 4)
            ks = [rng.randint(0, 2) for _ in range(min(CLI_STATIONARY_FLAGS, n - 1))]
            if hyperosculation_index(n, d, g, ks) < 0:  # not a realizable curve
                rejected += 1
                continue
            op = ["osculating", "--n", str(n), "--d", str(d), "--g", str(g)]
            for i, k in enumerate(ks):
                op += [f"--k{i}", str(k)]
            ops.append(op)
            drawn += 1
    rng.shuffle(ops)
    return ops, rejected


def curve_text(coeffs: dict[tuple[int, int], int]) -> str:
    """Polynomial text with every monomial written as c*x**i*y**j."""
    return " + ".join(f"{c}*x**{i}*y**{j}" for (i, j), c in sorted(coeffs.items(), reverse=True))


def acceptable_curve(coeffs: dict[tuple[int, int], int], d: int) -> bool:
    """Degree d, leading form squarefree and coprime to x^2 + y^2, smooth in
    the affine plane and irreducible over Q.  A squarefree leading form
    makes every point at infinity a smooth point, so the curve is smooth
    projectively."""
    import sympy as sp

    x, y = sp.symbols("x y")
    if not any(c for (i, j), c in coeffs.items() if i + j == d):
        return False
    F = sp.Poly(sum(c * x**i * y**j for (i, j), c in coeffs.items()), x, y)
    lead = sp.Poly(sum(c * x**i * y**j for (i, j), c in coeffs.items() if i + j == d), x, y)
    if lead.gcd(lead.diff(x)).total_degree() > 0:
        return False
    if lead.gcd(sp.Poly(x**2 + y**2, x, y)).total_degree() > 0:
        return False
    basis = sp.groebner([F, F.diff(x), F.diff(y)], x, y, order="grevlex")
    if not basis.exprs == [1]:
        return False
    _, factors = F.factor_list()
    return len(factors) == 1 and factors[0][1] == 1


def _random_curve(rng: random.Random, d: int) -> tuple[str, int]:
    rejected = 0
    while True:
        coeffs = {
            (i, j): rng.choice(COEFFICIENTS[d]) for i in range(d + 1) for j in range(d + 1 - i)
        }
        if acceptable_curve(coeffs, d):
            return curve_text(coeffs), rejected
        rejected += 1


def _oracle_plane(rng: random.Random) -> tuple[list[list[str]], int]:
    ops: list[list[str]] = []
    rejected = 0
    for _ in range(ORACLE_CONICS):
        text, r = _random_curve(rng, 2)
        ops.append(["oracle", "--poly", text])
        rejected += r
    step = ORACLE_CONICS // (ORACLE_CUBICS + 1)
    for slot in range(ORACLE_CUBICS, 0, -1):
        text, r = _random_curve(rng, 3)
        ops.insert(slot * step, ["oracle", "--poly", text])
        rejected += r
    return ops, rejected


# one fixed operation per workload, run before timing so that lazy set-up
# inside the process is not charged to the first seeded operation
WARMUP = {
    "engine_sweep": ("curve", "--n", "3", "--d", "3", "--format", "json"),
    "osculating_high": ("osculating", "--n", "5", "--d", "6", "--format", "json"),
    "oracle_plane": (
        "oracle", "--poly", curve_text({(2, 0): 1, (0, 2): 4, (0, 0): -4}), "--format", "json"
    ),
}

_GENERATORS = {
    "engine_sweep": _engine_sweep,
    "osculating_high": _osculating_high,
    "oracle_plane": _oracle_plane,
}
