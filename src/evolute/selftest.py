"""The acceptance battery: the single source of the acceptance grids.

Each check in `BATTERY` returns (name, passed, detail).  `run_battery`
executes them for `evolute selftest`, and `tests/test_acceptance.py` has
one test per check of the same tuple, so every grid is written only here.
The random-instance generators are shared with the test suite.
"""

from __future__ import annotations

import random
from itertools import product

from .bundle import BundleSpace
from .chow import (
    SheafData,
    VarietyDescriptor,
    direct_sum,
    dual,
    kernel_from_trivial,
    segre,
    twist_by_line,
)
from .pipelines import (
    curve_closed_forms,
    curve_report,
    hypersurface_report,
    osculating_report,
    salmon_surface_reference,
    surface_degree_forms,
    surface_report_from_degree,
    trifogli_degree,
)
from .reference_forms import (
    ambient_tangent_pullback,
    tangent_chern_reference,
    virtual_chern_reference,
)
from .ring import GeneratorTable, GradedClass, unit
from .varieties import CurveInvariants


# --------------------------------------------------------------------------
# random instances (shared with the tests)
# --------------------------------------------------------------------------


def random_graded_class(
    rng: random.Random, table: GeneratorTable, max_terms: int = 4
) -> GradedClass:
    exps_pool = [e for d in range(table.bound + 1) for e in table.monomials(d)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = rng.choice(exps_pool)
        terms[exps] = rng.randint(-4, 4) * rng.randint(1, 3)
    return GradedClass(table, terms)


def random_positive_class(rng: random.Random, table: GeneratorTable, degree: int) -> GradedClass:
    """Random homogeneous class of the given degree (possibly zero)."""
    out = GradedClass(table)
    for exps in table.monomials(degree):
        if rng.random() < 0.7:
            out = out + GradedClass(table, {exps: rng.randint(-3, 3)})
    return out


def random_bundle_space(rng: random.Random) -> BundleSpace:
    """A random small base (dim 1..3) with random cotangent and sheaf data."""
    r = rng.randint(1, 3)
    n = r + rng.randint(1, 3)
    names = tuple(f"a{i}" for i in range(rng.randint(1, 2))) + ("b",)
    degrees = (1,) * (len(names) - 1) + (min(2, r),)
    table = GeneratorTable(names, degrees, bound=r)
    integrals = {m: rng.randint(-5, 5) for m in table.monomials(r)}
    cot_chern = unit(table)
    for d in range(1, r + 1):
        cot_chern = cot_chern + random_positive_class(rng, table, d)
    cotangent = SheafData(r, cot_chern)
    base = VarietyDescriptor(r, n, table, cotangent, integrals)
    rank = n - r + 1
    sheaf_chern = unit(table)
    for d in range(1, min(r, rank) + 1):
        sheaf_chern = sheaf_chern + random_positive_class(rng, table, d)
    return BundleSpace(base, SheafData(rank, sheaf_chern))


# --------------------------------------------------------------------------
# the acceptance battery
# --------------------------------------------------------------------------

CURVE_GRID = [
    (n, d, g, k0)
    for n in (3, 4, 5)
    for d in range(1, 9)
    for g in range(0, 5)
    for k0 in range(0, 4)
]
SURFACE_DEGREES = range(2, 11)
HYPERSURFACE_GRID = list(product(range(2, 7), range(2, 7)))


def check_twisted_cubic() -> tuple[str, bool, str]:
    report = curve_report(CurveInvariants(3, 3, 0))
    degrees = tuple(r.engine_degree for r in report.results)
    ok = degrees == (12, 15, 16) and report.passed
    return (
        "twisted cubic: envelope/evolute/cusp degrees 12/15/16",
        ok,
        f"engine {degrees}, identities {'ok' if report.passed else 'FAIL'}",
    )


def check_quadric_surface() -> tuple[str, bool, str]:
    report = surface_report_from_degree(2)
    degrees = tuple(r.engine_degree for r in report.results)
    ok = degrees == (12, 24, 32) and report.passed and all(r.match for r in report.results)
    return ("quadric surface: 12/24/32", ok, f"engine {degrees}")


def surface_point_ok(d: int) -> bool:
    report = surface_report_from_degree(d)
    engine = tuple(r.engine_degree for r in report.results)
    return engine == surface_degree_forms(d) and report.passed


def hypersurface_point_ok(n: int, d: int) -> bool:
    report = hypersurface_report(n, d)
    evolute = report.results[0].engine_degree
    return (
        evolute == trifogli_degree(n, d)
        and (d != 2 or evolute == 6 * (n - 1))
        and report.passed
    )


def check_surface_grid() -> tuple[str, bool, str]:
    bad = [d for d in SURFACE_DEGREES if not surface_point_ok(d)]
    return (
        "surfaces in 3-space, degrees 2..10, all 27 values",
        not bad,
        f"mismatching degrees: {bad}" if bad else "27/27 exact",
    )


def check_hypersurface_grid() -> tuple[str, bool, str]:
    bad = [(n, d) for n, d in HYPERSURFACE_GRID if not hypersurface_point_ok(n, d)]
    return (
        "hypersurfaces n=2..6, d=2..6 vs focal-degree closed form",
        not bad,
        f"failures: {bad}" if bad else "25/25 exact",
    )


def check_curve_grid() -> tuple[str, bool, str]:
    bad = [
        (n, d, g, k0)
        for n, d, g, k0 in CURVE_GRID
        if not curve_report(CurveInvariants(n, d, g, (k0,))).passed
    ]
    return (
        "curve grid n=3..5, d<=8, g<=4, k0<=3 vs closed forms and degree relation",
        not bad,
        f"{len(CURVE_GRID)} points, {len(bad)} failures" + (f": {bad[:4]}" if bad else ""),
    )


def check_salmon_grid() -> tuple[str, bool, str]:
    grid = list(product(range(1, 9), range(0, 5), range(0, 4), range(0, 4)))
    bad = [
        (d, g, k0, k1)
        for d, g, k0, k1 in grid
        if not all(c.holds for c in curve_report(CurveInvariants(3, d, g, (k0, k1))).identities)
    ]
    return (
        "Salmon count identities over the n=3 grid",
        not bad,
        f"{len(grid)} points, {len(bad)} failures" + (f": {bad[:4]}" if bad else ""),
    )


def check_osculating() -> tuple[str, bool, str]:
    problems = []
    for n in range(3, 7):
        report = osculating_report(CurveInvariants(n, n, 0))
        env = next(r for r in report.results if r.locus.startswith("envelope"))
        ktop = next(r for r in report.results if r.locus == "hyperosculation index")
        if env.engine_degree != 2 * (n - 1) or ktop.closed_form != 0 or not report.passed:
            problems.append(("rational normal curve", n))
    twisted = osculating_report(CurveInvariants(3, 3, 0))
    d1 = next(r for r in twisted.results if r.locus == "osculating developable D^1")
    if d1.engine_degree != 4:
        problems.append(("twisted cubic D^1", d1.engine_degree))
    for n, d, g, k0 in CURVE_GRID:
        report = osculating_report(CurveInvariants(n, d, g, (k0,)))
        if not all(i.holds for i in report.identities):
            problems.append((n, d, g, k0))
    return (
        "osculating suite: rational normal curves, dual degrees, decomposition identity",
        not problems,
        f"failures: {problems[:4]}" if problems else "all identities hold",
    )


def check_class_form_regressions(samples: int = 100, seed: int = 20250808) -> tuple[str, bool, str]:
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        space = random_bundle_space(rng)
        tangent = space.tangent_chern
        for i, reference in enumerate(tangent_chern_reference(space), start=1):
            if tangent.homogeneous_part(i) != reference:
                bad += 1
        cbars = space.virtual_chern(min(3, space.dim))
        for computed, reference in zip(cbars, virtual_chern_reference(space)):
            if computed != reference:
                bad += 1
        # remultiplication closes the loop through degree 4 (pins cbar_4)
        series = unit(space.table)
        for i in range(1, min(4, space.dim) + 1):
            series = series + space.virtual_chern(min(4, space.dim))[i - 1]
        product = series * tangent
        target = ambient_tangent_pullback(space)
        for i in range(0, min(4, space.dim) + 1):
            if product.homogeneous_part(i) != target.homogeneous_part(i):
                bad += 1
    return (
        "tangent/virtual class series vs componentwise forms (100 random instances)",
        bad == 0,
        f"{bad} mismatching components",
    )


def check_algebra_properties(samples: int = 1000, seed: int = 424243) -> tuple[str, bool, str]:
    rng = random.Random(seed)
    bad = 0
    per_family = samples // 4
    table = GeneratorTable(("p", "q", "s"), (1, 1, 2), bound=4)
    for _ in range(per_family):
        a = random_graded_class(rng, table)
        b = random_graded_class(rng, table)
        c = random_graded_class(rng, table)
        if (a + b) + c != a + (b + c) or a * b != b * a or a * (b + c) != a * b + a * c:
            bad += 1
    for _ in range(per_family):
        a = unit(table) + sum(
            (random_positive_class(rng, table, k) for k in (1, 2, 3)), GradedClass(table)
        )
        if a * a.series_inverse() != unit(table):
            bad += 1
    for _ in range(per_family):
        space = random_bundle_space(rng)
        f = space.fiber_dim
        k = rng.randint(0, space.dim)
        alpha = random_graded_class(rng, space.base.table)
        push = space.pushforward(space.lift(alpha) * space.zeta**k)
        expected = (
            alpha * segre(space.sheaf, k - f)
            if 0 <= k - f <= space.base.dim
            else GradedClass(space.base.table)
        )
        if push != expected:
            bad += 1
    for _ in range(per_family):
        space = random_bundle_space(rng)
        f = space.fiber_dim
        table_b = space.base.table
        A = space.sheaf
        B = SheafData(rng.randint(1, 3), unit(table_b) + random_positive_class(rng, table_b, 1))
        if direct_sum(A, B).chern != A.chern * B.chern:
            bad += 1
        if dual(dual(A)) != A:
            bad += 1
        line = random_positive_class(rng, table_b, 1)
        if twist_by_line(twist_by_line(A, line), -line) != A:
            bad += 1
        kernel = kernel_from_trivial(A.rank + B.rank + 1, B)
        if kernel.chern * B.chern != unit(table_b):
            bad += 1
        if space.pushforward(space.zeta**f) != unit(table_b):
            bad += 1
        if f >= 1 and not space.pushforward(space.zeta ** (f - 1)).is_zero:
            bad += 1
        if space.pushforward(space.zeta ** (f + 1)) != space.sheaf.chern_part(1):
            bad += 1
    return (
        "algebra invariants: ring laws, series inverse, projection formula, pushforward basis",
        bad == 0,
        f"{samples} cases, {bad} failures",
    )


def check_salmon_reference() -> tuple[str, bool, str]:
    expected = {
        2: (4, 6, 12),
        3: (30, 21, 84),
        4: (88, 52, 280),
        5: (190, 105, 660),
        6: (348, 186, 1284),
    }
    bad = []
    for d, values in expected.items():
        if salmon_surface_reference(d) != values:
            bad.append(d)
    return ("centro-surface reference values d=2..6", not bad, f"failures: {bad}" if bad else "15/15")


def check_oracle() -> tuple[str, bool, str]:
    from .oracle import PlaneCurve, oracle_check

    details = []
    ok = True

    ellipse = oracle_check(PlaneCurve.from_expr("x**2/4 + y**2 - 1"))
    details.append(f"ellipse degree {ellipse.degree}")
    ok &= ellipse.degree == 6 and ellipse.match is True
    ok &= ellipse.expected_degree == curve_closed_forms(2, 0, 0)[0] == trifogli_degree(2, 2)

    circle = oracle_check(PlaneCurve.from_expr("x**2 + y**2 - 1"))
    details.append(f"circle flagged={bool(circle.flags)}")
    ok &= circle.match is None and any("circular points" in f for f in circle.flags)

    cubic = oracle_check(PlaneCurve.from_expr("x**3 + y**3 + x*y + x - 2*y + 1"))
    details.append(f"cubic degree {cubic.degree}")
    ok &= cubic.degree == 18 and cubic.match is True
    ok &= any("extraneity" in entry for entry in cubic.log)

    folium = oracle_check(PlaneCurve.from_expr("x**3 + y**3 - 3*x*y"))  # one node: genus 0
    details.append(f"folium degree {folium.degree}")
    ok &= folium.degree == folium.expected_degree == 12 and folium.match is True
    ok &= "nodes 1, cusps 0" in folium.log[0]

    return ("elimination oracle: ellipse, circle flag, cubic 18, nodal folium 12", ok, ", ".join(details))


BATTERY = (
    check_twisted_cubic,
    check_quadric_surface,
    check_surface_grid,
    check_hypersurface_grid,
    check_curve_grid,
    check_salmon_grid,
    check_osculating,
    check_class_form_regressions,
    check_algebra_properties,
    check_salmon_reference,
    check_oracle,
)


def run_battery(include_oracle: bool = True) -> list[tuple[str, bool, str]]:
    return [check() for check in BATTERY if include_oracle or check is not check_oracle]
