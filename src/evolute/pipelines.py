"""Degrees of envelopes, evolutes and their iterated cuspidal loci.

The engine path projectivizes the Euclidean normal bundle of the input
variety, evaluates the corank-1 Thom polynomial of each codimension k, caps
with the complementary power of the tautological class and integrates:

    deg(k-fold locus image) = int_X  push( TP_k(cbar) * zeta^(n-k) ).

Every theorem-level closed form is implemented independently of the engine
and both values are reported side by side; identities between them (the
tangent-developable degree relation, Salmon's classical counts) are checked
and reported as named verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundle import BundleSpace
from .chow import SheafData, VarietyDescriptor, binomial, integrate
from .thom import MAX_CODIMENSION, UnsupportedCodimensionError, thom_class
from .varieties import (
    CurveInvariants,
    SurfaceChernNumbers,
    curve_geometry,
    hypersurface_geometry,
    surface_geometry,
)


class InternalInconsistencyError(ArithmeticError):
    """An integral that must be an integer came out fractional."""


# --------------------------------------------------------------------------
# engine path
# --------------------------------------------------------------------------


def sigma_degree(space: BundleSpace, k: int) -> int:
    """Degree of the image of the k-fold corank-1 locus of the family map.

    The locus has dimension n - k; its image degree is the integral of the
    Thom class capped with zeta^(n-k).
    """
    n = space.dim
    if k > MAX_CODIMENSION:
        raise UnsupportedCodimensionError(
            f"iterated cuspidal loci supported up to order {MAX_CODIMENSION}"
        )
    if not 1 <= k <= n:
        raise ValueError(f"locus order must lie in 1..{n}")
    tp = thom_class(k, space.virtual_chern(k))
    value = integrate(space.base, space.pushforward(tp * space.zeta ** (n - k)))
    if value.denominator != 1:
        raise InternalInconsistencyError(
            f"non-integer locus degree {value} (order {k})"
        )
    return int(value)


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def curve_closed_forms(d: int, g: int, k0: int) -> tuple[int, int, int]:
    """Envelope, cuspidal-edge and edge-cusp degrees for the normal-space
    family of a degree-d genus-g curve with k0 weighted cusps:

        6(d+g-1) - 2 k0,   3(3d+4g-4-k0),   4(3d+5g-5-k0).

    The last value is meaningful only in ambient dimension >= 3.
    """
    return (
        6 * (d + g - 1) - 2 * k0,
        3 * (3 * d + 4 * g - 4 - k0),
        4 * (3 * d + 5 * g - 5 - k0),
    )


def trifogli_degree(n: int, d: int) -> int:
    """Focal-locus (evolute) degree of a smooth degree-d hypersurface in
    n-space: d(d-1)((n-1)(d-1)^(n-2) + 2 sum_{i<=n-2} (d-1)^i)."""
    if n < 2 or d < 1:
        raise ValueError("need ambient dimension >= 2 and degree >= 1")
    e = d - 1
    return d * e * ((n - 1) * e ** (n - 2) + 2 * sum(e**i for i in range(n - 1)))


def surface_closed_forms(numbers: SurfaceChernNumbers) -> tuple[int, int, int]:
    """Evolute, cuspidal-curve and curve-cusp degrees of a surface from its
    four Chern numbers (linear combinations with the classical coefficients)."""
    k2, c2, kh, h2 = numbers.K2, numbers.c2, numbers.KH, numbers.H2
    return (
        2 * k2 + 2 * c2 + 18 * kh + 30 * h2,
        17 * k2 + 5 * c2 + 102 * kh + 138 * h2,
        2 * (55 * k2 + 5 * c2 + 266 * kh + 310 * h2),
    )


def surface_degree_forms(d: int) -> tuple[int, int, int]:
    """The three surface forms specialized to a smooth degree-d surface in
    3-space: 2d(d-1)(2d-1), 2d(d-1)(11d-16), 4d(30d^2-97d+78)."""
    return (
        2 * d * (d - 1) * (2 * d - 1),
        2 * d * (d - 1) * (11 * d - 16),
        4 * d * (30 * d * d - 97 * d + 78),
    )


@dataclass(frozen=True)
class SalmonSurfaceReference:
    """Salmon's centro-surface companions for a degree-d surface in 3-space."""

    evolute_class: int
    ed_degree: int
    umbilic_count: int


def salmon_surface_reference(d: int) -> SalmonSurfaceReference:
    """Class of the evolute 2d(d^2-d-1), Euclidean distance degree
    d(d^2-d+1) and umbilic count 2d(5d^2-14d+11)."""
    if d < 2:
        raise ValueError("reference values need degree >= 2")
    return SalmonSurfaceReference(
        evolute_class=2 * d * (d * d - d - 1),
        ed_degree=d * (d * d - d + 1),
        umbilic_count=2 * d * (5 * d * d - 14 * d + 11),
    )


@dataclass(frozen=True)
class SalmonCharacters:
    """Salmon's numerical characters of a space curve, in weighted form.

    m is the curve degree, the strict dual class is 3(d+2g-2)-2k0-k1, theta
    counts inflections (k1), and alpha = 2 k1 + k2 is the weighted count of
    hyperosculating planes with k2 = 4(d+3(g-1))-3k0-2k1.
    """

    m: int
    strict_dual_class: int
    theta: int
    k2: int

    @property
    def alpha(self) -> int:
        return 2 * self.theta + self.k2


def salmon_characters(inv: CurveInvariants) -> SalmonCharacters:
    d, g = inv.degree, inv.genus
    k0 = inv.stationary[0]
    k1 = inv.stationary[1] if inv.ambient >= 3 else 0
    return SalmonCharacters(
        m=d,
        strict_dual_class=3 * (d + 2 * g - 2) - 2 * k0 - k1,
        theta=k1,
        k2=4 * (d + 3 * (g - 1)) - 3 * k0 - 2 * k1,
    )


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LocusResult:
    locus: str
    k: int | None
    engine_degree: int
    closed_form: int | None
    match: bool | None

    def to_dict(self) -> dict:
        return {
            "locus": self.locus,
            "k": self.k,
            "engine_degree": self.engine_degree,
            "closed_form": self.closed_form,
            "match": self.match,
        }


@dataclass(frozen=True)
class IdentityResult:
    name: str
    lhs: int
    rhs: int
    holds: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


@dataclass(frozen=True)
class EnumerativeReport:
    input: dict
    results: tuple[LocusResult, ...]
    identities: tuple[IdentityResult, ...]
    citations: tuple[str, ...]
    flags: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(r.match is not False for r in self.results) and all(
            i.holds for i in self.identities
        )

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "results": [r.to_dict() for r in self.results],
            "identities": [i.to_dict() for i in self.identities],
            "citations": list(self.citations),
            "flags": list(self.flags),
        }


CITE_THOM_12 = (
    "Ronga (Comment. Math. Helv. 47, 1972): corank-1 Thom polynomials, codimension 1-2"
)
CITE_THOM_3 = "Rimanyi (Invent. Math. 143, 2001, Thm. 5.1): codimension-3 corank-1 Thom polynomial"
CITE_THOM_4 = (
    "Gaffney-Porteous-Ronga (Proc. Sympos. Pure Math. 40, 1983, Thm. 2.2): "
    "codimension-4 corank-1 Thom polynomial"
)
CITE_CURVE_FORMS = (
    "Salmon (A Treatise on the Analytic Geometry of Three Dimensions, 4th ed., 1882, "
    "p. 341 footnote): envelope and evolute degrees of a space curve"
)
CITE_SURFACE_FORMS = (
    "Salmon (5th ed., vol. II, 1915, Art. 509-511): degree and class of the centro-surface"
)
CITE_TRIFOGLI = (
    "Trifogli (Geom. Dedicata 70, 1998, Thm. 2): focal-locus degree of a smooth hypersurface"
)
CITE_ED_DEGREE = (
    "Draisma-Horobet-Ottaviani-Sturmfels-Thomas (Found. Comput. Math. 16, 2016): "
    "Euclidean distance degree"
)
CITE_UMBILICS = "Salmon (1882, p. 263 footnote): umbilic count of a smooth surface"
CITE_PLUCKER = (
    "generalized Plucker formulas for osculating developables and stationary indices "
    "of space curves"
)
NOTE_CYCLE_DEGREES = (
    "note: engine degrees are cycle-theoretic pushforward degrees of the singular "
    "loci (any multiplicity of the locus-to-image map is included)"
)


def _thom_citations(max_k: int) -> list[str]:
    cites = [CITE_THOM_12]
    if max_k >= 3:
        cites.append(CITE_THOM_3)
    if max_k >= 4:
        cites.append(CITE_THOM_4)
    return cites


def _locus_label(base_dim: int, ambient: int, k: int) -> str:
    names = {
        1: "envelope",
        2: "cuspidal edge",
        3: "cusps of cuspidal edge",
        4: "fourth-order cuspidal locus",
    }
    label = names[k]
    if k == ambient - base_dim:
        label += " [evolute]"
    if base_dim == 1 and k == ambient:
        label += " [vertices]"
    return label


def _entry(label: str, k: int | None, engine: int, closed: int | None) -> LocusResult:
    return LocusResult(label, k, engine, closed, None if closed is None else engine == closed)


def _validity_flags(results: tuple[LocusResult, ...]) -> list[str]:
    bad = [r.locus for r in results if r.engine_degree <= 0]
    if bad:
        return [
            "outside generic validity: nonpositive degree for "
            + ", ".join(bad)
            + " (degenerate input, values reported as polynomial evaluations)"
        ]
    return []


def _locus_results(
    variety: VarietyDescriptor, normal: SheafData, closed: tuple[int, ...]
) -> tuple[LocusResult, ...]:
    """Engine degree of each k-fold locus, k up to min(MAX_CODIMENSION, n),
    beside its closed form closed[k-1] where k <= len(closed)."""
    space = BundleSpace(variety, normal)
    r, n = variety.dim, variety.ambient_dim
    return tuple(
        _entry(
            _locus_label(r, n, k),
            k,
            sigma_degree(space, k),
            closed[k - 1] if k <= len(closed) else None,
        )
        for k in range(1, min(MAX_CODIMENSION, n) + 1)
    )


def _require_reachable_evolute(base_dim: int, ambient: int) -> None:
    order = ambient - base_dim
    if order > MAX_CODIMENSION:
        raise UnsupportedCodimensionError(
            f"the evolute is the {order}-fold iterated cuspidal locus, beyond the "
            f"built-in codimension range 1..{MAX_CODIMENSION}"
        )


def curve_report(inv: CurveInvariants) -> EnumerativeReport:
    """Full normal-space report for a curve: engine degrees of the k-fold
    loci against the closed forms, plus the n=3 consistency identities."""
    n, d, g, k0 = inv.ambient, inv.degree, inv.genus, inv.cusp_count
    _require_reachable_evolute(1, n)
    geom = curve_geometry(inv)
    results = _locus_results(geom.variety, geom.normal_bundle, curve_closed_forms(d, g, k0))

    identities = []
    if n == 3:
        env, cusp, kappa = (r.engine_degree for r in results[:3])
        identities.append(
            IdentityResult(
                "tangent-developable degree relation: envelope = 2*edge + 2g-2 - cusps",
                env,
                2 * cusp + 2 * g - 2 - kappa,
                env == 2 * cusp + 2 * g - 2 - kappa,
            )
        )
        identities.extend(salmon_identity_checks(inv))

    flags = _validity_flags(results) + [NOTE_CYCLE_DEGREES]
    citations = _thom_citations(len(results)) + [CITE_CURVE_FORMS, CITE_PLUCKER]
    return EnumerativeReport(
        input={
            "kind": "curve",
            "ambient": n,
            "degree": d,
            "genus": g,
            "stationary": list(inv.stationary),
        },
        results=results,
        identities=tuple(identities),
        citations=tuple(citations),
        flags=tuple(flags),
    )


def salmon_identity_checks(inv: CurveInvariants) -> list[IdentityResult]:
    """Salmon's two classical counts for curves in 3-space, against ours:
    3m + n + theta equals the envelope degree and 5m + alpha the evolute
    degree (weighted stationary indices throughout)."""
    if inv.ambient != 3:
        raise ValueError("Salmon's counts concern curves in 3-space")
    chars = salmon_characters(inv)
    env, cusp, _ = curve_closed_forms(inv.degree, inv.genus, inv.cusp_count)
    lhs1 = 3 * chars.m + chars.strict_dual_class + chars.theta
    lhs2 = 5 * chars.m + chars.alpha
    return [
        IdentityResult("Salmon: 3m + n + theta = envelope degree", lhs1, env, lhs1 == env),
        IdentityResult("Salmon: 5m + alpha = evolute degree", lhs2, cusp, lhs2 == cusp),
    ]


def surface_report(
    ambient: int, numbers: SurfaceChernNumbers, degree: int | None = None
) -> EnumerativeReport:
    _require_reachable_evolute(2, ambient)
    variety, normal = surface_geometry(ambient, numbers)
    results = _locus_results(variety, normal, surface_closed_forms(numbers))

    flags = _validity_flags(results) + [NOTE_CYCLE_DEGREES]
    input_echo = {
        "kind": "surface",
        "ambient": ambient,
        "chern_numbers": {
            "K2": numbers.K2,
            "c2": numbers.c2,
            "KH": numbers.KH,
            "H2": numbers.H2,
        },
    }
    if degree is not None:
        input_echo["degree"] = degree
    return EnumerativeReport(
        input=input_echo,
        results=results,
        identities=(),
        citations=tuple(_thom_citations(len(results)) + [CITE_SURFACE_FORMS]),
        flags=tuple(flags),
    )


def surface_report_from_degree(d: int, ambient: int = 3) -> EnumerativeReport:
    if ambient != 3:
        raise ValueError("degree shorthand describes surfaces in 3-space")
    return surface_report(3, SurfaceChernNumbers.from_degree(d), degree=d)


def hypersurface_report(ambient: int, degree: int) -> EnumerativeReport:
    """Normal-line report for a smooth hypersurface; the envelope row is the
    evolute and carries Trifogli's closed form.  The higher rows carry the
    curve forms (in the plane, with the smooth plane-curve genus) or the
    surface forms (in 3-space) as cross-checks."""
    variety, normal = hypersurface_geometry(ambient, degree)
    companions: tuple[int, ...] = ()
    if ambient == 2:
        genus = (degree - 1) * (degree - 2) // 2
        companions = curve_closed_forms(degree, genus, 0)
    elif ambient == 3:
        companions = surface_closed_forms(SurfaceChernNumbers.from_degree(degree))
    closed = (trifogli_degree(ambient, degree),) + companions[1:]
    results = _locus_results(variety, normal, closed)

    flags = _validity_flags(results) + [NOTE_CYCLE_DEGREES]
    citations = _thom_citations(len(results)) + [CITE_TRIFOGLI]
    if ambient == 2:
        citations.append(CITE_CURVE_FORMS)
    elif ambient == 3:
        citations.append(CITE_SURFACE_FORMS)
    return EnumerativeReport(
        input={"kind": "hypersurface", "ambient": ambient, "degree": degree},
        results=results,
        identities=(),
        citations=tuple(citations),
        flags=tuple(flags),
    )


def osculating_envelope_closed_form(inv: CurveInvariants) -> int:
    """Degree of the envelope of the osculating hyperplanes:
    2(nd + (n^2-n+1)(g-1) - sum_{i<=n-2} (n-1-i) k_i)."""
    n, d, g = inv.ambient, inv.degree, inv.genus
    correction = sum((n - 1 - i) * k for i, k in enumerate(inv.stationary))
    return 2 * (n * d + (n * n - n + 1) * (g - 1) - correction)


def developable_closed_form(inv: CurveInvariants, m: int) -> int:
    """Degree of the m-th osculating developable:
    C(m+1,2)(2g-2) + (m+1)d - sum_{i<m} (m-i) k_i."""
    d, g = inv.degree, inv.genus
    correction = sum((m - i) * inv.stationary[i] for i in range(m))
    return binomial(m + 1, 2) * (2 * g - 2) + (m + 1) * d - correction


def osculating_report(inv: CurveInvariants) -> EnumerativeReport:
    """Osculating developables, dual degrees, and the envelope of osculating
    hyperplanes, with the decomposition identity

        envelope = developable(n-2) + hyperosculation index k_{n-1}.
    """
    n = inv.ambient
    geom = curve_geometry(inv)

    results = []
    dev_engine = {}
    for m in range(1, n):
        sheaf = geom.osculating_sheaf(m)
        value = integrate(geom.variety, sheaf.chern_part(1))
        if value.denominator != 1:
            raise InternalInconsistencyError(f"fractional developable degree {value}")
        dev_engine[m] = int(value)
        results.append(
            _entry(
                f"osculating developable D^{m}",
                None,
                dev_engine[m],
                developable_closed_form(inv, m),
            )
        )
    results.append(
        _entry("dual variety", None, dev_engine[1], 2 * inv.degree + 2 * inv.genus - 2 - inv.cusp_count)
    )

    hyperplane_family = BundleSpace(geom.variety, geom.osculating_sheaf(n - 1))
    env_engine = sigma_degree(hyperplane_family, 1)
    results.append(
        _entry(
            "envelope of osculating hyperplanes",
            1,
            env_engine,
            osculating_envelope_closed_form(inv),
        )
    )

    # the 0th developable is the curve itself, so n = 2 falls back to its degree
    dev_below = dev_engine[n - 2] if n >= 3 else inv.degree
    k_top = inv.hyperosculation_index
    results.append(_entry("hyperosculation index", None, env_engine - dev_below, k_top))
    results = tuple(results)

    identities = (
        IdentityResult(
            "envelope of osculating hyperplanes = developable(n-2) + hyperosculation index",
            env_engine,
            dev_below + k_top,
            env_engine == dev_below + k_top,
        ),
    )

    flags = [NOTE_CYCLE_DEGREES]
    if k_top < 0:
        flags.insert(0, "outside generic validity: negative hyperosculation index (input not realizable)")
    return EnumerativeReport(
        input={
            "kind": "osculating",
            "ambient": n,
            "degree": inv.degree,
            "genus": inv.genus,
            "stationary": list(inv.stationary),
        },
        results=results,
        identities=identities,
        citations=(CITE_THOM_12, CITE_PLUCKER),
        flags=tuple(flags),
    )


def vertices_count(inv: CurveInvariants) -> int:
    """Number of vertices of a curve in n-space: the degree of the n-fold
    corank-1 locus of its normal-space family (2 <= n <= 4)."""
    n = inv.ambient
    if not 2 <= n <= MAX_CODIMENSION:
        raise UnsupportedCodimensionError(
            f"vertex counts available for ambient dimension 2..{MAX_CODIMENSION}"
        )
    geom = curve_geometry(inv)
    return sigma_degree(BundleSpace(geom.variety, geom.normal_bundle), n)


def salmon_reference_report(d: int) -> EnumerativeReport:
    """Closed-form companion values for the evolute of a degree-d surface in
    3-space: its class, the Euclidean distance degree, and the umbilic count.
    No engine derivation exists for these here, so each row reports the
    closed form on both sides."""
    ref = salmon_surface_reference(d)
    rows = (
        _entry("evolute class (dual-surface degree)", None, ref.evolute_class, ref.evolute_class),
        _entry("Euclidean distance degree", None, ref.ed_degree, ref.ed_degree),
        _entry("umbilic count", None, ref.umbilic_count, ref.umbilic_count),
    )
    return EnumerativeReport(
        input={"kind": "salmon-reference", "degree": d},
        results=rows,
        identities=(),
        citations=(CITE_SURFACE_FORMS, CITE_ED_DEGREE, CITE_UMBILICS),
        flags=(),
    )
