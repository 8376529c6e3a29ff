"""Degrees of envelopes, evolutes and their iterated cuspidal loci.

The engine path projectivizes the Euclidean normal bundle of the input
variety, evaluates the corank-1 Thom polynomial of each codimension k, caps
with the complementary power of the tautological class and integrates:

    deg(k-fold locus image) = int_X  push( TP_k(cbar) * zeta^(n-k) ).

The pushed-forward class is a universal polynomial in the Chern classes of
the base and the sheaf, and for curves and surfaces it does not depend on
the invariants at all: it is compiled once per (kind, n), and a report
only integrates it against the point's integrals.  Hypersurfaces, whose
degree enters the sheaves, build their classes per point, and so does the
envelope of osculating hyperplanes, so that an osculating report costs the
same whatever ran before it in the process.

Every theorem-level closed form is implemented independently of the engine
and both values are reported side by side.  The curve, surface and
hypersurface reports go through one assembler, `_report`: it integrates each
locus class, pairs the degree with its closed form, checks the identities
(for curves in 3-space, the tangent-developable degree relation and Salmon's
classical counts against the engine's degrees) and adds the validity flags
and the Thom-polynomial citations.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cache

from .bundle import BundleSpace
from .chow import VarietyDescriptor, integrate
from .ring import GradedClass, Record
from .thom import MAX_CODIMENSION, UnsupportedCodimensionError, thom_class
from .varieties import (
    CurveInvariants,
    SurfaceChernNumbers,
    curve_geometry,
    hypersurface_geometry,
    osculating_rank,
    surface_geometry,
)


# --------------------------------------------------------------------------
# engine path
# --------------------------------------------------------------------------


def locus_class(space: BundleSpace, k: int) -> GradedClass:
    """push(TP_k(cbar) * zeta^(n-k)): the base class whose integral is the
    degree of the image of the k-fold corank-1 locus of the family map (the
    locus has dimension n - k)."""
    n = space.dim
    if k > MAX_CODIMENSION:
        raise UnsupportedCodimensionError(
            f"iterated cuspidal loci supported up to order {MAX_CODIMENSION}"
        )
    if not 1 <= k <= n:
        raise ValueError(f"locus order must lie in 1..{n}")
    tp = thom_class(k, space.virtual_chern(k))
    return space.pushforward(tp * space.zeta ** (n - k))


def sigma_degree(space: BundleSpace, k: int) -> int:
    """Degree of the image of the k-fold corank-1 locus of the family map."""
    return integrate(space.base, locus_class(space, k))


@cache
def _compiled_classes(kind: str, n: int) -> tuple[GradedClass, ...]:
    """Locus classes of a curve or a surface in n-space, k = 1..min(4, n).

    The sheaves of these shapes depend only on n and pushing forward never
    reads the integrals, so the classes are built once on an arbitrary point
    and every report integrates them against its own integrals.
    """
    if kind == "surface":
        space = BundleSpace(*surface_geometry(n, SurfaceChernNumbers(0, 0, 0, 0)))
    else:
        geom = curve_geometry(CurveInvariants(n, 1, 0))
        space = BundleSpace(geom.variety, geom.normal_bundle)
    return tuple(locus_class(space, k) for k in range(1, min(MAX_CODIMENSION, n) + 1))


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def curve_closed_forms(d: int, g: int, k0: int) -> tuple[int, int, int, int]:
    """Degrees of the k-fold loci, k = 1..4, of the normal-space family of a
    degree-d genus-g curve with k0 weighted cusps: the ranks of its normal
    curve, of degree the ED degree 3d + 2g - 2 - k0 and genus g, with no
    stationary index,

        (k+1)(3d + 2g - 2 - k0 + k(g-1)).

    The k-th value is meaningful only in ambient dimension >= k.
    """
    ed = 3 * d + 2 * g - 2 - k0
    return tuple([osculating_rank(ed, g, (), k) for k in (1, 2, 3, 4)])


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


def salmon_surface_reference(d: int) -> tuple[int, int, int]:
    """Salmon's centro-surface companions for a degree-d surface in 3-space:
    the class of the evolute 2d(d^2-d-1), the Euclidean distance degree
    d(d^2-d+1) and the umbilic count 2d(5d^2-14d+11)."""
    if d < 2:
        raise ValueError("reference values need degree >= 2")
    return (
        2 * d * (d * d - d - 1),
        d * (d * d - d + 1),
        2 * d * (5 * d * d - 14 * d + 11),
    )


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


class LocusResult(Record):
    __slots__ = _fields = ("locus", "k", "engine_degree", "closed_form", "match")


class IdentityResult(Record):
    __slots__ = _fields = ("name", "lhs", "rhs", "holds")


class EnumerativeReport(Record):
    __slots__ = _fields = ("input", "results", "identities", "citations", "flags")

    @property
    def passed(self) -> bool:
        return all(r.match is not False for r in self.results) and all(
            i.holds for i in self.identities
        )

    def to_dict(self) -> dict:
        """The fields, with each result and identity as a dict of its fields
        (JSON serializes the tuples as lists)."""
        return {
            **self.as_dict(),
            "results": [r.as_dict() for r in self.results],
            "identities": [i.as_dict() for i in self.identities],
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
CITE_RANKS = (
    "Piene (Numerical characters of a curve in projective n-space, Real and Complex "
    "Singularities, Oslo 1976, 1977): rank formula for osculating developables and "
    "stationary indices"
)
CITE_NORMAL_RANKS = CITE_RANKS + ", applied to the normal curve at the ED degree"
NOTE_CYCLE_DEGREES = (
    "note: engine degrees are cycle-theoretic pushforward degrees of the singular "
    "loci (any multiplicity of the locus-to-image map is included)"
)


def _thom_citations(max_k: int) -> list[str]:
    """The Thom polynomials of orders 1..max_k: Ronga's for 1-2, then one more each."""
    return [CITE_THOM_12, CITE_THOM_3, CITE_THOM_4][: max(1, max_k - 1)]


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


def _identity(name: str, lhs: int, rhs: int) -> IdentityResult:
    return IdentityResult(name, lhs, rhs, lhs == rhs)


def _validity_flags(results: tuple[LocusResult, ...]) -> list[str]:
    bad = [r.locus for r in results if r.engine_degree <= 0]
    if bad:
        return [
            "outside generic validity: nonpositive degree for "
            + ", ".join(bad)
            + " (degenerate input, values reported as polynomial evaluations)"
        ]
    return []


def _report(
    echo: dict,
    variety: VarietyDescriptor,
    classes: Iterable[GradedClass],
    closed: tuple[int, ...],
    citations: list[str],
    identities: Callable[[tuple[LocusResult, ...]], tuple[IdentityResult, ...]] | None = None,
) -> EnumerativeReport:
    """The report of one point: the engine degree of each k-fold locus (the
    integral of the k-th class) beside its closed form closed[k-1] where
    k <= len(closed), the identities drawn from those rows, the validity
    flags, and the Thom citations of the orders reached before `citations`."""
    r, n = variety.dim, variety.ambient_dim
    results = tuple(
        _entry(
            _locus_label(r, n, k),
            k,
            integrate(variety, cls),
            closed[k - 1] if k <= len(closed) else None,
        )
        for k, cls in enumerate(classes, 1)
    )
    return EnumerativeReport(
        input=echo,
        results=results,
        identities=() if identities is None else identities(results),
        citations=tuple(_thom_citations(len(results)) + citations),
        flags=tuple(_validity_flags(results) + [NOTE_CYCLE_DEGREES]),
    )


def _require_reachable_evolute(base_dim: int, ambient: int) -> None:
    order = ambient - base_dim
    if order > MAX_CODIMENSION:
        raise UnsupportedCodimensionError(
            f"the evolute is the {order}-fold iterated cuspidal locus, beyond the "
            f"built-in codimension range 1..{MAX_CODIMENSION}"
        )


def _curve_echo(kind: str, inv: CurveInvariants) -> dict:
    return {
        "kind": kind,
        "ambient": inv.ambient,
        "degree": inv.degree,
        "genus": inv.genus,
        "stationary": list(inv.stationary),
    }


def curve_report(inv: CurveInvariants) -> EnumerativeReport:
    """Full normal-space report for a curve: engine degrees of the k-fold
    loci against the closed forms, plus the n=3 consistency identities."""
    n = inv.ambient
    _require_reachable_evolute(1, n)
    return _report(
        _curve_echo("curve", inv),
        curve_geometry(inv).variety,
        _compiled_classes("curve", n),
        curve_closed_forms(inv.degree, inv.genus, inv.cusp_count),
        [CITE_CURVE_FORMS, CITE_NORMAL_RANKS],
        (lambda results: _space_curve_identities(inv, results)) if n == 3 else None,
    )


def _space_curve_identities(
    inv: CurveInvariants, results: tuple[LocusResult, ...]
) -> tuple[IdentityResult, ...]:
    """The identities between the engine's envelope, cuspidal-edge and
    edge-cusp degrees of a curve in 3-space: the tangent-developable degree
    relation, and Salmon's two classical counts 3m + n + theta = envelope
    and 5m + alpha = evolute, with his characters in weighted form: m is the
    degree, n the strict dual class (the curve's second rank), theta = k1
    counts inflections and alpha = 2 theta + k2 hyperosculating planes,
    where k2 is the third rank, the hyperosculation index."""
    m, g = inv.degree, inv.genus
    theta = inv.stationary[1]
    env, cusp, kappa = (r.engine_degree for r in results)
    strict_dual_class = osculating_rank(m, g, inv.stationary, 2)
    alpha = 2 * theta + inv.hyperosculation_index
    return (
        _identity(
            "tangent-developable degree relation: envelope = 2*edge + 2g-2 - cusps",
            env,
            2 * cusp + 2 * g - 2 - kappa,
        ),
        _identity("Salmon: 3m + n + theta = envelope degree", 3 * m + strict_dual_class + theta, env),
        _identity("Salmon: 5m + alpha = evolute degree", 5 * m + alpha, cusp),
    )


def surface_report(
    ambient: int, numbers: SurfaceChernNumbers, degree: int | None = None
) -> EnumerativeReport:
    _require_reachable_evolute(2, ambient)
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
    return _report(
        input_echo,
        surface_geometry(ambient, numbers)[0],
        _compiled_classes("surface", ambient),
        surface_closed_forms(numbers),
        [CITE_SURFACE_FORMS],
    )


def surface_report_from_degree(d: int) -> EnumerativeReport:
    """The report of a smooth degree-d surface in 3-space."""
    return surface_report(3, SurfaceChernNumbers.from_degree(d), degree=d)


def hypersurface_report(ambient: int, degree: int) -> EnumerativeReport:
    """Normal-line report for a smooth hypersurface; the envelope row is the
    evolute and carries Trifogli's closed form.  The higher rows carry the
    curve forms (in the plane, with the smooth plane-curve genus) or the
    surface forms (in 3-space) as cross-checks."""
    variety, normal = hypersurface_geometry(ambient, degree)
    space = BundleSpace(variety, normal)
    companions: tuple[int, ...] = ()
    citations = [CITE_TRIFOGLI]
    if ambient == 2:
        genus = (degree - 1) * (degree - 2) // 2
        companions = curve_closed_forms(degree, genus, 0)
        citations.append(CITE_NORMAL_RANKS)
    elif ambient == 3:
        companions = surface_closed_forms(SurfaceChernNumbers.from_degree(degree))
        citations.append(CITE_SURFACE_FORMS)
    return _report(
        {"kind": "hypersurface", "ambient": ambient, "degree": degree},
        variety,
        (locus_class(space, k) for k in range(1, min(MAX_CODIMENSION, ambient) + 1)),
        (trifogli_degree(ambient, degree),) + companions[1:],
        citations,
    )


def osculating_report(inv: CurveInvariants) -> EnumerativeReport:
    """Osculating developables, dual degrees, and the envelope of osculating
    hyperplanes, each beside a rank of the curve itself (rank 0 is the
    degree d of the curve, its 0th developable D^0, and rank n the
    hyperosculation index k_{n-1}), with the decomposition identity

        envelope = developable(n-2) + hyperosculation index k_{n-1}.
    """
    n, d, g, ks = inv.ambient, inv.degree, inv.genus, inv.stationary
    geom = curve_geometry(inv)
    rank = [osculating_rank(d, g, ks, m) for m in range(n + 1)]
    dev = [d] + [
        integrate(geom.variety, geom.osculating_sheaf(m).chern_part(1)) for m in range(1, n)
    ]
    env = sigma_degree(BundleSpace(geom.variety, geom.osculating_sheaf(n - 1)), 1)
    results = tuple(
        [_entry(f"osculating developable D^{m}", None, dev[m], rank[m]) for m in range(1, n)]
        + [
            _entry("dual variety", None, dev[1], rank[1]),
            _entry("envelope of osculating hyperplanes", 1, env, rank[n - 2] + rank[n]),
            _entry("hyperosculation index", None, env - dev[n - 2], rank[n]),
        ]
    )
    identities = (
        _identity(
            "envelope of osculating hyperplanes = developable(n-2) + hyperosculation index",
            env,
            dev[n - 2] + rank[n],
        ),
    )
    flags = [NOTE_CYCLE_DEGREES]
    if rank[n] < 0:
        flags.insert(0, "outside generic validity: negative hyperosculation index (input not realizable)")
    return EnumerativeReport(
        input=_curve_echo("osculating", inv),
        results=results,
        identities=identities,
        citations=(CITE_THOM_12, CITE_RANKS),
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
    return integrate(curve_geometry(inv).variety, _compiled_classes("curve", n)[n - 1])


def salmon_reference_report(d: int) -> EnumerativeReport:
    """Closed-form companion values for the evolute of a degree-d surface in
    3-space: its class, the Euclidean distance degree, and the umbilic count.
    No engine derivation exists for these here, so each row reports the
    closed form on both sides."""
    labels = ("evolute class (dual-surface degree)", "Euclidean distance degree", "umbilic count")
    return EnumerativeReport(
        input={"kind": "salmon-reference", "degree": d},
        results=tuple(
            _entry(label, None, value, value)
            for label, value in zip(labels, salmon_surface_reference(d))
        ),
        identities=(),
        citations=(CITE_SURFACE_FORMS, CITE_ED_DEGREE, CITE_UMBILICS),
        flags=(),
    )
