"""Catalog of singularity families with end-to-end verification.

Each registry entry carries a defining equation template, its parameter
domain, a small default parameter grid and, for the families that state
closed-form data (B-odd, B-even, ELLIPTIC-1), a builder of that data for one
instance: the maximal cones, subprofile hyperplanes, embedded valuations,
tropical cones and determinant certificates.  Tabulated per-cone Hilbert
bases for the instances shipped in ``data/appendix_fixtures.json`` sit
beside the registry.  ``verify`` runs the whole pipeline on one instance and
reports per stage.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial
from importlib import resources
from typing import Callable, Mapping, Sequence

from .cones import Cone, Vec, unimodular_det
from .newton import _facet_incidence, dual_newton_cones
from .polyparse import Polynomial
from .profile import (
    AffineFunctional,
    SubprofileSpec,
    contains_point,
    facet_equation,
    profile_lattice_points,
    subprofile_check,
)
from .refine import refinement_from_rays
from .valuation import groebner_fan, initial_form, tropical_variety


class CatalogError(ValueError):
    """Unknown family, bad parameters, or data the family does not carry."""


Params = dict[str, int]
Terms = dict[tuple[int, int, int], int]


@dataclass(frozen=True)
class CatalogHyperplane:
    """One subprofile bounding hyperplane; recomputed marks a replacement."""

    functional: AffineFunctional
    recomputed: bool = False

    def __str__(self) -> str:
        return facet_equation(self.functional)


@dataclass(frozen=True)
class _Stated:
    """The closed-form data one family states for one instance, None where
    it states nothing.  ``subprofiles`` is keyed by cone index, ``tropical``
    holds the ray sets of the tropical cones and ``printed_profile`` the
    profile pair printed for cone 0."""

    cones: list[Cone] | None = None
    subprofiles: dict[int, tuple[CatalogHyperplane, ...]] | None = None
    valuations: tuple[Vec, ...] | None = None
    tropical: frozenset[frozenset[Vec]] | None = None
    determinants: list[dict] | None = None
    printed_profile: tuple[AffineFunctional, ...] | None = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: tuple[str, ...]
    constraint: str
    template: str
    rtp: bool
    grid: tuple[Params, ...]
    builder: Callable[[Params], Terms] = field(repr=False)
    # keyword arguments named after ``parameters``; True inside the domain
    domain: Callable[..., bool] = field(repr=False)
    # the closed-form data of one instance, all None where none is stated
    stated: Callable[[Params], _Stated] = field(repr=False)
    note: str = ""
    # containment failures (Hilbert elements outside their profile) are
    # recorded without failing the run; no expected witness is on file
    escape_observational: bool = False


def _a3_domain(l: int, m: int, k: int) -> bool:
    return l < m < k and (l + k > 2 * m or (l + k) % 2 == 0)


def _a4_domain(l: int, m: int, k: int) -> bool:
    return l < m < k and l + k <= 2 * m and (l + k) % 2 == 1


def _terms_a1(p: Params) -> Terms:
    m = p["m"]
    return {(0, 3 * m + 3, 0): 1, (1, m + 1, 1): 1, (1, 0, 2): -1, (0, 0, 3): -1}


def _terms_a2(p: Params) -> Terms:
    k, m = p["k"], p["m"]
    return {
        (0, 2 * k + m + 3, 0): 1,
        (0, 2 * k + 2, 1): 1,
        (0, k + 1, 2): 1,
        (1, k + 1, 1): 1,
        (1, 0, 2): 1,
        (0, 0, 3): -1,
    }


def _terms_a3(p: Params) -> Terms:
    l, m, k = p["l"], p["m"], p["k"]
    out: Terms = {(0, 3 * k, 0): 1}
    # the two pure-y terms coincide when l + k = 2m + 2
    e = (0, 2 * k + m + l - 2, 0)
    out[e] = out.get(e, 0) + 1
    out[(0, l + k, 1)] = -2
    out[(1, k, 1)] = -1
    out[(0, m, 2)] = 1
    out[(1, 0, 2)] = 1
    out[(0, 0, 3)] = -1
    return out


def _terms_a4(p: Params) -> Terms:
    l, m, k = p["l"], p["m"], p["k"]
    return {
        (0, 2 * k + m, 0): 1,
        (0, k + m, 1): 1,
        (0, l + k, 1): 1,
        (1, k, 1): 1,
        (0, k, 2): -1,
        (0, l, 2): 1,
        (1, 0, 2): 1,
        (0, 0, 3): -1,
    }


def _terms_b_odd(p: Params) -> Terms:
    r, n = p["r"], p["n"]
    return {(2 * n + 3, 0, 1): 1, (r, 2, 0): -1, (0, 2, 1): -1}


def _terms_b_even(p: Params) -> Terms:
    r, n = p["r"], p["n"]
    return {(n + r + 2, 1, 0): 1, (2 * n + 3, 0, 1): -1, (0, 2, 1): 1}


def _terms_c(p: Params) -> Terms:
    n, m = p["n"], p["m"]
    return {(n - 1, 2 * m + 2, 0): 1, (0, 2 * m + 4, 0): 1, (1, 0, 2): -1}


def _terms_d(p: Params) -> Terms:
    n = p["n"]
    return {(2 * n + 2, 2, 0): 1, (n + 3, 0, 1): -1, (0, 1, 2): 1}


def _terms_f(p: Params) -> Terms:
    k = p["k"]
    return {(0, 2 * k + 3, 0): 1, (2, 2 * k, 0): 1, (1, 0, 2): -1}


# ---------------------------------------------------------------------------
# closed-form data for the B series and the first elliptic example


def _hyp(a: int, b: int, c: int, d: int, recomputed: bool = False) -> CatalogHyperplane:
    return CatalogHyperplane(AffineFunctional.from_integers(a, b, c, d), recomputed)


def _b_series(odd: bool, p: Params) -> _Stated:
    """The stated data of B-odd (``odd``) or B-even; only B-odd states
    determinant families and a printed profile pair."""
    r, n = p["r"], p["n"]
    if odd:
        top, mid, xray = (2, 2 * n + 3, 2 * r), (0, 1, 2), (1, 0, r)
        cone0 = (
            _hyp(r - 1, 0, -1, 1),
            _hyp(n - r + 2, -1, 1, -1),
            _hyp(r - 1, 1, -1, 1, recomputed=True),
            _hyp(r * n + 2 * r - 2 * n - 3, 1, -(n + 2), 2 * n + 3, recomputed=True),
        )
    else:
        top, mid, xray = (2, 2 * n + 3, 2 * r + 1), (0, 1, 1), (1, 0, n + r + 2)
        cone0 = (
            _hyp(n * n + n * r + 2 * n + r + 1, -n, -(n + 1), n + 1),
            _hyp(r, 0, -1, 1),
        )
    base = (2, 2 * n + 3, 0)
    cones = [
        Cone.from_generators([(0, 0, 1), xray, mid, top]),
        Cone.from_generators([(1, 0, 0), xray, base, top]),
        Cone.from_generators([(0, 1, 0), mid, base, top]),
    ]
    # the closed-form list without the coordinate rays; see embedded_valuations
    evs = {(1, 0, z) for z in range(1, xray[2] + 1)}
    evs.update((2, 2 * n + 3, z) for z in range(0, top[2] + 1))
    evs.update({(0, 1, 1), mid, (1, n + 2, r + 1)})
    evs.update(
        (1, s, z)
        for s in range(1, n + 3)
        for z in range(0, r + 1 if odd else n + r + 3 - s)
    )
    for c in cones:
        evs.update(c.generators)
    return _Stated(
        cones=cones,
        subprofiles={
            0: cone0,
            1: (_hyp(1, 0, 0, -1), _hyp(n + 2, -1, 0, -1)),
            2: (_hyp(n + 1, -1, 0, 1),),
        },
        valuations=tuple(sorted(evs)),
        tropical=frozenset(
            map(frozenset, ({top}, {xray, top}, {mid, top}, {base, top}))
        ),
        determinants=_det_matrices_b_odd(r, n) if odd else None,
        printed_profile=(
            # the first is printed with no x term
            AffineFunctional.from_integers(0, -1, 2 * n + 3, -r * (2 * n + 3)),
            AffineFunctional.from_integers(n - r + 2, -1, 1, -1),
        ) if odd else None,
    )


def _det_matrices_b_odd(r: int, n: int) -> list[dict]:
    """Determinant certificate families for the stated B-odd refinement."""
    top = lambda z: (2, 2 * n + 3, z)
    fams: list[dict] = []

    def add(label: str, triples: list[tuple[Vec, Vec, Vec]]) -> None:
        fams.append({"label": label, "matrices": triples})

    add("cone0 ladder", [
        ((0, 0, 1), (1, s, r), (1, s + 1, r)) for s in range(0, n + 1)
    ])
    add("cone0 corners", [
        ((0, 0, 1), (0, 1, 2), (1, n + 2, r + 1)),
        ((0, 0, 1), top(2 * r), (1, n + 2, r + 1)),
        ((0, 0, 1), top(2 * r), (1, n + 1, r)),
    ])
    add("cone1 upper wedge", [
        m
        for s in range(0, r)
        for m in (
            (top(2 * s + 1), (1, n + 1, s + 1), (1, n + 1, s)),
            (top(2 * s), top(2 * s + 1), (1, n + 1, s)),
            (top(2 * s), top(2 * s - 1), (1, n + 1, s)),
        )
    ])
    add("cone1 lower wedge", [
        m
        for l in range(0, r + 1)
        for m in (
            [((1, k, l), (1, k, l + 1), (1, k + 1, r)) for k in range(0, n + 1)]
            + [((1, k, l), (1, k, l + 1), (1, k - 1, r)) for k in range(1, n + 2)]
            + [((1, k, l), (1, k, l + 1), (1, k + 1, 0)) for k in range(0, n + 1)]
            + [((1, k, l), (1, k, l + 1), (1, k - 1, 0)) for k in range(1, n + 2)]
        )
    ])
    add("cone2 upper wedge", [
        m
        for s in range(0, r)
        for m in (
            (top(2 * s), top(2 * s + 1), (1, n + 2, s)),
            (top(2 * s), top(2 * s - 1), (1, n + 2, s)),
            (top(2 * s + 1), (1, n + 2, s + 1), (1, n + 2, s)),
        )
    ])
    add("cone2 lower wedge", [
        ((1, n + 2, l), (1, n + 2, l + 1), (0, 1, 1)) for l in range(0, r + 1)
    ])
    return fams


def _elliptic1(p: Params) -> _Stated:
    """Three cones around the apex ray (6,8,9); subprofile data for cone 2."""
    return _Stated(
        cones=[
            Cone.from_generators([(1, 0, 0), (0, 0, 1), (3, 1, 0), (6, 8, 9)]),
            Cone.from_generators([(0, 1, 0), (3, 1, 0), (6, 8, 9)]),
            Cone.from_generators([(0, 1, 0), (0, 0, 1), (6, 8, 9)]),
        ],
        subprofiles={2: (_hyp(8, -3, -3, 3),)},
    )


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(
    name: str,
    parameters: tuple[str, ...],
    constraint: str,
    domain: Callable[..., bool],
    template: str,
    grid: Sequence[Params],
    builder: Callable[[Params], Terms],
    rtp: bool = True,
    note: str = "",
    escape_observational: bool = False,
    stated: Callable[[Params], _Stated] = lambda p: _Stated(),
) -> None:
    _ENTRIES[name] = CatalogEntry(
        name, parameters, constraint, template, rtp, tuple(grid), builder, domain,
        stated, note, escape_observational,
    )


_register(
    "A1", ("m",), "m >= 2", lambda m: m >= 2,
    "y^(3m+3) + x*y^(m+1)*z - x*z^2 - z^3",
    [{"m": 2}, {"m": 3}, {"m": 5}], _terms_a1,
)
_register(
    "A2", ("k", "m"), "1 <= k < m", lambda k, m: 1 <= k < m,
    "y^(2k+m+3) + y^(2k+2)*z + y^(k+1)*z^2 + x*y^(k+1)*z + x*z^2 - z^3",
    [{"k": 1, "m": 2}, {"k": 1, "m": 3}, {"k": 2, "m": 5}], _terms_a2,
)
_register(
    "A3", ("l", "m", "k"), "l < m < k and (l+k > 2m or l+k even)", _a3_domain,
    "y^(3k) + y^(2k+m+l-2) - 2*y^(l+k)*z - x*y^k*z + y^m*z^2 + x*z^2 - z^3",
    [{"l": 1, "m": 2, "k": 3}, {"l": 1, "m": 2, "k": 5}, {"l": 2, "m": 3, "k": 6}],
    _terms_a3,
)
_register(
    "A4", ("l", "m", "k"), "l < m < k, l+k <= 2m, l+k odd", _a4_domain,
    "y^(2k+m) + y^(k+m)*z + y^(l+k)*z + x*y^k*z - y^k*z^2 + y^l*z^2 + x*z^2 - z^3",
    [{"l": 1, "m": 3, "k": 4}, {"l": 1, "m": 4, "k": 6}, {"l": 2, "m": 5, "k": 7}],
    _terms_a4,
)
_register(
    "B-odd", ("r", "n"), "r >= 1, n >= 2", lambda r, n: r >= 1 and n >= 2,
    "x^(2n+3)*z - x^r*y^2 - y^2*z",
    [{"r": 1, "n": 2}, {"r": 2, "n": 2}, {"r": 2, "n": 3}, {"r": 3, "n": 4}],
    _terms_b_odd, stated=partial(_b_series, True),
)
_register(
    "B-even", ("r", "n"), "r >= 1, n >= 2", lambda r, n: r >= 1 and n >= 2,
    "x^(n+r+2)*y - x^(2n+3)*z + y^2*z",
    [{"r": 1, "n": 2}, {"r": 2, "n": 2}, {"r": 3, "n": 3}],
    _terms_b_even, stated=partial(_b_series, False),
)
_register(
    "C", ("n", "m"), "n >= 3, m >= 2", lambda n, m: n >= 3 and m >= 2,
    "x^(n-1)*y^(2m+2) + y^(2m+4) - x*z^2",
    [{"n": 3, "m": 2}, {"n": 4, "m": 2}, {"n": 5, "m": 3}], _terms_c,
)
_register(
    "D", ("n",), "n >= 1", lambda n: n >= 1,
    "x^(2n+2)*y^2 - x^(n+3)*z + y*z^2",
    [{"n": 1}, {"n": 2}, {"n": 4}], _terms_d,
)
_register(
    "D-appendix", ("n",), "n >= 1", lambda n: n >= 1,
    "x^(2n+2)*y^2 - x^(n+3)*z + y*z^2",
    [{"n": 1}, {"n": 2}, {"n": 4}], _terms_d,
    note="same defining equation as D; carries the tabulated per-cone bases",
)
_register(
    "E60", (), "", lambda: True, "z^3 + y^3*z + x^2*y^2", [{}],
    lambda p: {(0, 0, 3): 1, (0, 3, 1): 1, (2, 2, 0): 1},
)
_register(
    "E07", (), "", lambda: True, "z^3 + y^5 + x^2*y^2", [{}],
    lambda p: {(0, 0, 3): 1, (0, 5, 0): 1, (2, 2, 0): 1},
)
_register(
    "E70", (), "", lambda: True, "z^3 + x^2*y*z + y^4", [{}],
    lambda p: {(0, 0, 3): 1, (2, 1, 1): 1, (0, 4, 0): 1},
)
_register(
    "F", ("k",), "k >= 2", lambda k: k >= 2,
    "y^(2k+3) + x^2*y^(2k) - x*z^2",
    [{"k": 2}, {"k": 3}, {"k": 5}], _terms_f,
)
_register(
    "H-3k-1", ("k",), "k >= 1", lambda k: k >= 1,
    "z^3 + x^3*y + x^2*y^k",
    [{"k": 1}, {"k": 2}, {"k": 4}],
    lambda p: {(0, 0, 3): 1, (3, 1, 0): 1, (2, p["k"], 0): 1},
)
_register(
    "H-3k", ("k",), "k >= 1", lambda k: k >= 1,
    "z^3 + x*y^k*z + x^3*y",
    [{"k": 1}, {"k": 2}, {"k": 4}],
    lambda p: {(0, 0, 3): 1, (1, p["k"], 1): 1, (3, 1, 0): 1},
)
_register(
    "H-3k+1", ("k",), "k >= 1", lambda k: k >= 1,
    "z^3 + x*y^(k+1)*z + x^3*y^2",
    [{"k": 1}, {"k": 2}, {"k": 4}],
    lambda p: {(0, 0, 3): 1, (1, p["k"] + 1, 1): 1, (3, 2, 0): 1},
)
_register(
    "ELLIPTIC-1", (), "", lambda: True, "y^3 + x*z^2 - x^4", [{}],
    lambda p: {(0, 3, 0): 1, (1, 0, 2): 1, (4, 0, 0): -1},
    rtp=False, stated=_elliptic1,
)
_register(
    "ELLIPTIC-2", (), "", lambda: True, "z^2 + y^3 + x^21", [{}],
    lambda p: {(0, 0, 2): 1, (0, 3, 0): 1, (21, 0, 0): 1},
    rtp=False,
    escape_observational=True,
)


def families() -> list[str]:
    return list(_ENTRIES)


def entry(family: str) -> CatalogEntry:
    try:
        return _ENTRIES[family]
    except KeyError:
        known = ", ".join(_ENTRIES)
        raise CatalogError(f"unknown family {family!r}; known: {known}") from None


def _resolve_params(ent: CatalogEntry, params: Mapping[str, int] | None) -> Params:
    if params is None:
        return dict(ent.grid[0])
    for k, v in params.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise CatalogError(
                f"parameter {k!r} of {ent.name} must be an integer, got {v!r}"
            )
    got = dict(params)
    if set(got) != set(ent.parameters):
        raise CatalogError(
            f"family {ent.name} takes parameters {ent.parameters}, got {sorted(got)}"
        )
    if not ent.domain(**got):
        raise CatalogError(
            f"parameters {got} violate the {ent.name} constraint: {ent.constraint}"
        )
    return got


def equation(family: str, params: Mapping[str, int] | None = None) -> Polynomial:
    ent = entry(family)
    return Polynomial.from_dict(ent.builder(_resolve_params(ent, params)))


def default_grid(family: str) -> list[Params]:
    return [dict(g) for g in entry(family).grid]


# ---------------------------------------------------------------------------
# lookups of the stated data


def _stated(family: str, params: Mapping[str, int] | None, what: str) -> _Stated:
    """The stated data of one instance; CatalogError unless it holds ``what``."""
    ent = entry(family)
    rec = ent.stated(_resolve_params(ent, params))
    if getattr(rec, what) is None:
        raise CatalogError(
            f"the {family} entry states no {what.replace('_', ' ')}; "
            f"appendix_fixture() carries the tabulated instances"
        )
    return rec


def stated_maximal_cones(family: str, params: Mapping[str, int] | None = None) -> list[Cone]:
    """The maximal dual-fan cones in their catalog order."""
    return _stated(family, params, "cones").cones


def embedded_valuations(
    family: str, params: Mapping[str, int] | None = None
) -> tuple[Vec, ...]:
    """Exceptional-divisor weight vectors of the stated resolution.

    The closed-form lists omit the coordinate rays, so the extremal rays of
    the stated maximal cones are merged in; the result equals the union of
    the per-cone Hilbert bases.
    """
    return _stated(family, params, "valuations").valuations


def subprofile_hyperplanes(
    family: str, params: Mapping[str, int] | None, cone_index: int
) -> tuple[CatalogHyperplane, ...]:
    """Stated subprofile hyperplanes for one maximal cone.

    For B-odd cone 0 the stated profile pair does not bound the convex hull
    of the generators, so the recomputed hull facets are appended and
    flagged; every other list is served as stated.
    """
    by_cone = _stated(family, params, "subprofiles").subprofiles
    if cone_index not in by_cone:
        raise CatalogError(
            f"{family} states subprofile data for cones {sorted(by_cone)} only, "
            f"not for cone {cone_index}"
        )
    return by_cone[cone_index]


def profile_discrepancy(
    family: str, params: Mapping[str, int] | None = None
) -> dict:
    """B-odd cone 0: the stated profile pair next to the computed hull facets.

    The first stated hyperplane misses every incidence requirement and the
    second cuts off a generator, so profile() ignores both; this report
    records the mismatch instead of guessing an intended expression.
    """
    rec = _stated(family, params, "printed_profile")
    cone = rec.cones[0]
    rows = []
    for f in rec.printed_profile:
        tight = sum(1 for g in cone.generators if f(g) == 0)
        origin = f((0, 0, 0))
        separates = any(
            (f(g) > 0) != (origin > 0) for g in cone.generators if f(g) != 0
        )
        rows.append(
            {
                "hyperplane": facet_equation(f),
                "generators_on": tight,
                "separates_generator": separates,
            }
        )
    recomputed = [facet_equation(f) for f in cone.profile.bounding]
    return {
        "cone_index": 0,
        "stated": rows,
        "recomputed_facets": recomputed,
        "flagged": True,
    }


def determinant_families(
    family: str, params: Mapping[str, int] | None = None
) -> list[dict]:
    """Column-triple families whose determinants certify the refinement.

    Only B-odd carries a stated list; B-even is dispatched without one, so
    asking for it is an error rather than an invented table.
    """
    return _stated(family, params, "determinants").determinants


# ---------------------------------------------------------------------------
# tabulated fixtures


@dataclass(frozen=True)
class FixtureCone:
    label: str
    vertex: Vec
    rays: tuple[Vec, ...]
    hilbert: tuple[Vec, ...]


@dataclass(frozen=True)
class AppendixFixture:
    family: str
    params: Params
    equation: str
    cones: tuple[FixtureCone, ...]


@cache
def _load_fixtures() -> list[AppendixFixture]:
    obj = json.loads(
        resources.files("torfan.data").joinpath("appendix_fixtures.json").read_text()
    )
    if obj.get("version") != 1:
        raise CatalogError(f"unsupported fixture data version {obj.get('version')!r}")
    out = []
    for fx in obj["fixtures"]:
        cones = tuple(
            FixtureCone(
                c["label"],
                tuple(c["vertex"]),
                tuple(tuple(v) for v in c["rays"]),
                tuple(tuple(v) for v in c["hilbert"]),
            )
            for c in fx["cones"]
        )
        out.append(
            AppendixFixture(fx["family"], dict(fx["params"]), fx["equation"], cones)
        )
    return out


def fixture_instances() -> list[tuple[str, Params]]:
    return [(fx.family, dict(fx.params)) for fx in _load_fixtures()]


def appendix_fixture(
    family: str, params: Mapping[str, int] | None = None
) -> AppendixFixture:
    ps = _resolve_params(entry(family), params)
    fx = _fixture(family, ps)
    if fx is not None:
        return fx
    have = [p for f, p in fixture_instances() if f == family]
    if have:
        raise CatalogError(
            f"no fixture for {family} at {ps}; tabulated instances: {have}"
        )
    raise CatalogError(f"family {family} has no tabulated fixture")


def _fixture(family: str, ps: Params) -> AppendixFixture | None:
    for fx in _load_fixtures():
        if fx.family == family and fx.params == ps:
            return fx
    return None


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    family: str
    params: Params
    equation: str
    stages: dict[str, dict]
    cones: list[dict]
    overall: bool

    def to_obj(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "equation": self.equation,
            "stages": self.stages,
            "cones": self.cones,
            "overall": self.overall,
        }


def _check_cone(c: Cone, vertex: Vec, insert: list[Vec], rtp: bool) -> dict:
    h = list(c.hilbert)
    rep = refinement_from_rays(c, insert if insert else h)
    points = profile_lattice_points(c.profile)
    uncovered = sorted(set(points) - set(h))
    escapes = [v for v in h if not contains_point(c.profile, v)]
    return {
        "rays": [list(g) for g in c.generators],
        "vertex": list(vertex),
        "hilbert": h,
        "unimodular": rep.all_unimodular(),
        "covering_ok": rep.covering_ok,
        "face_fitting_ok": rep.face_fitting_ok,
        "all_rays_irreducible": rep.all_rays_irreducible,
        "profile_points": len(points),
        "uncovered": uncovered,
        "covered": not uncovered,
        "coverage_enforced": rtp,
        "escapes": [list(v) for v in escapes],
    }


def verify(
    family: str, params: Mapping[str, int] | None = None
) -> VerificationReport:
    """Run every applicable check on one catalog instance.

    Stages that a family does not state data for are marked skipped; the
    overall flag is the conjunction of the non-skipped stages.
    """
    ent = entry(family)
    ps = _resolve_params(ent, params)
    p = Polynomial.from_dict(ent.builder(ps))
    rec = ent.stated(ps)
    stated, evs = rec.cones, rec.valuations
    stages: dict[str, dict] = {}

    computed = dual_newton_cones(p)
    cone_sets = {frozenset(c.generators) for c, _ in computed}
    if stated is not None:
        stated_sets = {frozenset(c.generators) for c in stated}
        ok = stated_sets == cone_sets
        stages["dual_fan"] = {
            "status": "ok" if ok else "fail",
            "cones": len(computed),
            "matches_stated": ok,
        }
    else:
        stages["dual_fan"] = {"status": "ok", "cones": len(computed)}

    cone_reports = [
        _check_cone(c, vtx, [v for v in evs or () if c.contains(v)], ent.rtp)
        for c, vtx in computed
    ]

    stages["hilbert"] = {
        "status": "ok",
        "sizes": [len(cr["hilbert"]) for cr in cone_reports],
    }

    refinement_ok = all(
        cr["unimodular"]
        and cr["covering_ok"]
        and cr["face_fitting_ok"]
        and cr["all_rays_irreducible"]
        for cr in cone_reports
    )
    stages["refinement"] = {
        "status": "ok" if refinement_ok else "fail",
        "source": "embedded-valuations" if evs is not None else "hilbert-basis",
        "all_unimodular": all(cr["unimodular"] for cr in cone_reports),
        "all_rays_irreducible": all(cr["all_rays_irreducible"] for cr in cone_reports),
    }

    covered = all(cr["covered"] for cr in cone_reports)
    if ent.rtp:
        stages["profile_coverage"] = {
            "status": "ok" if covered else "fail",
            "covered": covered,
        }
    else:
        stages["profile_coverage"] = {
            "status": "ok",
            "observational": True,
            "covered": covered,
            "uncovered": [
                [list(v) for v in cr["uncovered"]] for cr in cone_reports
            ],
        }

    witnesses = sorted({tuple(v) for cr in cone_reports for v in cr["escapes"]})
    if not witnesses:
        stages["profile_containment"] = {"status": "ok", "witnesses": []}
    elif ent.escape_observational:
        stages["profile_containment"] = {
            "status": "ok",
            "observational": True,
            "witnesses": [list(v) for v in witnesses],
        }
    else:
        stages["profile_containment"] = {
            "status": "fail",
            "witnesses": [list(v) for v in witnesses],
        }

    if evs is not None:
        hyps = [rec.subprofiles[i] for i in range(len(stated))]
        failures = []
        for v in evs:
            containing = [i for i, c in enumerate(stated) if c.contains(v)]
            in_profiles = all(contains_point(stated[i].profile, v) for i in containing)
            reaches = any(
                any(h.functional(v) == 0 for h in hyps[i]) for i in containing
            )
            if not (containing and in_profiles and reaches):
                failures.append(
                    {
                        "vector": list(v),
                        "containing": containing,
                        "in_profiles": in_profiles,
                        "reaches": reaches,
                    }
                )
        reports = []
        for i, c in enumerate(stated):
            spec = SubprofileSpec(
                c,
                tuple(h.functional for h in hyps[i]),
                recomputed=any(h.recomputed for h in hyps[i]),
            )
            members = [v for v in evs if c.contains(v)]
            reports.append(subprofile_check(spec, members).to_obj())
        stages["subprofile"] = {
            "status": "ok" if not failures else "fail",
            "vectors": len(evs),
            "failures": failures,
            "per_cone": reports,
        }
    elif rec.subprofiles is not None:
        # without valuations to place, each stated list must be the whole
        # facet list of its cone's profile
        match = all(
            [facet_equation(f) for f in stated[i].profile.bounding]
            == [str(h) for h in hyps]
            for i, hyps in rec.subprofiles.items()
        )
        stages["subprofile"] = {
            "status": "ok" if match else "fail",
            "matches_profile_facet": match,
        }
    else:
        stages["subprofile"] = {"status": "skipped"}

    if evs is not None:
        union_h = {v for cr in cone_reports for v in cr["hilbert"]}
        missing = sorted(set(evs) - union_h)
        extra = sorted(union_h - set(evs))
        stages["valuations"] = {
            "status": "ok" if not missing and not extra else "fail",
            "missing": [list(v) for v in missing],
            "extra": [list(v) for v in extra],
        }
    else:
        stages["valuations"] = {"status": "skipped"}

    if rec.tropical is not None:
        trop = tropical_variety(p)
        trop_sets = {
            frozenset(trop.rays[i] for i in fc.rays) for fc in trop.cones
        }
        # the 2-skeleton of the fan: walls and the rays of two or more cones
        maximal = [c for c, _ in computed]
        skeleton = {
            frozenset(face)
            for face, normals in _facet_incidence(maximal).items()
            if len(normals) == 2
        }
        uses = Counter(g for c in maximal for g in c.generators)
        skeleton.update(frozenset({g}) for g, k in uses.items() if k >= 2)
        # support equality: larger classes absorb their boundary sub-faces,
        # so compare point sets, not the face lists themselves
        trop_cones = [Cone.from_generators(fs) for fs in trop_sets]
        skeleton_covered = all(
            any(all(tc.contains(g) for g in face) for tc in trop_cones)
            for face in skeleton
        )
        inside_skeleton = trop_sets <= skeleton
        groebner_ok = (
            trop_sets == rec.tropical and skeleton_covered and inside_skeleton
        )
        stages["groebner"] = {
            "status": "ok" if groebner_ok else "fail",
            "tropical_cones": len(trop_sets),
            "matches_stated": trop_sets == rec.tropical,
            "matches_skeleton": skeleton_covered and inside_skeleton,
        }
    else:
        stages["groebner"] = {"status": "skipped"}

    fx = _fixture(family, ps)
    if fx is not None:
        by_rays = {
            frozenset(tuple(v) for v in cr["rays"]): cr for cr in cone_reports
        }
        mismatches = []
        for fc in fx.cones:
            cr = by_rays.get(frozenset(fc.rays))
            if cr is None:
                mismatches.append({"label": fc.label, "reason": "cone not found"})
            elif set(cr["hilbert"]) != set(fc.hilbert):
                mismatches.append(
                    {
                        "label": fc.label,
                        "missing": [
                            list(v) for v in sorted(set(fc.hilbert) - set(cr["hilbert"]))
                        ],
                        "extra": [
                            list(v) for v in sorted(set(cr["hilbert"]) - set(fc.hilbert))
                        ],
                    }
                )
        fixture_ok = not mismatches and len(fx.cones) == len(cone_reports)
        stages["fixture"] = {
            "status": "ok" if fixture_ok else "fail",
            "cones": len(fx.cones),
            "mismatches": mismatches,
        }
    else:
        stages["fixture"] = {"status": "skipped"}

    fams = rec.determinants
    if fams is not None:
        bad = [
            {"label": f["label"], "matrix": [list(v) for v in m]}
            for f in fams
            for m in f["matrices"]
            if abs(unimodular_det(*m)) != 1
        ]
        stages["determinants"] = {
            "status": "ok" if not bad else "fail",
            "matrices": sum(len(f["matrices"]) for f in fams),
            "failures": bad,
        }
    elif evs is not None:
        # a stated refinement whose certificates are not on file
        stages["determinants"] = {"status": "skipped", "reason": "not stated"}
    else:
        stages["determinants"] = {"status": "skipped"}

    overall = all(st["status"] != "fail" for st in stages.values())
    public_cones = [
        {k: v for k, v in cr.items() if k != "hilbert"}
        | {"hilbert": [list(v) for v in cr["hilbert"]]}
        for cr in cone_reports
    ]
    return VerificationReport(family, ps, str(p), stages, public_cones, overall)


def verify_grid(family: str) -> list[VerificationReport]:
    return [verify(family, ps) for ps in default_grid(family)]


def groebner_meet(family: str, params: Mapping[str, int] | None = None) -> dict:
    """Observational report: the Groebner cone met by each resolution ray.

    Vectors come from the embedded-valuation list when the family states
    one and from the union of per-cone Hilbert bases otherwise.
    """
    ent = entry(family)
    ps = _resolve_params(ent, params)
    p = Polynomial.from_dict(ent.builder(ps))
    vectors = ent.stated(ps).valuations
    if vectors is not None:
        source = "embedded-valuations"
    else:
        seen: set[Vec] = set()
        for c, _ in dual_newton_cones(p):
            seen.update(c.hilbert)
        vectors = sorted(seen)
        source = "hilbert-basis"
    gf = groebner_fan(p)
    by_support = {g.initial_form.support(): g for g in gf}
    entries = []
    for v in vectors:
        form = initial_form(p, v)
        g = by_support[form.support()]
        entries.append(
            {
                "vector": list(v),
                "initial_form": str(form),
                "cone_dim": g.cone.dim,
                "cone_rays": [list(r) for r in g.cone.generators],
                "monomial": form.is_monomial(),
            }
        )
    return {
        "family": family,
        "params": ps,
        "equation": str(p),
        "source": source,
        "entries": entries,
    }
