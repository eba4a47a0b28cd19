"""Catalog of singularity families with end-to-end verification.

Each registry entry carries its defining equation as a printed template,
its parameter domain, a small default parameter grid and, for the families
that state closed-form data (B-odd, B-even, ELLIPTIC-1), a builder of that
data for one instance: the maximal cones, subprofile hyperplanes, embedded
valuations, tropical cones and determinant certificates.  The template is
the one statement of the equation: an instance's polynomial is the template
with each exponent, ``^(linear form)`` or ``^parameter``, replaced by its
value and parsed; an exponent below 1 is refused with ``CatalogError``.
Tabulated per-cone Hilbert bases for the instances shipped in
``data/appendix_fixtures.json`` sit beside the registry.  ``instance``
resolves a family and its parameters into one record; ``verify`` runs the
whole pipeline on it, one helper per stage.
"""

from __future__ import annotations

import json
import re
from collections import Counter, namedtuple
from functools import cache, cached_property, partial
from typing import Callable, Mapping, NamedTuple

from .cones import Cone, Vec, unimodular_det
from .newton import _facet_incidence, dual_newton_cones
from .polyparse import Polynomial, parse_polynomial
from .profile import (
    AffineFunctional,
    contains_point,
    facet_equation,
    profile_lattice_points,
)
from .refine import refine_fan
from .valuation import tropical_variety


class CatalogError(ValueError):
    """Unknown family, bad parameters, or data the family does not carry."""


Params = dict[str, int]


class CatalogHyperplane(NamedTuple):
    """One subprofile bounding hyperplane; recomputed marks a replacement."""

    functional: AffineFunctional
    recomputed: bool = False

    def __str__(self) -> str:
        return facet_equation(self.functional)


class _Stated(NamedTuple):
    """The closed-form data one family states for one instance, None where
    it states nothing; only B-odd states ``determinants`` and the profile
    pair ``printed_profile`` of cone 0.  ``subprofiles`` is keyed by cone
    index; B-odd cone 0 appends the recomputed hull facets, flagged
    ``recomputed``.  The ``valuations`` lists leave out the coordinate rays,
    so the cones' rays are merged in, and the result equals the union of
    the Hilbert bases.  ``tropical`` holds the ray sets of the tropical
    cones."""

    cones: list[Cone] | None = None
    subprofiles: dict[int, tuple[CatalogHyperplane, ...]] | None = None
    valuations: tuple[Vec, ...] | None = None
    tropical: frozenset[frozenset[Vec]] | None = None
    determinants: list[dict] | None = None
    printed_profile: tuple[AffineFunctional, ...] | None = None


class CatalogEntry(NamedTuple):
    name: str
    parameters: tuple[str, ...]
    constraint: str
    # keyword arguments named after ``parameters``; True inside the domain
    domain: Callable[..., bool]
    # the defining equation, as printed and as instantiated (Instance.poly)
    template: str
    grid: tuple[Params, ...]
    rtp: bool = True
    note: str = ""
    # containment failures (Hilbert elements outside their profile) are
    # recorded without failing the run; no expected witness is on file
    escape_observational: bool = False
    # the closed-form data of one instance, all None where none is stated
    stated: Callable[[Params], _Stated] = lambda p: _Stated()


def _a3_domain(l: int, m: int, k: int) -> bool:
    return l < m < k and (l + k > 2 * m or (l + k) % 2 == 0)


def _a4_domain(l: int, m: int, k: int) -> bool:
    return l < m < k and l + k <= 2 * m and (l + k) % 2 == 1


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
    # the closed-form list leaves out the coordinate rays; see _Stated
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


_ENTRIES: dict[str, CatalogEntry] = {
    e.name: e
    for e in (
        CatalogEntry(
            "A1", ("m",), "m >= 2", lambda m: m >= 2,
            "y^(3m+3) + x*y^(m+1)*z - x*z^2 - z^3",
            ({"m": 2}, {"m": 3}, {"m": 5}),
        ),
        CatalogEntry(
            "A2", ("k", "m"), "1 <= k < m", lambda k, m: 1 <= k < m,
            "y^(2k+m+3) + y^(2k+2)*z + y^(k+1)*z^2 + x*y^(k+1)*z + x*z^2 - z^3",
            ({"k": 1, "m": 2}, {"k": 1, "m": 3}, {"k": 2, "m": 5}),
        ),
        CatalogEntry(
            "A3", ("l", "m", "k"), "l < m < k and (l+k > 2m or l+k even)", _a3_domain,
            "y^(3k) + y^(2k+m+l-2) - 2*y^(l+k)*z - x*y^k*z + y^m*z^2 + x*z^2 - z^3",
            ({"l": 1, "m": 2, "k": 3}, {"l": 1, "m": 2, "k": 5}, {"l": 2, "m": 3, "k": 6}),
        ),
        CatalogEntry(
            "A4", ("l", "m", "k"), "l < m < k, l+k <= 2m, l+k odd", _a4_domain,
            "y^(2k+m) + y^(k+m)*z + y^(l+k)*z + x*y^k*z - y^k*z^2 + y^l*z^2 + x*z^2 - z^3",
            ({"l": 1, "m": 3, "k": 4}, {"l": 1, "m": 4, "k": 6}, {"l": 2, "m": 5, "k": 7}),
        ),
        CatalogEntry(
            "B-odd", ("r", "n"), "r >= 1, n >= 2", lambda r, n: r >= 1 and n >= 2,
            "x^(2n+3)*z - x^r*y^2 - y^2*z",
            ({"r": 1, "n": 2}, {"r": 2, "n": 2}, {"r": 2, "n": 3}, {"r": 3, "n": 4}),
            stated=partial(_b_series, True),
        ),
        CatalogEntry(
            "B-even", ("r", "n"), "r >= 1, n >= 2", lambda r, n: r >= 1 and n >= 2,
            "x^(n+r+2)*y - x^(2n+3)*z + y^2*z",
            ({"r": 1, "n": 2}, {"r": 2, "n": 2}, {"r": 3, "n": 3}),
            stated=partial(_b_series, False),
        ),
        CatalogEntry(
            "C", ("n", "m"), "n >= 3, m >= 2", lambda n, m: n >= 3 and m >= 2,
            "x^(n-1)*y^(2m+2) + y^(2m+4) - x*z^2",
            ({"n": 3, "m": 2}, {"n": 4, "m": 2}, {"n": 5, "m": 3}),
        ),
        CatalogEntry(
            "D", ("n",), "n >= 1", lambda n: n >= 1,
            "x^(2n+2)*y^2 - x^(n+3)*z + y*z^2",
            ({"n": 1}, {"n": 2}, {"n": 4}),
        ),
        CatalogEntry(
            "D-appendix", ("n",), "n >= 1", lambda n: n >= 1,
            "x^(2n+2)*y^2 - x^(n+3)*z + y*z^2",
            ({"n": 1}, {"n": 2}, {"n": 4}),
            note="same defining equation as D; carries the tabulated per-cone bases",
        ),
        CatalogEntry("E60", (), "", lambda: True, "z^3 + y^3*z + x^2*y^2", ({},)),
        CatalogEntry("E07", (), "", lambda: True, "z^3 + y^5 + x^2*y^2", ({},)),
        CatalogEntry("E70", (), "", lambda: True, "z^3 + x^2*y*z + y^4", ({},)),
        CatalogEntry(
            "F", ("k",), "k >= 2", lambda k: k >= 2,
            "y^(2k+3) + x^2*y^(2k) - x*z^2",
            ({"k": 2}, {"k": 3}, {"k": 5}),
        ),
        CatalogEntry(
            "H-3k-1", ("k",), "k >= 1", lambda k: k >= 1,
            "z^3 + x^3*y + x^2*y^k",
            ({"k": 1}, {"k": 2}, {"k": 4}),
        ),
        CatalogEntry(
            "H-3k", ("k",), "k >= 1", lambda k: k >= 1,
            "z^3 + x*y^k*z + x^3*y",
            ({"k": 1}, {"k": 2}, {"k": 4}),
        ),
        CatalogEntry(
            "H-3k+1", ("k",), "k >= 1", lambda k: k >= 1,
            "z^3 + x*y^(k+1)*z + x^3*y^2",
            ({"k": 1}, {"k": 2}, {"k": 4}),
        ),
        CatalogEntry(
            "ELLIPTIC-1", (), "", lambda: True, "y^3 + x*z^2 - x^4", ({},),
            rtp=False, stated=_elliptic1,
        ),
        CatalogEntry(
            "ELLIPTIC-2", (), "", lambda: True, "z^2 + y^3 + x^21", ({},),
            rtp=False, escape_observational=True,
        ),
    )
}


def families() -> list[str]:
    return list(_ENTRIES)


def entry(family: str) -> CatalogEntry:
    try:
        return _ENTRIES[family]
    except KeyError:
        known = ", ".join(_ENTRIES)
        raise CatalogError(f"unknown family {family!r}; known: {known}") from None


# a template exponent: ^(linear form in the parameters) or ^parameter letter;
# integer exponents are left to the polynomial parser
_EXPONENT = re.compile(r"\^(?:\(([^)]*)\)|([a-z]))")
_LINEAR_TERM = re.compile(r"([+-]?)(\d*)([a-z]?)")


class Instance(namedtuple("Instance", "entry params")):
    """One catalog instance with its parameters resolved: ``entry``, a
    ``CatalogEntry``, and ``params``, a ``Params`` dict.  The equation
    ``poly``, the ``stated`` data (see ``_Stated``) and the tabulated
    ``fixture`` or None are each built once, on first use, and kept in the
    instance ``__dict__``."""

    @cached_property
    def poly(self) -> Polynomial:
        return parse_polynomial(_EXPONENT.sub(self._exponent, self.entry.template))

    def _exponent(self, match: re.Match) -> str:
        """The integer value of one template exponent, ``^(linear form)`` or
        ``^letter``; CatalogError below 1, where the template stops being
        the family's equation."""
        value = 0
        for sign, coeff, name in _LINEAR_TERM.findall(match[1] or match[2]):
            if coeff or name:
                term = int(coeff or 1) * (self.params[name] if name else 1)
                value += -term if sign == "-" else term
        if value < 1:
            raise CatalogError(
                f"exponent {match[0][1:]} of {self.entry.name} at {self.params} "
                f"is {value}; every template exponent must be at least 1"
            )
        return f"^{value}"

    @cached_property
    def stated(self) -> _Stated:
        return self.entry.stated(self.params)

    @cached_property
    def fixture(self) -> AppendixFixture | None:
        key = (self.entry.name, self.params)
        return next((fx for fx in _load_fixtures() if (fx.family, fx.params) == key), None)


def instance(family: str, params: Mapping[str, int] | None = None) -> Instance:
    """Resolve one instance; params=None means the first grid tuple.

    Raises CatalogError on an unknown family, a non-integer parameter, the
    wrong parameter names, or values outside the family's domain.
    """
    ent = entry(family)
    got = dict(ent.grid[0] if params is None else params)
    for k, v in got.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise CatalogError(
                f"parameter {k!r} of {ent.name} must be an integer, got {v!r}"
            )
    if set(got) != set(ent.parameters):
        raise CatalogError(
            f"family {ent.name} takes parameters {ent.parameters}, got {sorted(got)}"
        )
    if not ent.domain(**got):
        raise CatalogError(
            f"parameters {got} violate the {ent.name} constraint: {ent.constraint}"
        )
    return Instance(ent, got)


def default_grid(family: str) -> list[Params]:
    return [dict(g) for g in entry(family).grid]


def profile_discrepancy(
    family: str, params: Mapping[str, int] | None = None
) -> dict:
    """B-odd cone 0: the stated profile pair next to the computed hull facets.

    The first stated hyperplane misses every incidence requirement and the
    second cuts off a generator, so profile() ignores both; this report
    records the mismatch instead of guessing an intended expression.
    """
    rec = instance(family, params).stated
    if rec.printed_profile is None:
        raise CatalogError(f"the {family} entry states no printed profile")
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


# ---------------------------------------------------------------------------
# tabulated fixtures


class FixtureCone(NamedTuple):
    label: str
    vertex: Vec
    rays: tuple[Vec, ...]
    hilbert: tuple[Vec, ...]


class AppendixFixture(NamedTuple):
    family: str
    params: Params
    equation: str
    cones: tuple[FixtureCone, ...]


@cache
def _load_fixtures() -> list[AppendixFixture]:
    from importlib import resources  # pulls in tempfile and shutil; load it on use

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


# ---------------------------------------------------------------------------
# verification


class VerificationReport(NamedTuple):
    family: str
    params: Params
    equation: str
    stages: dict[str, dict]
    cones: list[dict]
    overall: bool

    def to_obj(self) -> dict:
        """The report as a new dict of plain data, sharing nothing mutable
        with the report."""
        from copy import deepcopy  # only reports pay for importing copy

        return deepcopy(self._asdict())


def _lists(vs) -> list[list[int]]:
    return [list(v) for v in vs]


def _status(ok: bool, **fields) -> dict:
    return {"status": "ok" if ok else "fail", **fields}


def _missing_extra(expected, found) -> dict:
    """The vectors of ``expected`` not found and those found not expected."""
    e, f = set(expected), set(found)
    return {"missing": _lists(sorted(e - f)), "extra": _lists(sorted(f - e))}


def _cone_row(c: Cone, vertex: Vec, insert: list[Vec], rtp: bool) -> dict:
    """The report row of one dual cone, refined at ``insert`` or its Hilbert basis."""
    h = c.hilbert.elements
    rep = refine_fan([c], insert or h)
    points = profile_lattice_points(c.profile)
    uncovered = sorted(set(points) - set(h))
    return {
        "rays": _lists(c.generators),
        "vertex": list(vertex),
        "unimodular": rep.all_unimodular(),
        "covering_ok": rep.covering_ok,
        "face_fitting_ok": rep.face_fitting_ok,
        "all_rays_irreducible": rep.all_rays_irreducible,
        "profile_points": len(points),
        "uncovered": _lists(uncovered),
        "covered": not uncovered,
        "coverage_enforced": rtp,
        "escapes": [list(v) for v in h if not contains_point(c.profile, v)],
        "hilbert": _lists(h),
    }


def _dual_fan_stage(cones: list[Cone], stated: list[Cone] | None) -> dict:
    if stated is None:
        return _status(True, cones=len(cones))
    ok = {frozenset(c.generators) for c in stated} == {
        frozenset(c.generators) for c in cones
    }
    return _status(ok, cones=len(cones), matches_stated=ok)


def _refinement_stage(rows: list[dict], stated_rays: bool) -> dict:
    unimodular = all(r["unimodular"] for r in rows)
    irreducible = all(r["all_rays_irreducible"] for r in rows)
    tiled = all(r["covering_ok"] and r["face_fitting_ok"] for r in rows)
    return _status(
        unimodular and irreducible and tiled,
        source="embedded-valuations" if stated_rays else "hilbert-basis",
        all_unimodular=unimodular,
        all_rays_irreducible=irreducible,
    )


def _coverage_stage(rows: list[dict], rtp: bool) -> dict:
    covered = all(r["covered"] for r in rows)
    if rtp:
        return _status(covered, covered=covered)
    uncovered = [r["uncovered"] for r in rows]
    return _status(True, observational=True, covered=covered, uncovered=uncovered)


def _containment_stage(rows: list[dict], observational: bool) -> dict:
    witnesses = sorted({tuple(v) for r in rows for v in r["escapes"]})
    flag = {"observational": True} if witnesses and observational else {}
    return _status(
        not witnesses or observational, **flag, witnesses=_lists(witnesses)
    )


def _subprofile_stage(rec: _Stated) -> dict:
    if rec.subprofiles is None:
        return {"status": "skipped"}
    if rec.valuations is None:
        # without valuations to place, each stated list must be the whole
        # facet list of its cone's profile
        match = all(
            [facet_equation(f) for f in rec.cones[i].profile.bounding]
            == [str(h) for h in hyps]
            for i, hyps in rec.subprofiles.items()
        )
        return _status(match, matches_profile_facet=match)
    evs, cones = rec.valuations, rec.cones
    containing = {v: [i for i, c in enumerate(cones) if c.contains(v)] for v in evs}
    per_cone = []
    # a valuation reaches when it meets a stated hyperplane of a cone holding it
    reached = set()
    for i in range(len(cones)):
        hyps = rec.subprofiles[i]
        rows = []
        for v in (v for v in evs if i in containing[v]):
            values = [h.functional(v) for h in hyps]
            reaches = [k for k, val in enumerate(values) if val == 0]
            if reaches:
                reached.add(v)
            # within the cone, the subprofile is the union of the sides of
            # the hyperplanes that hold the origin: f(v) * f(0) >= 0
            in_region = any(val * h.functional.constant >= 0 for h, val in zip(hyps, values))
            rows.append({"vector": list(v), "reaches": reaches, "in_region": in_region})
        per_cone.append({
            "hyperplanes": [str(h.functional) for h in hyps],
            "recomputed": any(h.recomputed for h in hyps),
            "vectors": rows,
            "all_reach": all(row["reaches"] for row in rows),
        })
    failures = []
    for v, where in containing.items():
        in_profiles = all(contains_point(cones[i].profile, v) for i in where)
        if not (where and in_profiles and v in reached):
            failures.append(
                {
                    "vector": list(v),
                    "containing": where,
                    "in_profiles": in_profiles,
                    "reaches": v in reached,
                }
            )
    return _status(
        not failures,
        vectors=len(evs),
        failures=failures,
        per_cone=per_cone,
    )


def _valuations_stage(cones: list[Cone], valuations) -> dict:
    if valuations is None:
        return {"status": "skipped"}
    diff = _missing_extra(valuations, {v for c in cones for v in c.hilbert})
    return _status(not any(diff.values()), **diff)


def _groebner_stage(p: Polynomial, cones: list[Cone], tropical) -> dict:
    if tropical is None:
        return {"status": "skipped"}
    trop = tropical_variety(p)
    trop_sets = {frozenset(trop.rays[i] for i in fc.rays) for fc in trop.cones}
    # the 2-skeleton of the fan: walls and the rays of two or more cones
    skeleton = {
        frozenset(face)
        for face, normals in _facet_incidence(cones).items()
        if len(normals) == 2
    }
    uses = Counter(g for c in cones for g in c.generators)
    skeleton.update(frozenset({g}) for g, k in uses.items() if k >= 2)
    # support equality: larger classes absorb their boundary sub-faces,
    # so compare point sets, not the face lists themselves
    trop_cones = [Cone.from_generators(fs) for fs in trop_sets]
    on_skeleton = trop_sets <= skeleton and all(
        any(all(tc.contains(g) for g in face) for tc in trop_cones)
        for face in skeleton
    )
    matches = trop_sets == tropical
    return _status(
        matches and on_skeleton,
        tropical_cones=len(trop_sets),
        matches_stated=matches,
        matches_skeleton=on_skeleton,
    )


def _fixture_stage(cones: list[Cone], fx: AppendixFixture | None) -> dict:
    if fx is None:
        return {"status": "skipped"}
    by_rays = {frozenset(c.generators): c for c in cones}
    mismatches = []
    for fc in fx.cones:
        c = by_rays.get(frozenset(fc.rays))
        if c is None:
            mismatches.append({"label": fc.label, "reason": "cone not found"})
            continue
        diff = _missing_extra(fc.hilbert, c.hilbert)
        if any(diff.values()):
            mismatches.append({"label": fc.label, **diff})
    return _status(
        not mismatches and len(fx.cones) == len(cones),
        cones=len(fx.cones),
        mismatches=mismatches,
    )


def _determinants_stage(rec: _Stated) -> dict:
    if rec.determinants is None:
        # a stated refinement whose certificates are not on file says so
        reason = {} if rec.valuations is None else {"reason": "not stated"}
        return {"status": "skipped", **reason}
    fams = rec.determinants
    bad = [
        {"label": f["label"], "matrix": _lists(m)}
        for f in fams
        for m in f["matrices"]
        if abs(unimodular_det(*m)) != 1
    ]
    return _status(
        not bad, matrices=sum(len(f["matrices"]) for f in fams), failures=bad
    )


def verify(
    family: str, params: Mapping[str, int] | None = None
) -> VerificationReport:
    """Run every applicable check on one catalog instance.

    Stages that a family does not state data for are marked skipped; the
    overall flag is the conjunction of the non-skipped stages.
    """
    inst = instance(family, params)
    ent, rec = inst.entry, inst.stated
    computed = dual_newton_cones(inst.poly)
    cones = [c for c, _ in computed]
    rows = [
        _cone_row(c, vtx, [v for v in rec.valuations or () if c.contains(v)], ent.rtp)
        for c, vtx in computed
    ]
    stages = {
        "dual_fan": _dual_fan_stage(cones, rec.cones),
        "hilbert": _status(True, sizes=[len(c.hilbert) for c in cones]),
        "refinement": _refinement_stage(rows, rec.valuations is not None),
        "profile_coverage": _coverage_stage(rows, ent.rtp),
        "profile_containment": _containment_stage(rows, ent.escape_observational),
        "subprofile": _subprofile_stage(rec),
        "valuations": _valuations_stage(cones, rec.valuations),
        "groebner": _groebner_stage(inst.poly, cones, rec.tropical),
        "fixture": _fixture_stage(cones, inst.fixture),
        "determinants": _determinants_stage(rec),
    }
    overall = all(st["status"] != "fail" for st in stages.values())
    return VerificationReport(family, inst.params, str(inst.poly), stages, rows, overall)
