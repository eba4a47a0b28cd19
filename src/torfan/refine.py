"""Regular (unimodular) refinements of cones and fans, with certificates.

Refinements are built by pulling subdivisions: inserting a ray v replaces
every piece containing v by the cones joining v to the piece facets that
avoid it.  On simplicial pieces this is stellar subdivision; a
non-simplicial cone is handled directly, without choosing a starting
triangulation first.  That matters: a forced starting diagonal can be an
edge that no unimodular subdivision through the prescribed rays contains,
which would make regularity unreachable no matter the insertion order.
Every report carries exact certificates (per-piece determinants), a
volume-conservation check, and a face-pairing check, so regularity never
rests on the construction being correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .cones import (
    Cone,
    Vec,
    cross,
    dot,
    primitive,
    triangulate,
    unimodular_det,
)
from .newton import Fan, octant_solid_volume
from .profile import l_functional, profile


def stellar_insert(pieces: Sequence[Cone], v: Vec) -> tuple[list[Cone], bool]:
    """Subdivide every piece containing v; True if anything changed.

    Each affected piece is replaced by the join of v with each of its
    facets not containing v.  Pieces may be non-simplicial; the
    replacements never are.
    """
    out: list[Cone] = []
    changed = False
    for p in pieces:
        if v in p.generators or not p.contains(v):
            out.append(p)
            continue
        for n, (i, j) in zip(p.facet_normals, p.facets):
            if dot(n, v) > 0:
                out.append(
                    Cone.from_generators((v, p.generators[i], p.generators[j]))
                )
        changed = True
    return out, changed


def _piece_certificate(p: Cone) -> int:
    """Lattice index of the piece: 1 exactly when it is regular."""
    if p.dim == 3:
        return abs(unimodular_det(*p.generators))
    if p.dim == 2:
        m = cross(*p.generators)
        return gcd(gcd(abs(m[0]), abs(m[1])), abs(m[2]))
    return 1


def _det_snapshot(pieces: Sequence[Cone]) -> tuple[int, ...]:
    return tuple(sorted((_piece_certificate(p) for p in pieces), reverse=True))


def _snapshot(history: list[tuple[int, ...]], pieces: Sequence[Cone]) -> None:
    """Record the determinants once every piece is simplicial."""
    if all(p.is_simplicial() for p in pieces):
        history.append(_det_snapshot(pieces))


def _certified_fan(
    pieces: Sequence[Cone],
) -> tuple[Fan, tuple[tuple[tuple[int, ...], int], ...]]:
    """The fan of the pieces and, per piece in generator order, its ray
    indices in that fan with its lattice index."""
    pieces = sorted(pieces, key=lambda p: p.generators)
    fan = Fan.from_cones(pieces)
    index = {r: i for i, r in enumerate(fan.rays)}
    return fan, tuple(
        (tuple(sorted(index[g] for g in p.generators)), _piece_certificate(p))
        for p in pieces
    )


def _gauge_level(c: Cone) -> Callable[[Vec], Fraction]:
    """Height of a point against the profile hull: 1 exactly on the hull.

    Agrees with the l-functional on simplicial cones and is defined without
    reference to any triangulation otherwise.
    """
    forms = [b.integer_form for b in profile(c).bounding]
    def level(v: Vec) -> Fraction:
        return max(
            Fraction(a * v[0] + b * v[1] + e * v[2], -d) for a, b, e, d, _ in forms
        )
    return level


def _boundary_face_points(c: Cone, candidates: Iterable[Vec]) -> list[Vec]:
    """Candidate rays lying on 2-dimensional boundary faces of c."""
    out = []
    for i, j in c.facets:
        face = Cone.from_generators([c.generators[i], c.generators[j]])
        for h in candidates:
            if h not in face.generators and face.contains(h):
                out.append(h)
    return sorted(set(out))


@dataclass(frozen=True)
class RefinementReport:
    source: tuple[Cone, ...]
    result: Fan
    certificates: tuple[tuple[tuple[int, ...], int], ...]
    covering_ok: bool
    face_fitting_ok: bool
    all_rays_irreducible: bool
    new_rays: tuple[Vec, ...]
    det_history: tuple[tuple[int, ...], ...] = ()
    used_fallback: bool = False

    def all_unimodular(self) -> bool:
        return all(det == 1 for _, det in self.certificates)

    def to_obj(self) -> dict:
        return {
            "rays": [list(r) for r in self.result.rays],
            "certificates": [
                {"cone": list(idx), "det": det} for idx, det in self.certificates
            ],
            "covering_ok": self.covering_ok,
            "face_fitting_ok": self.face_fitting_ok,
            "all_rays_irreducible": self.all_rays_irreducible,
            "new_rays": [list(r) for r in self.new_rays],
            "regular": self.all_unimodular(),
        }


@dataclass(frozen=True)
class MinimalityReport:
    entries: tuple[tuple[Vec, bool], ...]
    all_irreducible: bool
    curve_check: str = "not checked"


def _face_pairing_ok(
    pieces: Sequence[Cone], sources: Sequence[Cone], source_volume: Fraction
) -> bool:
    """Every interior 2-face shared by exactly two pieces, the rest on the
    boundary; ``source_volume`` is the octant solid volume of the sources."""
    counts: dict[tuple[Vec, Vec], int] = {}
    for p in pieces:
        for i, j in p.facets:
            key = tuple(sorted((p.generators[i], p.generators[j])))
            counts[key] = counts.get(key, 0) + 1
    complete = source_volume == Fraction(1, 6)
    for (a, b), count in counts.items():
        if count == 2:
            continue
        if count > 2:
            return False
        if complete:
            if not any(a[i] == 0 and b[i] == 0 for i in range(3)):
                return False
        elif not any(
            any(dot(n, a) == 0 and dot(n, b) == 0 for n in s.facet_normals)
            for s in sources
        ):
            return False
    return True


def _build_report(
    sources: Sequence[Cone],
    pieces: Sequence[Cone],
    det_history: Sequence[tuple[int, ...]],
    used_fallback: bool,
) -> RefinementReport:
    fan, certificates = _certified_fan(pieces)
    volume = octant_solid_volume(sources)
    covering_ok = volume == octant_solid_volume(pieces)
    face_ok = _face_pairing_ok(pieces, sources, volume)
    source_rays = {g for s in sources for g in s.generators}
    irreducible = all(
        ray in s.hilbert.elements
        for ray in fan.rays
        for s in sources
        if s.contains(ray)
    )
    new_rays = tuple(sorted(set(fan.rays) - source_rays))
    return RefinementReport(
        tuple(sources),
        fan,
        certificates,
        covering_ok,
        face_ok,
        irreducible,
        new_rays,
        tuple(det_history),
        used_fallback,
    )


def _low_dim_refinement(c: Cone, inserted: Sequence[Vec]) -> RefinementReport:
    """Chain refinement of a ray or planar cone; covering and fitting hold
    by construction (consecutive pieces share exactly their common ray)."""
    if c.dim == 1 or not inserted:
        pieces = [c]
    else:
        a, b = c.generators
        n = c.plane_normal
        def along(p: Vec) -> Fraction:
            toward_b = dot(cross(a, p), n)
            toward_a = dot(cross(p, b), n)
            return Fraction(toward_b, toward_a + toward_b)
        chain = [a, *sorted(inserted, key=along), b]
        pieces = [Cone.from_generators(pair) for pair in zip(chain, chain[1:])]
    fan, certificates = _certified_fan(pieces)
    irreducible = all(ray in c.hilbert.elements for ray in fan.rays)
    new_rays = tuple(sorted(set(fan.rays) - set(c.generators)))
    return RefinementReport(
        (c,), fan, certificates, True, True, irreducible, new_rays,
        (_det_snapshot(pieces),), False,
    )


def regular_refinement(c: Cone) -> RefinementReport:
    """Subdivide into unimodular pieces using Hilbert-basis rays only.

    Boundary 2-faces are refined first (so adjacent cones subdivide
    identically), then the lexicographically first non-regular piece is
    split at the Hilbert element of least l-value until none remain.
    """
    basis = c.hilbert.elements
    if c.dim != 3:
        return _low_dim_refinement(c, [h for h in basis if h not in c.generators])
    level = _gauge_level(c)
    pieces: list[Cone] = [c]
    history: list[tuple[int, ...]] = []
    used_fallback = False
    _snapshot(history, pieces)
    boundary = _boundary_face_points(c, basis)
    for v in sorted(boundary, key=lambda v: (level(v), v)):
        pieces, changed = stellar_insert(pieces, v)
        if changed:
            _snapshot(history, pieces)

    # A cone whose Hilbert basis meets no boundary 2-face can still be
    # non-simplicial here; split at interior basis elements, or fan out.
    while any(not p.is_simplicial() for p in pieces):
        tau = min(
            (p for p in pieces if not p.is_simplicial()),
            key=lambda p: p.generators,
        )
        pool = [h for h in basis if h not in tau.generators and tau.contains(h)]
        if pool:
            pieces, changed = stellar_insert(
                pieces, min(pool, key=lambda h: (level(h), h))
            )
            assert changed
        else:
            pieces = [q for p in pieces for q in
                      (triangulate(p) if p is tau else (p,))]
        _snapshot(history, pieces)

    while True:
        worst = [p for p in pieces if abs(unimodular_det(*p.generators)) != 1]
        if not worst:
            break
        tau = min(worst, key=lambda p: p.generators)
        pool = [h for h in basis if h not in tau.generators and tau.contains(h)]
        if not pool:
            pool = [h for h in tau.hilbert.elements if h not in tau.generators]
            used_fallback = True
        l = l_functional(tau)
        chosen = min(pool, key=lambda h: (l(h), h))
        pieces, changed = stellar_insert(pieces, chosen)
        assert changed
        history.append(_det_snapshot(pieces))
    return _build_report([c], pieces, history, used_fallback)


def refinement_from_rays(c: Cone, rays: Sequence[Vec]) -> RefinementReport:
    """Triangulate c using exactly its extremal rays plus the given rays.

    Rays are inserted by increasing (level, lexicographic) order, level
    being the height against the profile hull; a prescribed ray equal to
    an extremal ray is a no-op.
    """
    cleaned: list[Vec] = []
    for r in rays:
        v = (int(r[0]), int(r[1]), int(r[2]))
        if primitive(v) != v:
            raise ValueError(f"prescribed ray {v} is not primitive")
        if not c.contains(v):
            raise ValueError(f"prescribed ray {v} lies outside the cone")
        if v in cleaned:
            raise ValueError(f"duplicate prescribed ray {v}")
        cleaned.append(v)
    if c.dim != 3:
        return _low_dim_refinement(c, [v for v in cleaned if v not in c.generators])

    level = _gauge_level(c)
    pieces: list[Cone] = [c]
    history: list[tuple[int, ...]] = []
    _snapshot(history, pieces)
    to_insert = [v for v in cleaned if v not in c.generators]
    for v in sorted(to_insert, key=lambda v: (level(v), v)):
        pieces, changed = stellar_insert(pieces, v)
        if changed:
            _snapshot(history, pieces)
    # no prescribed ray may have landed inside a non-simplicial piece
    if any(not p.is_simplicial() for p in pieces):
        pieces = [q for p in pieces for q in triangulate(p)]
        _snapshot(history, pieces)
    return _build_report([c], pieces, history, False)


def refine_fan(
    cones: Sequence[Cone], rays: Sequence[Vec] | None = None
) -> RefinementReport:
    """Refine every maximal cone of a fan; rays=None means Hilbert-driven."""
    all_pieces: list[Cone] = []
    history: list[tuple[int, ...]] = []
    used_fallback = False
    for c in cones:
        if rays is None:
            report = regular_refinement(c)
        else:
            report = refinement_from_rays(c, [r for r in rays if c.contains(r)])
        all_pieces.extend(report.result.cone_objects())
        history.extend(report.det_history)
        used_fallback = used_fallback or report.used_fallback
    return _build_report(cones, all_pieces, history, used_fallback)


def refinement_rays(f: Fan) -> set[Vec]:
    """All rays used by the fan's cones."""
    return {f.rays[i] for fc in f.cones for i in fc.rays}


def check_minimal_embedded(r: RefinementReport) -> MinimalityReport:
    """Irreducibility of every result ray in every source cone containing it.

    Covers only the vector half of minimality; the -1-curve half of the
    criterion is reported as "not checked".
    """
    if not r.all_unimodular():
        raise ValueError("minimality check expects a regular refinement")
    entries = []
    for ray in r.result.rays:
        flags = [ray in s.hilbert.elements for s in r.source if s.contains(ray)]
        entries.append((ray, bool(flags) and all(flags)))
    return MinimalityReport(tuple(entries), all(ok for _, ok in entries))
