"""Regular (unimodular) refinements of cones and fans, with certificates.

Refinements are built by one pulling step, ``Cone.pulled``: inserting a
ray v replaces every piece containing v by the cones joining v to the
piece facets that miss it.  On simplicial pieces this is stellar
subdivision; planar chains are pulled like 3-dimensional pieces, and a
non-simplicial cone is handled directly, without choosing a starting
triangulation first.  That matters: a forced starting diagonal can be an
edge that no unimodular subdivision through the prescribed rays contains,
which would make regularity unreachable no matter the insertion order.
Insertion is local: a ray is only tested against pieces that can hold it.
One insertion loop (``_ray_pieces``) serves both refinements: rays go in
by increasing profile level down a tree, each piece pulled at the first
ray it holds and its children handed the later rays they hold, and a
non-simplicial cone that no ray fell inside is pulled at a Hilbert
element inside it, or triangulated.  The Hilbert-driven refinement then
splits each non-regular piece at the source-basis element of least value
of that piece's l-functional; a piece that holds none is split at its
nonzero half-open point of least l, which is its least-l Hilbert element
that is not a generator, so only the source cone's Hilbert basis is ever
computed.  Each split pulls only the star of the new ray, found through
the facets of the non-regular pieces (``_hilbert_pieces``).
Every report carries exact certificates (per-piece multiplicities), the
irreducibility of each result ray, and the tiling certificate of
``newton._tiling_certificate`` against the source cones, in every
dimension: the pieces have the sources' volume in their span, and each
piece facet is shared with one piece on its other side or lies on the
sources' outer boundary.  Together these prove that the pieces tile the
sources face to face, so regularity never rests on the construction being
correct.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .cones import (
    Cone,
    Vec,
    _half_open_points,
    _integer_vector,
    _primitive,
    cross,
    dot,
    triangulate,
    vadd,
)
from .newton import Fan, _tiling_certificate


@dataclass(frozen=True)
class RefinementReport:
    """``certificates``: each piece's ray indices in ``result`` with its
    multiplicity.  ``irreducible``: each result ray with whether it lies in
    some source and in the Hilbert basis of every source that contains it."""

    source: tuple[Cone, ...]
    result: Fan
    certificates: tuple[tuple[tuple[int, ...], int], ...]
    covering_ok: bool
    face_fitting_ok: bool
    irreducible: tuple[tuple[Vec, bool], ...]
    new_rays: tuple[Vec, ...]
    used_fallback: bool = False

    @property
    def all_rays_irreducible(self) -> bool:
        return all(ok for _, ok in self.irreducible)

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


def _build_report(
    sources: Sequence[Cone],
    pieces: Sequence[Cone],
    used_fallback: bool,
) -> RefinementReport:
    # generators are sorted and fan ray indices follow the ray order, so the
    # fan lists its cones in the order of the pieces sorted by generators
    pieces = sorted(pieces, key=lambda p: p.generators)
    fan = Fan.from_cones(pieces)
    tiling = _tiling_certificate(pieces, sources)
    bases = [(s, set(s.hilbert.elements)) for s in sources]
    irreducible = []
    for ray in fan.rays:
        flags = [ray in basis for s, basis in bases if s.contains(ray)]
        irreducible.append((ray, bool(flags) and all(flags)))
    source_rays = {g for s in sources for g in s.generators}
    return RefinementReport(
        tuple(sources),
        fan,
        tuple((fc.rays, p.multiplicity) for fc, p in zip(fan.cones, pieces)),
        tiling["covering_ok"],
        tiling["face_fitting_ok"],
        tuple(irreducible),
        tuple(sorted(set(fan.rays) - source_rays)),
        used_fallback,
    )


def _ray_pieces(c: Cone, rays: Iterable[Vec], pool: Sequence[Vec] = ()) -> list[Cone]:
    """Pieces of c with the primitive rays of ``rays`` inserted by
    increasing (profile level, lexicographic) order; raises ValueError on
    the zero vector.  Inserting a ray pulls each piece that holds it off its
    generators and acts on each piece on its own, so a piece is pulled at
    the first ray it holds and each child inherits the later rays it holds.
    If c holds none, a non-simplicial c is pulled at its least-level pool
    element, or triangulated when the pool has none inside it."""
    level = c.profile.level
    order = [_primitive(v) for v in sorted(rays, key=lambda v: (level(v), v))]
    held = [v for v in order if v not in c.generators and c.contains(v)]
    if not held and not c.is_simplicial():
        inside = [h for h in pool if h not in c.generators and c.contains(h)]
        if inside:
            return list(c.pulled(min(inside, key=lambda h: (level(h), h))))
        return list(triangulate(c))
    out: list[Cone] = []
    stack = [(c, held)]
    while stack:
        p, todo = stack.pop()
        if not todo:
            out.append(p)
            continue
        v, *later = todo
        for child in reversed(p.pulled(v)):
            stack.append((child, [w for w in later if w != v and child.contains(w)]))
    return out


def _least_half_open_point(tau: Cone) -> Vec:
    """The (l, h)-least Hilbert element of a non-regular simplicial tau that
    is not a generator: its nonzero half-open point of least
    (q1 + q2 + q3, u).

    With D the multiplicity, a half-open point u has l(u) = (q1 + q2 + q3)/D,
    q3 = 0 for a planar tau.  A nonzero non-generator lattice point of tau is
    u + sum n_i g_i: either u != 0 and l >= m, the least l of a nonzero
    half-open point, or sum n_i >= 2 and l >= 2.  The map q_i -> D - q_i
    (q_i != 0) pairs nonzero half-open points with l(u) + l(u*) <= 3, so
    m <= 3/2.  A point at level m that splits as a + b would need
    m >= 2*min(m, 1), impossible for 0 < m < 2.  So the non-generator
    Hilbert elements at level m are exactly the nonzero half-open points
    there, and none lies lower.
    """
    return min((sum(q), u) for u, q in _half_open_points(tau)[1] if any(q))[1]


def _hilbert_pieces(c: Cone) -> tuple[list[Cone], bool]:
    """Unimodular pieces of c split at Hilbert-basis rays, and whether the
    fallback ran: a piece holding no element of c's basis is split at
    ``_least_half_open_point``, so no piece gets a Hilbert basis of its own.

    Only the non-regular pieces are kept, in a table by generators, each
    with its pool: the elements of c's basis inside it, off its rays.  A map
    from each facet (``Cone.facets``) to the table pieces that own it is the
    adjacency.  Each step splits tau, the least piece of the table, at a
    point v off its rays, so v lies inside tau or inside one facet of it,
    and the pieces that hold v are tau and the other owner of that facet in
    the subdivision, if it has one.  That neighbour is never unimodular, so
    the map finds it.  A unimodular piece's lattice points are sums of its
    rays, so an element of c's basis inside it is one of its rays, and v is
    none of them.  A fallback v is irreducible in tau, but a lattice point
    inside a facet (a, b) of a unimodular piece is a + (a nonzero sum of a
    and b).  Pulled pieces' children that are unimodular are done; the
    others inherit their parent's pool, filtered by containment.
    """
    basis = c.hilbert.elements
    done: list[Cone] = []
    table: dict[tuple[Vec, ...], tuple[Cone, list[Vec]]] = {}
    owners: dict[tuple[Vec, ...], list[tuple[Vec, ...]]] = {}

    def place(p: Cone, pool: Sequence[Vec]) -> None:
        if p.multiplicity == 1:
            done.append(p)
            return
        table[p.generators] = (p, [h for h in pool if h not in p.generators and p.contains(h)])
        for f in p.facets:
            owners.setdefault(f, []).append(p.generators)

    # Every basis element lies in c, so it lies on the 2-face of a facet
    # exactly when that facet's normal vanishes on it.  A cone whose basis
    # meets no boundary 2-face is split at an interior element, or fanned.
    for p in _ray_pieces(c, [
        h for h in basis
        if h not in c.generators and any(dot(n, h) == 0 for n in c.facet_normals)
    ], basis):
        place(p, basis)
    used_fallback = False
    while table:
        key = min(table)
        tau, pool = table[key]
        if pool:
            l = _l_numerator(tau)
            chosen = min(pool, key=lambda h: (dot(l, h), h))
        else:
            chosen = _least_half_open_point(tau)
            used_fallback = True
        star = [key] + [
            k
            for n, f in zip(tau.facet_normals, tau.facets)
            if dot(n, chosen) == 0
            for k in owners[f]
            if k != key
        ]
        for k in star:
            p, pool = table.pop(k)
            for f in p.facets:
                owners[f].remove(k)
            children = p.pulled(chosen)
            if len(children) < 2:
                raise RuntimeError(f"inserting {chosen} left {p} unsplit")
            for child in children:
                place(child, pool)
    return done, used_fallback


def _l_numerator(tau: Cone) -> Vec:
    """The integer vector u with l(h) = u.h / q, q > 0 fixed per tau, for the
    l-functional of a simplicial tau of dimension 2 or 3: the adjugate rows'
    sum b x g + g x a + a x b turned by the sign of det(a, b, g), over |det|,
    or for a planar (a, b) with n = a x b, (b x n + n x a) over n.n."""
    if tau.dim == 3:
        a, b, g = tau.generators
        bg = cross(b, g)
        u = vadd(vadd(bg, cross(g, a)), cross(a, b))
        return u if dot(a, bg) > 0 else (-u[0], -u[1], -u[2])
    a, b = tau.generators
    n = cross(a, b)
    return vadd(cross(b, n), cross(n, a))


def _checked_rays(c: Cone, rays: Sequence[Vec]) -> list[Vec]:
    """The prescribed integer rays that are not generators of c; each must
    be primitive, lie in c and be listed once."""
    seen: set[Vec] = set()
    for v in rays:
        if _primitive(v) != v:
            raise ValueError(f"prescribed ray {v} is not primitive")
        if not c.contains(v):
            raise ValueError(f"prescribed ray {v} lies outside the cone")
        if v in seen:
            raise ValueError(f"duplicate prescribed ray {v}")
        seen.add(v)
    return [v for v in rays if v not in c.generators]


def regular_refinement(c: Cone) -> RefinementReport:
    """Subdivide into unimodular pieces using Hilbert-basis rays only.

    Boundary 2-faces are refined first (so adjacent cones subdivide
    identically), then the lexicographically first non-regular piece is
    split at the element of the cone's Hilbert basis of least l-value, or
    at its own least-l Hilbert element that is not a generator when it
    holds none, until none remain.
    """
    return _build_report([c], *_hilbert_pieces(c))


def refinement_from_rays(c: Cone, rays: Sequence[Vec]) -> RefinementReport:
    """Triangulate c using exactly its extremal rays plus the given rays.

    Rays are inserted by increasing (level, lexicographic) order, level
    being the height against the profile hull; a prescribed ray equal to
    an extremal ray is a no-op.
    """
    rays = [_integer_vector(r, "prescribed ray") for r in rays]
    return _build_report([c], _ray_pieces(c, _checked_rays(c, rays)), False)


def refine_fan(
    cones: Sequence[Cone], rays: Sequence[Vec] | None = None
) -> RefinementReport:
    """Refine every maximal cone of a 3-dimensional fan and certify the
    whole fan once; rays=None means Hilbert-driven, and otherwise every
    prescribed ray must lie in some cone."""
    for c in cones:
        if c.dim != 3:
            raise ValueError(
                f"refine_fan needs 3-dimensional cones, got {c}; refine rays "
                "and planar cones with regular_refinement or refinement_from_rays"
            )
    rays = None if rays is None else [_integer_vector(r, "prescribed ray") for r in rays]
    for v in rays or ():
        if not any(c.contains(v) for c in cones):
            raise ValueError(f"prescribed ray {v} lies in no cone of the fan")
    parts = [
        _hilbert_pieces(c) if rays is None
        else (_ray_pieces(c, _checked_rays(c, [v for v in rays if c.contains(v)])), False)
        for c in cones
    ]
    return _build_report(
        cones,
        [p for pieces, _ in parts for p in pieces],
        any(fallback for _, fallback in parts),
    )


def check_minimal_embedded(r: RefinementReport) -> MinimalityReport:
    """Irreducibility of every result ray in every source cone containing it.

    Covers only the vector half of minimality; the -1-curve half of the
    criterion is reported as "not checked".
    """
    if not r.all_unimodular():
        raise ValueError("minimality check expects a regular refinement")
    return MinimalityReport(r.irreducible, r.all_rays_irreducible)
