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
``refine_fan`` is the one entry point, Hilbert-driven or at prescribed
rays.  One insertion loop (``_ray_pieces``) serves both modes: rays go in
by increasing profile level down a tree, each piece pulled at the first
ray it holds and its children handed the later rays they hold, and a
piece left with no rays triangulated.  The Hilbert-driven refinement then
splits each non-regular piece by one rule, at the point of its pool of
least value of that piece's l-functional.  The pool is the source-basis
elements the piece holds or, when it holds none, the piece's own Hilbert
elements other than its rays (``cones._piece_minima``), so such a piece is
split at its least-l Hilbert element that is not a generator.
Each split pulls only the star of the new ray, found through
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
from typing import NamedTuple

from .cones import (
    Cone,
    Vec,
    _integer_vector,
    _l_form,
    _lists,
    _piece_minima,
    _primitive,
    dot,
    triangulate,
)
from .newton import Fan, _tiling_certificate


class RefinementReport(NamedTuple):
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
            "rays": _lists(self.result.rays),
            "certificates": [
                {"cone": list(idx), "det": det} for idx, det in self.certificates
            ],
            "covering_ok": self.covering_ok,
            "face_fitting_ok": self.face_fitting_ok,
            "all_rays_irreducible": self.all_rays_irreducible,
            "new_rays": _lists(self.new_rays),
            "regular": self.all_unimodular(),
        }


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
    bases = [(s, set(s.hilbert)) for s in sources]
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


def _held(p: Cone, points: Iterable[Vec]) -> list[Vec]:
    """The points that p holds, in order: ``Cone.contains`` on each, with a
    3-dimensional simplex's three facet tests written out in one pass."""
    if not (p.dim == 3 and p.is_simplicial()):
        return [w for w in points if p.contains(w)]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = p.facet_normals
    return [
        w
        for w in points
        if a0 * w[0] + a1 * w[1] + a2 * w[2] >= 0
        and b0 * w[0] + b1 * w[1] + b2 * w[2] >= 0
        and c0 * w[0] + c1 * w[1] + c2 * w[2] >= 0
    ]


def _ray_pieces(c: Cone, rays: Iterable[Vec]) -> list[Cone]:
    """Pieces of c with ``rays`` inserted by increasing (profile level,
    lexicographic) order; the rays must be distinct primitive points of c
    off its generators.  Inserting a ray pulls each piece that holds it off
    its generators and acts on each piece on its own, so a piece is pulled
    at the first ray it holds and each child inherits the later rays it
    holds.  A piece left with no rays is triangulated, which changes only a
    non-simplicial c that holds none."""
    level = c.profile._level_numerator
    out: list[Cone] = []
    stack = [(c, sorted(rays, key=lambda v: (level(v), v)))]
    while stack:
        p, todo = stack.pop()
        if not todo:
            out.extend(triangulate(p))
            continue
        v, *later = todo
        for child in reversed(p.pulled(v)):
            stack.append((child, _held(child, later)))
    return out


def _hilbert_pieces(c: Cone) -> tuple[list[Cone], bool]:
    """Unimodular pieces of c split at Hilbert-basis rays, and whether the
    fallback ran.

    Only the non-regular pieces are kept, in a table by generators, each
    with its pool: the elements of c's basis inside it, off its rays.  A map
    from each facet (``Cone.facets``) to the table pieces that own it is the
    adjacency.  Each step splits tau, the least piece of the table, at the
    point v of its pool of least (l, v), l = u.v / q its l-functional
    (``_l_form``).  When the pool is empty (the fallback) the pool for that
    split is tau's piece minima (``_piece_minima``): its Hilbert elements
    other than its rays, of which a non-regular tau has at least one.  So v
    is tau's least-l Hilbert element that is not a generator, and tau's
    children inherit the empty pool.

    v lies off tau's rays, so inside tau or inside one facet of it, and the
    pieces that hold v are tau and the other owner of that facet in the
    subdivision, if it has one.  That neighbour is never unimodular, so
    the map finds it.  A unimodular piece's lattice points are sums of its
    rays, so an element of c's basis inside it is one of its rays, and v is
    none of them.  A fallback v is irreducible in tau, but a lattice point
    inside a facet (a, b) of a unimodular piece is a + (a nonzero sum of a
    and b).  Pulled pieces' children that are unimodular are done; the
    others inherit their parent's pool, filtered by containment.
    """
    basis = c.hilbert
    done: list[Cone] = []
    table: dict[tuple[Vec, ...], tuple[Cone, list[Vec]]] = {}
    owners: dict[tuple[Vec, ...], list[tuple[Vec, ...]]] = {}

    def place(p: Cone, pool: Sequence[Vec]) -> None:
        if p.multiplicity == 1:
            done.append(p)
            return
        table[p.generators] = (p, [h for h in _held(p, pool) if h not in p.generators])
        for f in p.facets:
            owners.setdefault(f, []).append(p.generators)

    # Every basis element lies in c, so it lies on the 2-face of a facet
    # exactly when that facet's normal vanishes on it.  A non-simplicial
    # cone whose basis meets no boundary 2-face is first split at its
    # least-level interior element, or fanned when it has none.
    inner = [h for h in basis if h not in c.generators]
    rays = [h for h in inner if any(dot(n, h) == 0 for n in c.facet_normals)]
    if not rays and inner and not c.is_simplicial():
        level = c.profile._level_numerator
        rays = [min(inner, key=lambda h: (level(h), h))]
    for p in _ray_pieces(c, rays):
        place(p, basis)
    used_fallback = False
    while table:
        key = min(table)
        tau, pool = table[key]
        if not pool:
            pool = _piece_minima(tau)
            used_fallback = True
        u, _ = _l_form(tau)
        chosen = min(pool, key=lambda h: (dot(u, h), h))
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


def _held_rays(cones: Sequence[Cone], rays: Sequence[Vec]) -> list[list[Vec]]:
    """Each cone's prescribed rays that are not its generators, in the given
    order.  All rays are checked to be three ints, then to lie in some cone,
    then one by one to be primitive and listed once."""
    rays = [_integer_vector(r, "prescribed ray") for r in rays]
    held = [_held(c, rays) for c in cones]
    inside = set().union(*held)
    for v in rays:
        if v not in inside:
            raise ValueError(f"prescribed ray {v} lies in no cone of the fan")
    seen: set[Vec] = set()
    for v in rays:
        if _primitive(v) != v:
            raise ValueError(f"prescribed ray {v} is not primitive")
        if v in seen:
            raise ValueError(f"duplicate prescribed ray {v}")
        seen.add(v)
    return [[v for v in vs if v not in c.generators] for c, vs in zip(cones, held)]


def refine_fan(
    cones: Sequence[Cone], rays: Sequence[Vec] | None = None
) -> RefinementReport:
    """Refine one cone of any dimension, or 3-dimensional cones, and certify
    the whole fan once.

    With rays=None each cone is split at Hilbert-basis rays: boundary
    2-faces first (so adjacent cones subdivide identically), then the
    lexicographically first non-regular piece at the basis element of least
    l-value, or at its own least-l Hilbert element that is not a generator
    when it holds none (``_hilbert_pieces``).  Otherwise each cone is
    triangulated at its extremal rays plus the prescribed rays it holds, by
    increasing (profile level, lexicographic) order; every prescribed ray
    must lie in some cone (``_held_rays``).  An empty list, which has no
    fan to certify, and cones of mixed dimensions raise ValueError.
    """
    if not cones:
        raise ValueError("refine_fan needs at least one cone")
    flat = [c for c in cones if c.dim != 3]
    if flat and len(cones) > 1:
        raise ValueError(f"refine_fan needs one cone or 3-dimensional cones, got {flat[0]}")
    if rays is None:
        parts = [_hilbert_pieces(c) for c in cones]
    else:
        parts = [(_ray_pieces(c, vs), False) for c, vs in zip(cones, _held_rays(cones, rays))]
    pieces = [p for ps, _ in parts for p in ps]
    return _build_report(cones, pieces, any(fallback for _, fallback in parts))


def regular_refinement(c: Cone) -> RefinementReport:
    """``refine_fan([c])``: c split into unimodular pieces at Hilbert-basis rays."""
    return refine_fan([c])
