"""Exact lattice-cone algebra in 3-space, and the one facet search.

Cones are strongly convex (pointed) rational polyhedral cones given by their
primitive extremal rays and the inner normals that cut them out within their
span.  Every facet in the package comes from ``_supporting_planes``: the
hyperplanes through three generators of a cone in Z^4 with every generator
on one side.  A cone of 3-space is read times the ray (0,0,0,1); the Newton
polyhedron and each profile hull are read as cones over lifted points.
Cones handed to the semigroup routines (irreducibility, Hilbert bases) must
live in the non-negative octant, where the coordinate sum is a positive
grading that orders the reduction of a non-simplicial cone's candidates.

Hilbert bases and profile points read one of two enumerations.  On a
height-one octant cone, whose generators lie on one integral plane l = 1
(``_height_one``), both are the lattice points of that polygon, scanned row
by row (``_polygon_points``).  Every other cone is read from the half-open
parallelepiped walk of each simplicial piece (``_half_open_points``): a
lattice point u + sum n_i g_i (u half-open, n_i >= 0) that is irreducible,
or has l <= 1, is a generator or u itself.  The walk gives each u as its
integer coordinates q, u = sum (q_i/D) g_i, and a reader builds u only for
the q it keeps.  The walked basis is reduced in two stages
(``_walked_basis``).  In a piece, a half-open point is reducible exactly
when another is no larger in every coordinate q_i, so each piece is
reduced by comparing those (``_piece_minima``).  A Hilbert element of the
cone is irreducible in its piece, so only the union of the pieces' minima
is then reduced in the cone's facet heights, and only when the cone is not
simplicial.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import combinations, islice
from math import gcd
from operator import le

from .polyparse import _integer, _is_int

Vec = tuple[int, int, int]

ZERO: Vec = (0, 0, 0)


def dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def vadd(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vneg(a: Vec) -> Vec:
    return (-a[0], -a[1], -a[2])


def _vector_str(v: Sequence[int]) -> str:
    """The ``(a,b,c)`` text of an integer 3-vector, as cone text writes it."""
    return "(%d,%d,%d)" % tuple(v)


def _lists(vs: Iterable[Sequence[int]]) -> list[list[int]]:
    """Vectors as JSON data: lists, which ``json.loads`` gives back equal."""
    return [list(v) for v in vs]


def unimodular_det(v1: Vec, v2: Vec, v3: Vec) -> int:
    """Exact determinant of the 3x3 matrix with columns v1, v2, v3."""
    return dot(v1, cross(v2, v3))


def primitive(v: Sequence[int]) -> Vec:
    """Divide out the gcd of the coordinates; ValueError unless v is three
    ints, not all zero."""
    return _primitive(_integer_vector(v, "vector"))


def _primitive(v: Vec) -> Vec:
    """``primitive`` of an int triple, unchecked: for vectors this code built."""
    g = gcd(v[0], v[1], v[2])
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return (v[0] // g, v[1] // g, v[2] // g)


def _rank(vectors: Sequence[Vec]) -> int:
    vs = [v for v in vectors if v != ZERO]
    if not vs:
        return 0
    for a, b, c in combinations(vs, 3):
        if unimodular_det(a, b, c) != 0:
            return 3
    for a, b in combinations(vs, 2):
        if cross(a, b) != ZERO:
            return 2
    return 1


def _supporting_planes(gens: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Primitive inner normals of the hyperplanes of Z^4 through three of gens
    that leave every generator on their non-negative side, each found once
    and lazily: the facets of a full-dimensional pointed cone over gens.  The
    normal of (a, b, c) expands along c with the 2x2 minors of a and b."""
    seen: set[tuple[int, ...]] = set()
    for i, (a0, a1, a2, a3) in enumerate(gens):
        for j in range(i + 1, len(gens)):
            b0, b1, b2, b3 = gens[j]
            m01, m02, m03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
            m12, m13, m23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
            for c0, c1, c2, c3 in gens[j + 1:]:
                n0 = c1 * m23 - c2 * m13 + c3 * m12
                n1 = c2 * m03 - c0 * m23 - c3 * m02
                n2 = c0 * m13 - c1 * m03 + c3 * m01
                n3 = c1 * m02 - c0 * m12 - c2 * m01
                g = gcd(n0, n1, n2, n3)
                if g == 0 or (n := (n0 // g, n1 // g, n2 // g, n3 // g)) in seen:
                    continue
                m = (-n[0], -n[1], -n[2], -n[3])
                seen.update((n, m))
                values = [n0 * x + n1 * y + n2 * z + n3 * t for x, y, z, t in gens]
                if min(values) >= 0:
                    yield n
                elif max(values) <= 0:
                    yield m


def _supporting_normals(gens: Iterable[Vec]) -> Iterator[Vec]:
    """Primitive inner normals, found lazily, of the planes through two of
    gens that leave every generator on their non-negative side: the facets
    (n, 0) of the cone over gens times the ray (0,0,0,1) in Z^4."""
    lifted = [(0, 0, 0, 1), *((x, y, z, 0) for x, y, z in gens)]
    return (n[:3] for n in _supporting_planes(lifted) if n[3] == 0)


class Cone(
    namedtuple("Cone", "generators dim facet_normals facets plane_normal", defaults=((), (), None))
):
    """Pointed rational cone: ``generators`` (tuple[Vec, ...]) are its
    primitive extremal rays and ``dim`` (int) the dimension of their span.

    ``facet_normals[i]`` (Vec) is the primitive inner normal, within the
    span of the cone, of the facet spanned by the sorted generators
    ``facets[i]``: a ray pair in dimension 3, one ray in dimension 2, and
    no ray for a ray, whose one normal is its generator.  Membership is
    the conjunction of those inequalities and, below dimension 3, lying in
    the span.  ``plane_normal`` (Vec or None) is set for 2-dimensional
    cones only.  ``hilbert`` and ``profile`` are the cone's Hilbert basis
    and profile, each computed on first use and then kept in the instance
    ``__dict__``, which is why the class declares no ``__slots__``;
    ``hilbert_basis(c)`` and ``profile(c)`` read them.
    """

    @classmethod
    def from_generators(cls, vectors: Iterable[Sequence[int]]) -> "Cone":
        """The pointed cone spanned by vectors, decided with integers only.

        The nonzero vectors, each of three int coordinates, are taken as
        distinct primitive rays.  Three independent rays are a simplex
        (``_simplex``).  Otherwise in rank 3 one supporting-plane pass
        (``_supporting_normals``) gives the facet normals: the cone is
        pointed exactly when they span 3-space, a ray is extremal exactly
        when two of them vanish on it, and each facet is the pair of
        extremal rays its normal vanishes on.  In rank 2 the
        cone is pointed exactly when two independent rays hold every ray
        between them, and those two are its generators; in rank 1, when one
        primitive ray is left.  Raises ValueError on a non-pointed cone or a
        vector that is not three ints.
        """
        rays: list[Vec] = []
        for v in vectors:
            t = _integer_vector(v, "generator")
            if t != ZERO and (p := _primitive(t)) not in rays:
                rays.append(p)
        if not rays:
            raise ValueError("a cone needs at least one nonzero generator")
        rank = _rank(rays)
        if rank == 3 and len(rays) == 3:
            return cls._simplex(*rays)
        if rank == 3:
            normals = sorted(_supporting_normals(rays))
            if _rank(normals) == 3:
                gens = tuple(
                    sorted(g for g in rays if sum(dot(n, g) == 0 for n in normals) >= 2)
                )
                facets = tuple(tuple(g for g in gens if dot(n, g) == 0) for n in normals)
                return cls(gens, 3, tuple(normals), facets, None)
        elif rank == 2:
            for a, b in combinations(sorted(rays), 2):
                n = cross(a, b)
                forms = (cross(n, a), cross(b, n))
                if n != ZERO and all(dot(f, g) >= 0 for f in forms for g in rays):
                    normals = tuple(map(_primitive, forms))
                    return cls((a, b), 2, normals, ((a,), (b,)), _primitive(n))
        elif len(rays) == 1:
            return cls(tuple(rays), 1, tuple(rays), ((),), None)
        raise ValueError("generators span a non-pointed cone")

    @classmethod
    def _simplex(cls, a: Vec, b: Vec, c: Vec) -> "Cone":
        """The cone of three linearly independent primitive rays, equal to
        ``from_generators((a, b, c))``.  Each facet normal is the cross
        product of its ray pair, turned inward by the sign of the
        determinant; raises ValueError on dependent rays.  The determinant
        is one of those products dotted with the third ray, so its absolute
        value is recorded as the ``multiplicity`` at once."""
        g0, g1, g2 = gens = tuple(sorted((a, b, c)))
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = gens
        n12 = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
        d = x0 * n12[0] + y0 * n12[1] + z0 * n12[2]
        if d == 0:
            raise ValueError("a simplex needs three linearly independent rays")
        items = []
        for pair, (p, q, r) in (
            ((g0, g1), (y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1)),
            ((g0, g2), (y2 * z0 - z2 * y0, z2 * x0 - x2 * z0, x2 * y0 - y2 * x0)),
            ((g1, g2), n12),
        ):
            g = gcd(p, q, r) if d > 0 else -gcd(p, q, r)
            items.append(((p // g, q // g, r // g), pair))
        normals, pairs = zip(*sorted(items))
        cone = cls(gens, 3, normals, pairs, None)
        cone.__dict__["multiplicity"] = abs(d)
        return cone

    @cached_property
    def hilbert(self) -> "HilbertBasis":
        return _hilbert_basis(self)

    @cached_property
    def profile(self) -> "Profile":
        from .profile import _profile  # profile.py builds on this module

        return _profile(self)

    @cached_property
    def multiplicity(self) -> int:
        """Index of the lattice the generators span in the lattice points of
        their span: |det| for a 3-dimensional cone, the gcd of the 2x2 minors
        for a planar one, 1 for a ray.  The cone is regular exactly when it
        is 1; ``_simplex`` records it as it builds.  Raises ValueError on a
        non-simplicial cone."""
        if not self.is_simplicial():
            raise ValueError("multiplicity needs a simplicial cone; triangulate first")
        if self.dim == 3:
            return abs(unimodular_det(*self.generators))
        if self.dim == 2:
            m = cross(*self.generators)
            return gcd(gcd(abs(m[0]), abs(m[1])), abs(m[2]))
        return 1  # a primitive ray extends to a lattice basis

    def is_simplicial(self) -> bool:
        return len(self.generators) == self.dim

    def contains(self, v: Sequence[int]) -> bool:
        """Membership of v, decided on its coordinates as given: exact for
        ints and ``Fraction``s."""
        x, y, z = v
        for a, b, c in self.facet_normals:
            if a * x + b * y + c * z < 0:
                return False
        if self.dim == 3:
            return True
        if self.dim == 2:
            return dot(self.plane_normal, v) == 0
        return cross(v, self.generators[0]) == ZERO

    def pulled(self, v: Vec) -> tuple["Cone", ...]:
        """The joins of a primitive v in the cone with the facets that miss
        it: the pulling refinement at v (De Loera-Rambau-Santos,
        *Triangulations*, 2010, 4.3), one per facet whose inner normal is
        positive on v.  A 3-dimensional cone gives simplices; a planar
        cone, with v inside and not a generator, gives (v, g) per ray g, and
        a ray, pulled at itself, gives itself."""
        return tuple(
            Cone._simplex(v, *f) if self.dim == 3 else Cone.from_generators((v, *f))
            for n, f in zip(self.facet_normals, self.facets)
            if dot(n, v) > 0
        )

    def in_octant(self) -> bool:
        return all(c >= 0 for g in self.generators for c in g)

    def __str__(self) -> str:
        return f"<{','.join(map(_vector_str, self.generators))}>"


def _plane_form(a: Vec, b: Vec, g: Vec) -> tuple[Vec, int]:
    """(u, q), q > 0, with u.v / q = 1 on three independent a, b, g: the
    adjugate rows b x g, g x a, a x b each take the value det(a, b, g) on
    one of them and 0 on the others."""
    bg = cross(b, g)
    u = vadd(vadd(bg, cross(g, a)), cross(a, b))
    q = dot(a, bg)
    return (u, q) if q > 0 else (vneg(u), -q)


def _l_form(c: Cone) -> tuple[Vec, int]:
    """(u, q), q > 0, with l(v) = u.v / q the l-functional of a simplicial
    c: 1 on every generator, 0 on the normals of c's span
    (``_plane_form``); a planar (a, b) is read in the frame (a, b, n),
    n = a x b."""
    if c.dim == 3:
        return _plane_form(*c.generators)
    if c.dim == 2:
        a, b = c.generators
        n = cross(a, b)
        return vadd(cross(b, n), cross(n, a)), dot(n, n)
    (g,) = c.generators
    return g, dot(g, g)


def triangulate(c: Cone) -> tuple[Cone, ...]:
    """Split into simplicial cones by pulling the lexicographically least
    ray (``Cone.pulled``).

    The result is deterministic, face-to-face and sorted by generators.
    Simplicial cones come back unchanged.
    """
    if c.is_simplicial():
        return (c,)
    if c.dim != 3:
        raise ValueError("non-simplicial cones of dimension < 3 cannot be pointed")
    return tuple(sorted(c.pulled(min(c.generators)), key=lambda p: p.generators))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _unit_dual(n: Vec) -> Vec:
    """An integer vector w with n.w = 1, for a primitive n."""
    g, x, y = _xgcd(n[0], n[1])
    _, u, z = _xgcd(g, n[2])
    return (u * x, u * y, z)


def _height_one(c: Cone) -> Vec | None:
    """The integral l with l(g) = 1 on every generator g of a 3-dimensional
    c, or None when there is none or c is not 3-dimensional.  Three
    extremal rays of a pointed cone are never coplanar, so l is the plane
    through the first three generators, integral exactly when q divides u,
    and primitive since it takes the value 1."""
    if c.dim != 3:
        return None
    u, q = _plane_form(*c.generators[:3])
    if u[0] % q or u[1] % q or u[2] % q:
        return None
    l = (u[0] // q, u[1] // q, u[2] // q)
    return l if all(dot(l, g) == 1 for g in c.generators[3:]) else None


def _polygon_points(c: Cone, l: Vec) -> list[Vec]:
    """The lattice points of the polygon c ∩ {l = 1}, sorted, for the l of
    ``_height_one``, scanned in rows along one of its edges.

    For an edge (a, b) in ``c.facets``, e2 = the primitive b - a and
    e1 = ``_unit_dual(e2)`` x l have e1 x e2 = l, so they are a lattice
    basis of ker l, and with w = ``_unit_dual(l)`` every lattice point of
    the plane is w + s*e1 + t*e2, with s = (e2 x w).v since
    det(e1, e2, w) = l.w = 1.  The polygon is the hull of the generators,
    so each integer s between their extremes is a row that meets it: a
    facet normal n with n.e2 = 0 holds on the whole row, and any other
    bounds t on it by n.w + s*n.e1 + t*n.e2 >= 0, in exact floor division.
    The rows number h + 1, h the lattice distance of the farthest vertex
    from the edge; its triangle on the edge has area at least h/2, so by
    Pick's theorem h is less than twice the polygon's point count.  The
    edge with the fewest rows is scanned.
    """
    w = _unit_dual(l)
    scans = []
    for a, b in c.facets:
        e2 = _primitive((b[0] - a[0], b[1] - a[1], b[2] - a[2]))
        f1 = cross(e2, w)
        s_values = [dot(f1, v) for v in c.generators]
        scans.append((max(s_values) - min(s_values), e2, s_values))
    _, e2, s_values = min(scans, key=lambda scan: scan[0])
    e1 = cross(_unit_dual(e2), l)
    rows = [(dot(n, w), dot(n, e1), dot(n, e2)) for n in c.facet_normals if dot(n, e2)]
    out: list[Vec] = []
    for s in range(min(s_values), max(s_values) + 1):
        lo = max(-((p + s * q) // d) for p, q, d in rows if d > 0)
        hi = min((p + s * q) // -d for p, q, d in rows if d < 0)
        x0, y0, z0 = w[0] + s * e1[0], w[1] + s * e1[1], w[2] + s * e1[2]
        out += [(x0 + t * e2[0], y0 + t * e2[1], z0 + t * e2[2]) for t in range(lo, hi + 1)]
    out.sort()
    return out


def _half_open_points(c: Cone) -> tuple[int, list[Vec], Callable[[Vec], Vec]]:
    """The half-open parallelepiped {sum t_i g_i : 0 <= t_i < 1} of a 2- or
    3-dimensional simplicial cone, as ``(D, walk, point)``: ``walk`` lists
    the coordinates q of its lattice points, integers 0 <= q_i < D, one per
    element of Z^3/<g1,g2,g3>, D = |det|, the zero point first, and
    ``point(q)`` is the lattice point (q1*g1 + q2*g2 + q3*g3)/D, built only
    for the q a reader keeps.  A planar cone is completed by g3 with
    n.g3 = 1 for its primitive normal n; then D is the plane index and
    every q3 is 0.  The adjugate rows (times sign(det)) send a point to D*t,
    so the residues of e1, e2, e3 under them generate the group; it is
    walked as a chain of cyclic subgroups, so the cost is D, not the volume
    of a box.
    """
    gens = c.generators
    g1, g2, g3 = gens if c.dim == 3 else (*gens, _unit_dual(c.plane_normal))
    d = unimodular_det(g1, g2, g3)
    s = 1 if d > 0 else -1
    big = s * d
    rows = tuple(
        (s * n[0], s * n[1], s * n[2])
        for n in (cross(g2, g3), cross(g3, g1), cross(g1, g2))
    )
    group = [ZERO]
    for j in range(3):
        r0, r1, r2 = (row[j] % big for row in rows)
        members = set(group)
        order, step = 1, (r0, r1, r2)
        while step not in members:
            order += 1
            step = ((step[0] + r0) % big, (step[1] + r1) % big, (step[2] + r2) % big)
        if order > 1:
            group = [
                ((a + m * r0) % big, (b + m * r1) % big, (c + m * r2) % big)
                for m in range(order)
                for a, b, c in group
            ]
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = g1, g2, g3

    def point(q: Vec) -> Vec:
        q1, q2, q3 = q
        return (
            (q1 * x1 + q2 * x2 + q3 * x3) // big,
            (q1 * y1 + q2 * y2 + q3 * y3) // big,
            (q1 * z1 + q2 * z2 + q3 * z3) // big,
        )

    return big, group, point


def _require_octant_semigroup(c: Cone) -> None:
    if not c.in_octant():
        raise ValueError(
            "semigroup operations require a cone inside the non-negative octant"
        )


def _integer_vector(v: Sequence[int], name: str) -> Vec:
    """v as a tuple of three ints (``_is_int``), or a ValueError naming it."""
    t = tuple(v) if isinstance(v, Sequence) else ()
    if len(t) != 3 or not all(map(_is_int, t)):
        raise ValueError(f"{name} {v!r} needs three int coordinates")
    return t


def is_irreducible(c: Cone, v: Sequence[int]) -> bool:
    """No way to write the lattice point v as a sum of two nonzero lattice
    points of the cone; v must have three int coordinates.

    For a cone in the octant this is membership of v in the Hilbert basis,
    which is the set of irreducible points; the basis is computed once per
    cone object (``Cone.hilbert``).
    """
    t = _integer_vector(v, "vector")
    if t == ZERO:
        raise ValueError("the zero vector is not in the semigroup")
    if not c.contains(t):
        raise ValueError(f"{t} is not in the cone")
    _require_octant_semigroup(c)
    return t in c.hilbert


class HilbertBasis(tuple):
    """Minimal generating set of cone ∩ Z^3: the tuple of its elements, the
    irreducible lattice points of the cone, sorted lexicographically."""

    __slots__ = ()

    @property
    def elements(self) -> tuple[Vec, ...]:
        return tuple(self)


def hilbert_basis(c: Cone) -> HilbertBasis:
    """Irreducible lattice points of a pointed cone in the octant: the
    cone's own basis, ``c.hilbert``, computed on the first call for that
    cone object and then read.  A cone outside the octant raises
    ValueError on every call."""
    return c.hilbert


def _hilbert_basis(c: Cone) -> HilbertBasis:
    """The computation behind ``Cone.hilbert``.

    On a height-one cone (``_height_one``) the basis is the lattice points
    of the polygon P = c ∩ {l = 1} (``_polygon_points``).  A nonzero lattice
    point of c has integral l >= 1, so the points of P are irreducible, and
    every lattice polygon is normal: its cone's lattice points are sums of
    points of P (Bruns-Gubeladze, *Polytopes, Rings, and K-Theory*, 2009).
    Every other cone is walked and reduced (``_walked_basis``).
    """
    _require_octant_semigroup(c)
    l = _height_one(c)
    return HilbertBasis(_walked_basis(c) if l is None else _polygon_points(c, l))


def _piece_minima(piece: Cone) -> list[Vec]:
    """The nonzero half-open points of a 2- or 3-dimensional simplicial
    piece that are irreducible in it: with its generators, the piece's
    Hilbert basis.

    A half-open point u = sum (q_i/D) g_i has coordinates q, each below D,
    and u = a + b with a, b nonzero lattice points of the piece exactly
    when a has coordinates no larger than q: then a is half-open too, and
    u - a has the non-negative coordinates q - q(a).  So u is reducible
    exactly when another half-open point is no larger in every coordinate.
    Such a point has a smaller coordinate sum, so with the walk sorted in
    place by q1 + q2 + q3 every possible dominator comes first (two points
    of one sum never dominate each other), and a dominator is dominated by
    a kept minimum: one pass with three comparisons per kept point, no dot
    products, and a lattice point built only for each minimum.
    """
    _, walk, point = _half_open_points(piece)
    walk.sort(key=sum)
    kept: list[Vec] = []
    for q in islice(walk, 1, None):  # walk[0] is the zero point
        q1, q2, q3 = q
        for a1, a2, a3 in kept:
            if a1 <= q1 and a2 <= q2 and a3 <= q3:
                break
        else:
            kept.append(q)
    return list(map(point, kept))


def _walked_basis(c: Cone) -> list[Vec]:
    """The Hilbert basis of an octant cone c, sorted, by the group walk,
    reduced in two stages.

    An irreducible point v of c lies in a piece of a triangulation, where
    it is irreducible too: v = u + sum n_i g_i with u half-open and n_i >= 0
    integers, so either v = u or u = 0 and v is a single generator.  So
    stage 1 reduces each piece in its own coordinates (``_piece_minima``),
    and a Hilbert element of c is a generator or one of those minima.  On
    a simplicial, planar or ray cone, the one piece's minima and the
    generators are the basis.
    """
    candidates: set[Vec] = set(c.generators)
    for piece in triangulate(c):
        if piece.dim > 1:
            candidates.update(_piece_minima(piece))
    if c.is_simplicial():
        return sorted(candidates)

    # Stage 2, on a non-simplicial c: a piece minimum can still be reducible
    # in c.  Reduction by degree (Bruns-Ichim): the coordinate sum is a
    # positive grading on the octant, and a reducible v is v = h + w with h
    # an irreducible point of smaller degree and w in the cone.  Irreducible
    # points are candidates, so by induction on the degree the points kept
    # before v are exactly the Hilbert elements of smaller degree.  All
    # candidates lie in the span of c, where w = v - h is in the cone
    # exactly when no facet normal is smaller on v than on h.
    kept: list[Vec] = []
    heights: list[list[int]] = []
    normals = c.facet_normals
    for v in sorted(candidates, key=lambda u: (u[0] + u[1] + u[2], u)):
        x, y, z = v
        height = [a * x + b * y + e * z for a, b, e in normals]
        for hh in heights:
            if all(map(le, hh, height)):
                break
        else:
            kept.append(v)
            heights.append(height)
    return sorted(kept)


_CONE_TEXT = re.compile(r"^\s*<\s*(.*?)\s*>\s*$", re.S)
_VECTOR_TEXT = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def _vector_literals(text: str) -> list[Vec]:
    """The (a,b,c) literals in text; a coordinate with more digits than
    ``int()`` converts is a ParseError at its offset."""
    return [tuple(_integer(m, i) for i in (1, 2, 3)) for m in _VECTOR_TEXT.finditer(text)]


def parse_cone(text: str) -> Cone:
    """Parse cone text like ``"<(0,0,1),(1,0,2),(0,1,2),(2,7,4)>"``."""
    m = _CONE_TEXT.match(text)
    if not m:
        raise ValueError(f"cone text must look like <(a,b,c),...>: {text!r}")
    vectors = _vector_literals(text)
    remainder = _VECTOR_TEXT.sub("", m.group(1)).replace(",", "").strip()
    if not vectors or remainder:
        raise ValueError(f"malformed cone text: {text!r}")
    return Cone.from_generators(vectors)
