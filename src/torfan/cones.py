"""Exact lattice-cone algebra in 3-space, and the one facet search.

Cones are strongly convex (pointed) rational polyhedral cones given by their
primitive extremal rays and the inner normals that cut them out within their
span.  Every facet in the package comes from ``_supporting_planes``: the
hyperplanes through three generators of a cone in Z^4 with every generator
on one side.  A cone of 3-space is read times the ray (0,0,0,1); the Newton
polyhedron and each profile hull are read as cones over lifted points.
Cones handed to the semigroup routines (irreducibility, Hilbert bases) must
live in the non-negative octant, where the coordinate sum is a positive
grading that orders the reduction of candidates.

Hilbert bases and profile points read one enumeration, the half-open
parallelepiped walk of each simplicial piece (``_half_open_points``): a
lattice point u + sum n_i g_i (u half-open, n_i >= 0) that is irreducible,
or has l <= 1, is a generator or u itself.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import le

from .polyparse import _Frozen, _integer

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
        determinant; raises ValueError on dependent rays."""
        g0, g1, g2 = gens = tuple(sorted((a, b, c)))
        d = unimodular_det(g0, g1, g2)
        if d == 0:
            raise ValueError("a simplex needs three linearly independent rays")
        s = 1 if d > 0 else -1
        items = []
        for pair, n in (
            ((g0, g1), cross(g0, g1)),
            ((g0, g2), cross(g2, g0)),
            ((g1, g2), cross(g1, g2)),
        ):
            items.append((_primitive((s * n[0], s * n[1], s * n[2])), pair))
        normals, pairs = zip(*sorted(items))
        return cls(gens, 3, normals, pairs, None)

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
        is 1.  Raises ValueError on a non-simplicial cone."""
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

    def interior_point(self) -> Vec:
        """An integer point in the relative interior (the ray sum)."""
        s = ZERO
        for g in self.generators:
            s = vadd(s, g)
        return s

    def in_octant(self) -> bool:
        return all(c >= 0 for g in self.generators for c in g)

    def __str__(self) -> str:
        inner = ",".join("(%d,%d,%d)" % g for g in self.generators)
        return f"<{inner}>"


def _l_form(c: Cone) -> tuple[Vec, int]:
    """(u, q), q > 0, with l(v) = u.v / q the l-functional of a simplicial
    c: 1 on every generator, 0 on the normals of c's span.  The adjugate
    rows b x g, g x a, a x b of a 3-dimensional (a, b, g) each take the
    value det(a, b, g) on one generator and 0 on the others; a planar
    (a, b) is read in the frame (a, b, n), n = a x b."""
    if c.dim == 3:
        a, b, g = c.generators
        bg = cross(b, g)
        u = vadd(vadd(bg, cross(g, a)), cross(a, b))
        q = dot(a, bg)
        return (u, q) if q > 0 else ((-u[0], -u[1], -u[2]), -q)
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


def _half_open_points(c: Cone) -> tuple[int, list[tuple[Vec, Vec]]]:
    """Lattice points of {sum t_i g_i : 0 <= t_i < 1} for a 2- or 3-dimensional
    simplicial cone, as ``(D, [(u, q)])``: u = (q1*g1 + q2*g2 + q3*g3)/D with
    integers 0 <= q_i < D, one per element of Z^3/<g1,g2,g3>, D = |det|.
    A planar cone is completed by g3 with n.g3 = 1 for its primitive normal
    n; then D is the plane index and every q3 is 0.  The adjugate rows (times
    sign(det)) send u to D*t, so the residues of e1, e2, e3 under them
    generate the group; it is walked as a chain of cyclic subgroups, so the
    cost is D, not the volume of a box.
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
    pairs = []
    for q1, q2, q3 in group:
        u = tuple((q1 * g1[i] + q2 * g2[i] + q3 * g3[i]) // big for i in range(3))
        pairs.append((u, (q1, q2, q3)))
    return big, pairs


def _require_octant_semigroup(c: Cone) -> None:
    if not c.in_octant():
        raise ValueError(
            "semigroup operations require a cone inside the non-negative octant"
        )


def _integer_vector(v: Sequence[int], name: str) -> Vec:
    """v as a tuple of three ints, or a ValueError naming it; a bool is not
    an int here, as in ``Polynomial.from_dict``."""
    t = tuple(v) if isinstance(v, Sequence) else ()
    if len(t) != 3 or not all(isinstance(x, int) and not isinstance(x, bool) for x in t):
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
    return t in c.hilbert.elements


class HilbertBasis(_Frozen):
    """Minimal generating set of cone ∩ Z^3, sorted lexicographically."""

    __slots__ = ("cone", "elements")

    def __init__(self, cone: Cone, elements: tuple[Vec, ...]) -> None:
        super().__init__(cone, elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def hilbert_basis(c: Cone) -> HilbertBasis:
    """Irreducible lattice points of a pointed cone in the octant: the
    cone's own basis, ``c.hilbert``, computed on the first call for that
    cone object and then read.  A cone outside the octant raises
    ValueError on every call."""
    return c.hilbert


def _hilbert_basis(c: Cone) -> HilbertBasis:
    """The computation behind ``Cone.hilbert``.

    Candidates are the generators and the half-open parallelepiped points of
    each piece of a triangulation.  An irreducible point v of the cone lies
    in a piece, where v = u + sum n_i g_i with u half-open and n_i >= 0
    integers; v is irreducible there too, so either v = u or u = 0 and v is
    a single generator.
    """
    _require_octant_semigroup(c)
    candidates: set[Vec] = set(c.generators)
    for piece in triangulate(c):
        if piece.dim > 1:
            candidates.update(u for u, q in _half_open_points(piece)[1] if any(q))

    # Reduction by degree (Bruns-Ichim): the coordinate sum is a positive
    # grading on the octant, and a reducible v is v = h + w with h an
    # irreducible point of smaller degree and w in the cone.  Irreducible
    # points are candidates, so by induction on the degree the points kept
    # before v are exactly the Hilbert elements of smaller degree.  All
    # candidates lie in the span of c, where w = v - h is in the cone
    # exactly when no facet normal is smaller on v than on h.
    kept: list[Vec] = []
    heights: list[tuple[int, ...]] = []
    for v in sorted(candidates, key=lambda u: (u[0] + u[1] + u[2], u)):
        height = tuple(dot(n, v) for n in c.facet_normals)
        for hh in heights:
            if all(map(le, hh, height)):
                break
        else:
            kept.append(v)
            heights.append(height)
    return HilbertBasis(c, tuple(sorted(kept)))


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
