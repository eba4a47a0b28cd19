"""Newton polyhedra with recession octant, and their dual fans.

NP(f) is the convex hull of support(f) + the non-negative octant, read off
one supporting-hyperplane pass over the cone it is a slice of.  Its normal
fan lives exactly on the octant (the recession cone is self-dual), so the
dual fan is complete there.  Maximal dual cones correspond to vertices of
NP(f), rays to facets, and strictly positive cones to compact faces.  The
faces below the maximal cones are read in one place, the face walk
``valuation._dual_faces``: each with the support points on its NP face.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod
from operator import le
from typing import Iterable, NamedTuple, Sequence

from .cones import (
    Cone,
    Vec,
    _lists,
    _rank,
    _supporting_normals,
    _supporting_planes,
    dot,
    triangulate,
    vneg,
)
from .polyparse import Polynomial, _is_int

E1: Vec = (1, 0, 0)
E2: Vec = (0, 1, 0)
E3: Vec = (0, 0, 1)


class FanCone(NamedTuple):
    rays: tuple[int, ...]
    label: str | None = None


class Fan(NamedTuple):
    """Serializable fan: primitive rays (lex sorted) and cones by ray index."""

    rays: tuple[Vec, ...]
    cones: tuple[FanCone, ...]

    @classmethod
    def from_cones(
        cls, cones: Sequence[Cone], labels: Sequence[str | None] | None = None
    ) -> "Fan":
        rays = sorted({r for c in cones for r in c.generators})
        index = {r: i for i, r in enumerate(rays)}
        fan_cones = []
        for k, c in enumerate(cones):
            label = labels[k] if labels is not None else None
            fan_cones.append(
                FanCone(tuple(sorted(index[r] for r in c.generators)), label)
            )
        return cls(tuple(rays), tuple(sorted(fan_cones, key=lambda fc: (fc.rays, fc.label or ""))))

    def to_obj(self) -> dict:
        cones = []
        for fc in self.cones:
            entry: dict = {"rays": list(fc.rays)}
            if fc.label is not None:
                entry["label"] = fc.label
            cones.append(entry)
        return {"rays": _lists(self.rays), "cones": cones}

    @classmethod
    def from_obj(cls, obj: dict) -> "Fan":
        """Read a fan object; ValueError with the reason on any other shape."""
        def integers(v) -> bool:  # JSON true/false load as bool, an int subclass
            return isinstance(v, list) and all(map(_is_int, v))

        if not isinstance(obj, dict):
            raise ValueError("a fan must be an object with 'rays' and 'cones'")
        for key in ("rays", "cones"):
            if not isinstance(obj.get(key), list):
                raise ValueError(f"fan {key!r} must be a list")
        if not all(integers(r) and len(r) == 3 for r in obj["rays"]):
            raise ValueError("fan rays must be 3-vectors of integers")
        rays = tuple(tuple(r) for r in obj["rays"])
        if len(set(rays)) < len(rays):
            raise ValueError("fan rays must be distinct")
        if any(gcd(*r) != 1 for r in rays):
            raise ValueError("fan rays must be primitive")
        cones = []
        for entry in obj["cones"]:
            if not isinstance(entry, dict) or not integers(entry.get("rays")):
                raise ValueError("fan cones must be objects with a 'rays' index list")
            idx = tuple(entry["rays"])
            if not idx:
                raise ValueError("fan cones need at least one ray")
            if any(i < 0 or i >= len(rays) for i in idx):
                raise ValueError("cone ray index out of range")
            if len(set(idx)) < len(idx):
                raise ValueError(f"fan cone {list(idx)} repeats a ray index")
            label = entry.get("label")
            if label is not None and not isinstance(label, str):
                raise ValueError("fan cone labels must be strings")
            cones.append(FanCone(idx, label))
        return cls(rays, tuple(cones))

    @classmethod
    def from_json(cls, text: str) -> "Fan":
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("fan JSON is nested too deeply") from None
        return cls.from_obj(obj)


def dual_newton_cones(p: Polynomial) -> list[tuple[Cone, Vec]]:
    """Maximal cones of the dual fan, each with the NP vertex it selects, in
    sorted vertex order.

    NP(f) is the slice t = 1 of the cone over the (e_i, 0) and the (a, 1) for
    the support points a above no other b: (a, 1) = (b, 1) + sum (a - b)_i
    (e_i, 0) adds nothing.  Each facet n of that cone but t >= 0 is the facet
    (n[:3], -n[3]) of NP(f); a support point is a vertex exactly when the
    normals of the facets through it span 3-space, and so its normal cone.
    """
    support = sorted(p.support())
    minimal = [a for a in support if not any(b != a and all(map(le, b, a)) for b in support)]
    lifted = [(*e, 0) for e in (E1, E2, E3)] + [(*a, 1) for a in minimal]
    facets = sorted((n[:3], -n[3]) for n in _supporting_planes(lifted) if any(n[:3]))
    tight = ((s, [w for w, o in facets if dot(w, s) == o]) for s in minimal)
    return [(Cone.from_generators(normals), s) for s, normals in tight if _rank(normals) == 3]


_OCTANT = Cone._simplex(E1, E2, E3)


def octant_solid_volume(cones: Iterable[Cone]) -> Fraction:
    """Exact volume under x+y+z <= 1 of k-dimensional octant cones, summed
    cone by cone, measured in the lattice of each cone's span: a
    k-dimensional simplex adds multiplicity / (k! * prod of its ray sums),
    the euclidean volume when k = 3.  It is the volume of the union of
    cones of one span when their interiors are disjoint, which the tiling
    certificate proves.  Raises ValueError on a ray whose coordinate sum is
    not positive.  The terms m/q are summed as one fraction over lcm(q)."""
    terms = []
    for c in cones:
        for g in c.generators:
            if sum(g) <= 0:
                raise ValueError(f"ray {g} has coordinate sum {sum(g)} <= 0")
        for piece in triangulate(c):
            q = factorial(piece.dim) * prod(map(sum, piece.generators))
            terms.append((piece.multiplicity, q))
    common = lcm(*(q for _, q in terms))
    return Fraction(sum(m * (common // q) for m, q in terms), common)


def _facet_incidence(cones: Iterable[Cone]) -> dict[tuple[Vec, ...], list[Vec]]:
    """Each facet of the cones, keyed by its rays (``Cone.facets``: a pair
    in dimension 3, one ray for a planar cone, none for a ray), with the
    inner normal of every cone that has it as a facet: the facet adjacency
    of the cones."""
    owners: dict[tuple[Vec, ...], list[Vec]] = {}
    for c in cones:
        for n, f in zip(c.facet_normals, c.facets):
            owners.setdefault(f, []).append(n)
    return owners


def _interiors_disjoint(a: Cone, b: Cone) -> bool:
    """Do the pointed 3-dimensional cones a and b have disjoint interiors?

    Exactly when a plane through the origin separates them, and then one
    spanned by two of their rays does: the separating normals form a
    pointed cone whose extremal rays are cut out by two of those rays.  Such
    a plane is a supporting plane of the rays of a and the negated rays of
    b, so the first one found decides.
    """
    planes = _supporting_normals([*a.generators, *map(vneg, b.generators)])
    return next(planes, None) is not None


def _tiling_certificate(cones: Sequence[Cone], support: Sequence[Cone]) -> dict:
    """Do the octant cones tile the support face to face?

    Cones and support share one dimension k, and a planar or ray support is
    a single cone.  ``covering_ok``: the cones have the k-dimensional
    octant volume of the support.  ``face_fitting_ok``: the support cones
    have pairwise disjoint interiors, and every facet is a facet of two
    cones with opposite inner normals, or of one cone and then inside a
    support facet with the same inner normal that no other support cone
    has.  The number of cones over a point cannot change across a paired
    facet, so it is constant inside the support, and the volume forces it
    to be 1.
    """
    shared = _facet_incidence(support)
    boundary: dict[Vec, list[Cone]] = {}
    for s in support:
        for n, f in zip(s.facet_normals, s.facets):
            if len(shared[f]) == 1:
                boundary.setdefault(n, []).append(s)

    def fits(face: tuple[Vec, ...], normals: list[Vec]) -> bool:
        if len(normals) == 2:
            return normals[0] == vneg(normals[1])
        return len(normals) == 1 and any(
            all(map(s.contains, face)) for s in boundary.get(normals[0], ())
        )

    return {
        "covering_ok": octant_solid_volume(cones) == octant_solid_volume(support),
        "face_fitting_ok": all(
            _interiors_disjoint(a, b) for a, b in combinations(support, 2)
        ) and all(
            fits(face, normals) for face, normals in _facet_incidence(cones).items()
        ),
    }


def fan_consistency_report(cones: Sequence[Cone]) -> dict:
    """Covering and face-to-face certificate for maximal cones on the octant."""
    return _tiling_certificate(cones, [_OCTANT])
