"""Independent brute-force oracles used by several test modules.

The Hilbert-basis oracle decides cone membership through the inequality
description (adjugate rows) instead of generator combinations, enumerates all
cone points in the bounding box of the generator sum, and filters by pairwise
sums.  It shares no code path with torfan.cones.hilbert_basis.

The ``box_*`` oracles test every lattice point of a bounding box, so their
cost is the volume of that box.  torfan enumerates the lattice group
Z^3/<g> instead; these searches share no code with it.

``brute_force_hilbert_planar`` does the same for a cone over two rays: a
box point is in the cone when it lies in the rays' plane and its
coordinates in the rays, by Cramer's rule on one 2x2 minor, are both
non-negative.

``octant_tiling_defects`` samples every nonzero lattice point of a small
box in the octant against inequality descriptions it builds itself with
``supporting_normals``; torfan certifies a tiling from facet incidences
and volumes instead, without sampling a single point.

``caratheodory_extremal_rays`` decides pointedness and extremality by
Caratheodory subset searches (fraction-free integer elimination, Cramer's
rule); torfan decides both from the integer supporting planes through pairs
of rays.

``brute_newton_polyhedron`` finds the facets of conv(support) + octant
from the planes through every triple of support points and unit
directions, with no domination filter and no lifting to 4-space;
``hull_facets_off_origin`` is the triple scan over the points of a
profile hull.  torfan reads both hulls off one supporting-hyperplane pass
over a cone in Z^4.

``subprofile_rows`` recounts the catalog's subprofile rows from integer
hyperplanes, with cone membership by Cramer's rule on subsets of rays;
torfan tests membership against facet normals and evaluates ``Fraction``
functionals.

``scan_hilbert_pieces`` and ``scan_ray_pieces`` rebuild the regular and
the prescribed-ray refinements as sorted ray tuples, by the old loop:
every insertion tests every piece, and each step picks the least
non-regular piece by rays.  Membership, pulling and the l-order are
Cramer's rule on the piece's own rays, the profile level of a
non-simplicial cone reads ``hull_facets_off_origin``, and the fallback
point comes from a triangular basis of the piece's lattice instead of
torfan's chain of cyclic subgroups.  torfan pulls only the star of each
ray, through a facet map of the non-regular pieces.  The cone's Hilbert
basis is an input.

``groebner_fan_oracle`` rebuilds the Groebner fan of a hypersurface from
the rays of its maximal dual cones alone: faces from ``supporting_normals``,
initial forms from its own least w.a, and absorption by exact cone
membership (``_in_cone_span``).  torfan keys faces by their rays and
absorbs a face exactly when its rays are a proper subset of another's.

``validate_output`` checks a CLI JSON output against the published schema
``data/cli_schema.json``, which it reads itself; the CLI never checks its
own output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd
from pathlib import Path

Vec = tuple[int, int, int]


def _cross(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def ray_sum(gens) -> Vec:
    """The sum of the rays: a lattice point in the relative interior of
    their pointed cone."""
    return tuple(map(sum, zip(*gens)))


def brute_force_hilbert_simplicial(g1: Vec, g2: Vec, g3: Vec) -> tuple[Vec, ...]:
    """Hilbert basis of a full-dimensional simplicial cone in the octant."""
    det = _dot(g1, _cross(g2, g3))
    if det == 0:
        raise ValueError("generators are dependent")
    sign = 1 if det > 0 else -1
    normals = [
        tuple(sign * c for c in _cross(g2, g3)),
        tuple(sign * c for c in _cross(g3, g1)),
        tuple(sign * c for c in _cross(g1, g2)),
    ]
    if any(c < 0 for g in (g1, g2, g3) for c in g):
        raise ValueError("oracle assumes the octant")
    bound = tuple(g1[i] + g2[i] + g3[i] for i in range(3))
    points = set()
    for u in product(range(bound[0] + 1), range(bound[1] + 1), range(bound[2] + 1)):
        if u != (0, 0, 0) and all(_dot(n, u) >= 0 for n in normals):
            points.add(u)
    ordered = sorted(points, key=sum)
    basis = []
    for u in ordered:
        half = sum(u)
        reducible = False
        for a in ordered:
            if 2 * sum(a) > half:
                break
            if a[0] <= u[0] and a[1] <= u[1] and a[2] <= u[2] and a != u:
                rest = (u[0] - a[0], u[1] - a[1], u[2] - a[2])
                if rest in points:
                    reducible = True
                    break
        if not reducible:
            basis.append(u)
    return tuple(sorted(basis))


def brute_force_hilbert_planar(g1: Vec, g2: Vec) -> tuple[Vec, ...]:
    """Hilbert basis of the planar cone over two independent octant rays."""
    n = _cross(g1, g2)
    if n == (0, 0, 0):
        raise ValueError("generators are dependent")
    if any(c < 0 for g in (g1, g2) for c in g):
        raise ValueError("oracle assumes the octant")
    i, j = next(
        (i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if g1[i] * g2[j] != g1[j] * g2[i]
    )
    d = g1[i] * g2[j] - g1[j] * g2[i]

    def between(u):
        s = u[i] * g2[j] - u[j] * g2[i]  # d times the coefficient of g1
        t = g1[i] * u[j] - g1[j] * u[i]  # d times the coefficient of g2
        return s * d >= 0 and t * d >= 0

    bound = [g1[k] + g2[k] for k in range(3)]
    points = {
        u
        for u in product(*(range(b + 1) for b in bound))
        if u != (0, 0, 0) and _dot(n, u) == 0 and between(u)
    }
    basis = []
    for u in points:
        if not any(
            a != u
            and all(a[k] <= u[k] for k in range(3))
            and (u[0] - a[0], u[1] - a[1], u[2] - a[2]) in points
            for a in points
        ):
            basis.append(u)
    return tuple(sorted(basis))


def _box(gens) -> list[range]:
    """Per coordinate, the range spanned by all partial sums of gens."""
    return [
        range(
            sum(min(0, g[i]) for g in gens), sum(max(0, g[i]) for g in gens) + 1
        )
        for i in range(3)
    ]


def supporting_normals(gens) -> list[Vec]:
    """Inner normals of the planes through two rays of a 3-D cone that
    leave every ray on one side; the cone is where all are >= 0."""
    out = []
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            n = _cross(a, b)
            if n == (0, 0, 0):
                continue
            values = [_dot(n, g) for g in gens]
            if all(v >= 0 for v in values):
                out.append(n)
            elif all(v <= 0 for v in values):
                out.append((-n[0], -n[1], -n[2]))
    return out


def octant_tiling_defects(cones, side: int = 6) -> list[tuple[Vec, str]]:
    """Points of {0..side}^3 other than 0 where 3-dimensional cones, given
    by their rays, fail to tile the octant: "gap" when no closed cone holds
    the point, "overlap" when the open interiors of two cones do."""
    normals = [supporting_normals(list(gens)) for gens in cones]
    defects = []
    for u in product(range(side + 1), repeat=3):
        if u == (0, 0, 0):
            continue
        values = [[_dot(n, u) for n in ns] for ns in normals]
        if not any(all(v >= 0 for v in vs) for vs in values):
            defects.append((u, "gap"))
        elif sum(all(v > 0 for v in vs) for vs in values) > 1:
            defects.append((u, "overlap"))
    return defects


def box_parallelepiped_points(gens) -> tuple[Vec, ...]:
    """Lattice points of {sum t_i g_i : 0 <= t_i <= 1} for 2 or 3
    independent generators, by testing every point of the box."""
    points = []
    if len(gens) == 3:
        g1, g2, g3 = gens
        det = _dot(g1, _cross(g2, g3))
        s = 1 if det > 0 else -1
        rows = (_cross(g2, g3), _cross(g3, g1), _cross(g1, g2))
        for u in product(*_box(gens)):
            if all(0 <= s * _dot(u, n) <= s * det for n in rows):
                points.append(u)
    else:
        g1, g2 = gens
        n = _cross(g1, g2)
        k = _dot(n, n)
        for u in product(*_box(gens)):
            if _dot(n, u) != 0:
                continue
            a = _dot(_cross(u, g2), n)
            b = _dot(_cross(g1, u), n)
            if 0 <= a <= k and 0 <= b <= k:
                points.append(u)
    return tuple(sorted(points))


def box_profile_points(gens) -> list[Vec]:
    """Nonzero lattice points of conv(0, gens) for the extremal rays of a
    2- or 3-D cone, by box search.

    For two rays a, b this is the triangle conv(0, a, b): a box point in
    their plane whose coordinates in a and b, by Cramer's rule against the
    normal n = a x b, are non-negative with sum at most 1.  For three or
    more, a point is in the hull exactly when it is in some simplex
    conv(0, a, b, c) over independent rays a, b, c: coning the hull's
    off-origin facets from 0 covers it with such simplices.
    """
    box = [
        range(min(0, min(g[i] for g in gens)), max(0, max(g[i] for g in gens)) + 1)
        for i in range(3)
    ]
    if len(gens) == 2:
        a, b = gens
        n = _cross(a, b)
        k = _dot(n, n)
        out = []
        for u in product(*box):
            if u == (0, 0, 0) or _dot(n, u) != 0:
                continue
            s, t = _dot(_cross(u, b), n), _dot(_cross(a, u), n)
            if s >= 0 and t >= 0 and s + t <= k:
                out.append(u)
        return out
    simplices = []
    for i, a in enumerate(gens):
        for j in range(i + 1, len(gens)):
            for c in gens[j + 1:]:
                b = gens[j]
                det = _dot(a, _cross(b, c))
                if det:
                    rows = (_cross(b, c), _cross(c, a), _cross(a, b))
                    simplices.append((det, rows))
    out = []
    for u in product(*box):
        if u == (0, 0, 0):
            continue
        for det, rows in simplices:
            lam = [Fraction(_dot(u, n), det) for n in rows]
            if all(x >= 0 for x in lam) and sum(lam) <= 1:
                out.append(u)
                break
    return out


def box_is_irreducible(gens, v: Vec) -> bool:
    """Is v, a nonzero point of the 3-D octant cone over gens, a sum of two
    nonzero lattice points of the cone?  Searched componentwise below v."""
    normals = supporting_normals(gens)
    inside = lambda u: all(_dot(n, u) >= 0 for n in normals)
    if any(c < 0 for g in gens for c in g):
        raise ValueError("oracle assumes the octant")
    if v == (0, 0, 0) or not inside(v):
        raise ValueError("oracle needs a nonzero point of the cone")
    for a in product(range(v[0] + 1), range(v[1] + 1), range(v[2] + 1)):
        if a == (0, 0, 0) or a == v or 2 * sum(a) > sum(v):
            continue
        if inside(a) and inside((v[0] - a[0], v[1] - a[1], v[2] - a[2])):
            return False
    return True


def det3(a: Vec, b: Vec, c: Vec) -> int:
    return _dot(a, _cross(b, c))


def _solve_exact(rows, rhs):
    """Fraction-free Gauss-Jordan elimination on integer rows: the unique
    solution of rows*x = rhs as Fractions, or None when there is none or it
    is not unique."""
    m, n = len(rows), len(rows[0])
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [pv * x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if len(pivots) < n or any(aug[i][n] != 0 for i in range(r, m)):
        return None
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = Fraction(aug[i][n], aug[i][col])
    return sol


def _zero_in_convex_hull(points) -> bool:
    """Is 0 a convex combination of at most four of the points?"""
    if (0, 0, 0) in points:
        return True
    for k in (2, 3, 4):
        for subset in combinations(points, k):
            rows = [[p[i] for p in subset] for i in range(3)]
            rows.append([1] * k)
            lam = _solve_exact(rows, [0, 0, 0, 1])
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def _in_cone_span(v: Vec, gens) -> bool:
    """Is v a non-negative combination of one, two or three of gens?
    Decided by Cramer's rule on each independent subset."""
    for g in gens:
        if _cross(v, g) == (0, 0, 0) and _dot(v, g) > 0:
            return True
    for g1, g2 in combinations(gens, 2):
        n = _cross(g1, g2)
        if n == (0, 0, 0) or _dot(n, v) != 0:
            continue
        for i, j in ((0, 1), (0, 2), (1, 2)):
            d = g1[i] * g2[j] - g1[j] * g2[i]
            if d:
                da = v[i] * g2[j] - v[j] * g2[i]
                db = g1[i] * v[j] - g1[j] * v[i]
                if da * d >= 0 and db * d >= 0:
                    return True
                break  # the representation in this pair is unique
    for g1, g2, g3 in combinations(gens, 3):
        d = det3(g1, g2, g3)
        if d and all(x * d >= 0 for x in (det3(v, g2, g3), det3(g1, v, g3), det3(g1, g2, v))):
            return True
    return False


def caratheodory_extremal_rays(vectors) -> tuple[Vec, ...]:
    """Sorted primitive extremal rays of the cone over vectors.

    The cone is pointed exactly when 0 is not in the convex hull of the
    nonzero generators, and a generator is extremal exactly when it is not
    in the cone of the others; both are searched over Caratheodory subsets.
    Raises the ValueError torfan raises on a non-pointed cone.
    """
    rays: list[Vec] = []
    for v in vectors:
        t = (int(v[0]), int(v[1]), int(v[2]))
        g = gcd(gcd(abs(t[0]), abs(t[1])), abs(t[2]))
        if g and (t[0] // g, t[1] // g, t[2] // g) not in rays:
            rays.append((t[0] // g, t[1] // g, t[2] // g))
    if _zero_in_convex_hull(rays):
        raise ValueError("generators span a non-pointed cone")
    return tuple(
        sorted(g for g in rays if not _in_cone_span(g, [h for h in rays if h != g]))
    )


def _rank3(vectors) -> int:
    """Rank of integer 3-vectors, by their determinants and cross products."""
    if any(det3(a, b, c) for a, b, c in combinations(vectors, 3)):
        return 3
    if any(_cross(a, b) != (0, 0, 0) for a, b in combinations(vectors, 2)):
        return 2
    return 1 if any(v != (0, 0, 0) for v in vectors) else 0


def groebner_fan_oracle(terms, maximal) -> list[tuple[int, tuple[Vec, ...], dict]]:
    """(dim, sorted rays, initial-form terms) of every Groebner cone of the
    polynomial with ``terms`` (exponent -> coefficient), sorted, given the
    ray tuples of the 3-dimensional maximal dual cones.

    The faces are each cone, the rays on each of its supporting planes
    through two rays, and each ray.  A face's initial form holds the terms
    of least w.a at the sum w of its rays.  A face is dropped when a face
    of higher dimension with the same initial-form support holds each of
    its rays.
    """
    faces = set()
    for gens in maximal:
        gens = sorted(gens)
        faces.add((_rank3(gens), tuple(gens)))
        for n in supporting_normals(gens):
            faces.add((2, tuple(g for g in gens if _dot(n, g) == 0)))
        faces.update((1, (g,)) for g in gens)
    forms = {}
    for dim, rays in faces:
        w = tuple(sum(r[i] for r in rays) for i in range(3))
        least = min(_dot(w, a) for a in terms)
        forms[dim, rays] = {a: c for a, c in terms.items() if _dot(w, a) == least}
    return sorted(
        (dim, rays, form)
        for (dim, rays), form in forms.items()
        if not any(
            big > dim
            and set(other) == set(form)
            and all(_in_cone_span(r, big_rays) for r in rays)
            for (big, big_rays), other in forms.items()
        )
    )


def brute_newton_polyhedron(support):
    """(vertices, facets, compact faces) of NP = conv(support) + octant, by
    triples over all the support points and the unit directions: the
    sorted vertices, the sorted facets (w, o) with w·x >= o on NP, and the
    compact faces (the vertices on the face, its dimension), sorted by
    dimension and then vertices.

    Three support points, two points and a direction, or one point and two
    directions span a plane; when the plane has NP on one side it meets NP
    in a 2-dimensional face, a facet (w, o) with w·x >= o.  A support point
    is a vertex when the facets through it have normals of rank 3.  A
    facet is compact when it holds no direction (w > 0); two vertices span
    a compact edge when the facets through both have normals of rank 2.
    """
    points = sorted(set(support))
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    candidates = []
    for p1, p2, p3 in combinations(points, 3):
        candidates.append((p1, _cross(_sub(p2, p1), _sub(p3, p1))))
    for p1, p2 in combinations(points, 2):
        candidates += [(p1, _cross(_sub(p2, p1), d)) for d in units]
    for p1 in points:
        candidates += [(p1, _cross(d1, d2)) for d1, d2 in combinations(units, 2)]
    facets = set()
    for p1, n in candidates:
        g = gcd(gcd(abs(n[0]), abs(n[1])), abs(n[2]))
        if g == 0:
            continue
        for w in ((n[0] // g, n[1] // g, n[2] // g), (-n[0] // g, -n[1] // g, -n[2] // g)):
            o = _dot(w, p1)
            if min(w) >= 0 and all(_dot(w, q) >= o for q in points):
                facets.add((w, o))
    facets = sorted(facets)
    through = {p: [w for w, o in facets if _dot(w, p) == o] for p in points}
    vertices = tuple(p for p in points if _rank3(through[p]) == 3)
    compact = [
        (tuple(v for v in vertices if _dot(w, v) == o), 2) for w, o in facets if min(w) > 0
    ]
    for u, v in combinations(vertices, 2):
        if _rank3([w for w in through[u] if w in through[v]]) == 2:
            compact.append(((u, v), 1))
    return vertices, tuple(facets), tuple(sorted(compact, key=lambda t: (t[1], t[0])))


def hull_facets_off_origin(points) -> list[tuple[int, int, int, int]]:
    """Primitive (a, b, c, d) with a·x + b·y + c·z + d <= 0 on conv(points),
    for each facet of the hull not through 0: the plane through each
    triple of points, kept when every point lies on one side of it."""
    seen = set()
    for p1, p2, p3 in combinations(points, 3):
        n = _cross(_sub(p2, p1), _sub(p3, p1))
        if n == (0, 0, 0):
            continue
        offset = _dot(n, p1)
        values = [_dot(n, q) - offset for q in points]
        if any(v > 0 for v in values):
            if any(v < 0 for v in values):
                continue
            n, offset = (-n[0], -n[1], -n[2]), -offset
        if offset == 0:
            continue
        g = gcd(gcd(gcd(abs(n[0]), abs(n[1])), abs(n[2])), abs(offset))
        seen.add((n[0] // g, n[1] // g, n[2] // g, -offset // g))
    return sorted(seen)


def subprofile_rows(gens_by_cone, planes_by_cone, vectors) -> list[dict]:
    """Per cone, the vectors it holds and the stated hyperplanes each meets.

    A cone holds v when ``_in_cone_span`` finds it in the span of at most
    three of its rays.  Each plane is an int (a, b, c, d); v reaches it when
    a*x + b*y + c*z + d is 0, and v is in the region when for some plane
    that value is 0 or has the sign of d, the origin's side.
    """
    out = []
    for gens, planes in zip(gens_by_cone, planes_by_cone):
        rows = []
        for v in vectors:
            if not _in_cone_span(v, gens):
                continue
            values = [_dot(plane[:3], v) + plane[3] for plane in planes]
            rows.append({
                "vector": list(v),
                "reaches": [k for k, x in enumerate(values) if x == 0],
                "in_region": any(
                    x == 0 or (x > 0) == (plane[3] > 0)
                    for x, plane in zip(values, planes)
                ),
            })
        out.append({"vectors": rows, "all_reach": all(r["reaches"] for r in rows)})
    return out


def octant_slice_volume(triples) -> Fraction:
    """Total volume under x+y+z <= 1 of a set of simplicial cone pieces.

    Each piece contributes |det|/(6 * l1 * l2 * l3) where l is the
    coordinate sum of a generator: the simplex cut out of the piece by the
    plane has vertices 0 and g_i / l(g_i).
    """
    total = Fraction(0)
    for g1, g2, g3 in triples:
        total += Fraction(
            abs(det3(g1, g2, g3)), 6 * sum(g1) * sum(g2) * sum(g3)
        )
    return total


def _coefficients(piece, v):
    """v in the rays of a simplicial piece (two or three rays) by Cramer's
    rule, as integer numerators over one positive denominator; None when v
    is off the plane of a planar piece."""
    if len(piece) == 3:
        a, b, c = piece
        d = det3(a, b, c)
        s = 1 if d > 0 else -1
        return [s * det3(v, b, c), s * det3(a, v, c), s * det3(a, b, v)], s * d
    a, b = piece
    n = _cross(a, b)
    if _dot(n, v) != 0:
        return None
    return [_dot(_cross(v, b), n), _dot(_cross(a, v), n)], _dot(n, n)


def _coefficient_sum(piece, v) -> Fraction:
    nums, den = _coefficients(piece, v)
    return Fraction(sum(nums), den)


def _holds(piece, v) -> bool:
    """v lies in the piece and is not one of its rays."""
    if v in piece:
        return False
    if len(piece) > 3:
        return all(_dot(n, v) >= 0 for n in supporting_normals(list(piece)))
    lam = _coefficients(piece, v)
    return lam is not None and min(lam[0]) >= 0


def _pull(piece, v) -> list[tuple]:
    """The pieces of a piece pulled at v, each a sorted tuple of rays: a
    simplex swaps v in for each ray whose coefficient of v is positive, and a
    non-simplicial cone joins v to each facet (a ray pair) that misses v."""
    if len(piece) > 3:
        facets = {
            tuple(g for g in piece if _dot(n, g) == 0)
            for n in supporting_normals(list(piece))
            if _dot(n, v) > 0
        }
        return [tuple(sorted((v, *f))) for f in sorted(facets)]
    return [
        tuple(sorted(v if j == i else g for j, g in enumerate(piece)))
        for i, x in enumerate(_coefficients(piece, v)[0])
        if x > 0
    ]


def lattice_index(piece) -> int:
    """|det| of three rays, or the gcd of the 2x2 minors of two."""
    if len(piece) == 3:
        return abs(det3(*piece))
    n = _cross(*piece)
    return gcd(gcd(abs(n[0]), abs(n[1])), abs(n[2]))


def _least_half_open_point(piece) -> Vec:
    """The nonzero u = sum t_i g_i with 0 <= t_i < 1 of least (sum t_i, u).

    A planar piece (a, b) is completed by the unit vector e_i of least
    nonzero |(a x b)_i|, and keeps the points with t_3 = 0.  The lattice
    of the three rays has a lower-triangular basis whose diagonal has
    h1 = the gcd of the rays' first coordinates, h1*h2 = the gcd of their
    2x2 minors in the first two, and h1*h2*h3 = |det|.  The points of the
    box 0 <= x < h1, 0 <= y < h2, 0 <= z < h3 then meet each class of
    Z^3 modulo that lattice once, and the fractional parts of a point's
    coefficients give its class's point of the parallelepiped.
    """
    gens = list(piece)
    if len(gens) == 2:
        _, i = min((abs(x), i) for i, x in enumerate(_cross(*gens)) if x)
        gens.append(tuple(int(k == i) for k in range(3)))
    h1 = gcd(*(g[0] for g in gens))
    h12 = gcd(*(_cross(a, b)[2] for a, b in combinations(gens, 2)))
    best = None
    for r in product(range(h1), range(h12 // h1), range(abs(det3(*gens)) // h12)):
        nums, den = _coefficients(gens, r)
        t = [Fraction(x % den, den) for x in nums]
        if not any(t) or (len(piece) == 2 and t[2]):
            continue
        u = tuple(int(sum(x * g[k] for x, g in zip(t, gens))) for k in range(3))
        if best is None or (sum(t), u) < best:
            best = (sum(t), u)
    return best[1]


def _scan_insert(pieces, v, pulled) -> list[tuple]:
    """Test every piece for v; pull each that holds it, noting it in pulled."""
    out = []
    for p in pieces:
        if _holds(p, v):
            pulled.append(p)
            out.extend(_pull(p, v))
        else:
            out.append(p)
    return out


def _profile_level(gens):
    """v's height against conv(0, gens): its coefficient sum on a simplicial
    cone, else the greatest a.v / -d over the hull facets off the origin."""
    if len(gens) <= 3:
        return lambda v: _coefficient_sum(gens, v)
    planes = hull_facets_off_origin([(0, 0, 0), *gens])
    return lambda v: max(Fraction(_dot(pl[:3], v), -pl[3]) for pl in planes)


def scan_ray_pieces(gens, rays, pool=(), pulled=None) -> list[tuple]:
    """Pieces, as sorted ray tuples, of the cone over the extremal rays gens
    with rays inserted by increasing (profile level, v), each insertion
    testing every piece.  A non-simplicial cone that no ray split is pulled
    at its least-level pool point, or else at its least ray.  Every piece
    pulled is appended to pulled."""
    gens = tuple(sorted(gens))
    level = _profile_level(gens)
    pulled = [] if pulled is None else pulled
    pieces = [gens]
    for v in sorted(rays, key=lambda v: (level(v), v)):
        pieces = _scan_insert(pieces, v, pulled)
    if pieces == [gens] and len(gens) > 3:
        inside = [h for h in pool if _holds(gens, h)]
        pulled.append(gens)
        pieces = _pull(gens, min(inside, key=lambda h: (level(h), h)) if inside else min(gens))
    return pieces


def scan_hilbert_pieces(gens, basis) -> tuple[list[tuple], bool, list[tuple]]:
    """Regular pieces of the cone over gens split at points of its Hilbert
    basis, whether the fallback ran, and every piece pulled on the way.

    The basis points on a boundary facet go in first (``scan_ray_pieces``).
    Then, while a piece has lattice index above 1, the least such piece by
    rays is tau; the basis point of least coefficient sum that tau holds is
    inserted, or, when tau holds none, tau's least nonzero half-open point
    (the fallback), each insertion testing every piece.
    """
    gens = tuple(sorted(gens))
    normals = supporting_normals(list(gens)) if len(gens) > 2 else []
    boundary = [h for h in basis if h not in gens and any(_dot(n, h) == 0 for n in normals)]
    pulled: list[tuple] = []
    pieces = scan_ray_pieces(gens, boundary, basis, pulled)
    used_fallback = False
    while worst := [p for p in pieces if lattice_index(p) != 1]:
        tau = min(worst)
        pool = [h for h in basis if _holds(tau, h)]
        if pool:
            chosen = min(pool, key=lambda h: (_coefficient_sum(tau, h), h))
        else:
            chosen = _least_half_open_point(tau)
            used_fallback = True
        pieces = _scan_insert(pieces, chosen, pulled)
        if tau in pieces:
            raise RuntimeError(f"the scan left {tau} unsplit at {chosen}")
    return pieces, used_fallback, pulled


def random_simplicial_octant_cones(count: int, max_entry: int, seed: int):
    """Deterministic pseudo-random independent generator triples."""
    import random

    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        triple = [
            tuple(rng.randint(0, max_entry) for _ in range(3)) for _ in range(3)
        ]
        if any(v == (0, 0, 0) for v in triple):
            continue
        g1, g2, g3 = triple
        if _dot(g1, _cross(g2, g3)) == 0:
            continue
        cones.append((g1, g2, g3))
    return cones


def sympy_jet_oracle(p, m):
    """Truncated-series jet equations by sympy's ring series.

    Substitutes x = x0 + x1 t + ... + xm t^m (likewise y, z) into f, with
    every power and product truncated at t^(m+1) (``rs_pow``/``rs_mul``),
    and reads off the t^0..t^m coefficients.  Returns the variable names
    x0, y0, z0, x1, ... and, for each t-degree, the exact coefficient dict
    keyed by exponent tuples over those variables.  Shares no code with
    torfan.valuation.jet_equations.
    """
    from sympy import ZZ
    from sympy.polys.ring_series import rs_mul, rs_pow
    from sympy.polys.rings import ring

    names = [f"{axis}{j}" for j in range(m + 1) for axis in "xyz"]
    R, t, *gens = ring(["t", *names], ZZ)
    series = [
        sum((gens[3 * j + axis] * t**j for j in range(m + 1)), R.zero)
        for axis in range(3)
    ]
    f = R.zero
    for exponent, coeff in p:
        term = R(coeff)
        for s, e in zip(series, exponent):
            if e:
                term = rs_mul(term, rs_pow(s, e, t, m + 1), t, m + 1)
        f += term
    expected = [{} for _ in range(m + 1)]
    for (degree, *rest), coeff in f.terms():
        expected[degree][tuple(rest)] = int(coeff)
    return tuple(names), expected


def jets_match_oracle(p, m, system, oracle=None) -> bool:
    """Exact equality of a JetSystem's coefficient dicts with the oracle's.

    Pass oracle=(names, expected) computed at order >= m to reuse one
    expansion across several truncation orders (F_i is m-independent); the
    system's exponent tuples are padded with zeros to the oracle's variables.
    """
    names, expected = oracle if oracle is not None else sympy_jet_oracle(p, m)
    pad = (0,) * (len(names) - 3 * (m + 1))
    dicts = [
        {term + pad: coeff for term, coeff in eq.items()}
        for eq in system.equation_dicts()
    ]
    return dicts == expected[: m + 1]


CLI_SCHEMA = Path(__file__).resolve().parents[1] / "src/torfan/data/cli_schema.json"


class SchemaError(ValueError):
    pass


@cache
def _cli_schema() -> dict:
    return json.loads(CLI_SCHEMA.read_text())


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
    "number": (int, float),
}


def _check_schema(obj, schema: dict, defs: dict, path: str) -> None:
    if "$ref" in schema:
        _check_schema(obj, defs[schema["$ref"]], defs, path)
        return
    t = schema.get("type")
    if t is not None:
        ok = isinstance(obj, _TYPES[t])
        if t in ("integer", "number") and isinstance(obj, bool):
            ok = False
        if not ok:
            raise SchemaError(f"{path}: expected {t}, got {type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise SchemaError(f"{path}: {obj!r} not in {schema['enum']}")
    if isinstance(obj, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in obj:
                raise SchemaError(f"{path}: missing key {key!r}")
        extra_ok = schema.get("additionalProperties", True)
        for key, val in obj.items():
            if key in props:
                _check_schema(val, props[key], defs, f"{path}.{key}")
            elif extra_ok is False:
                raise SchemaError(f"{path}: unexpected key {key!r}")
    if isinstance(obj, list):
        if "minItems" in schema and len(obj) < schema["minItems"]:
            raise SchemaError(f"{path}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(obj) > schema["maxItems"]:
            raise SchemaError(f"{path}: more than {schema['maxItems']} items")
        items = schema.get("items")
        if items is not None:
            for i, val in enumerate(obj):
                _check_schema(val, items, defs, f"{path}[{i}]")


def validate_output(verb_key: str, obj) -> None:
    """Raise SchemaError unless obj matches the published schema for the verb."""
    schema = _cli_schema()
    _check_schema(obj, schema["verbs"][verb_key], schema["definitions"], "$")
