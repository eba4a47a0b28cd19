"""The record contract: every record of the package copies, deep-copies and
pickles to an equal record, refuses assignment to its fields, and hashes
by value where it is hashable."""

import copy
import json
import pickle

import pytest

from torfan.catalog import (
    CatalogEntry,
    CatalogHyperplane,
    Instance,
    _elliptic1,
    default_grid,
    entry,
    families,
    instance,
    verify,
)
from torfan.cones import Cone, hilbert_basis
from torfan.newton import Fan, dual_newton_cones
from torfan.polyparse import parse_polynomial
from torfan.profile import AffineFunctional, profile
from torfan.refine import refine_fan, regular_refinement
from torfan.valuation import groebner_fan, jet_equations, tropical_variety

ELL = "y^3 + x*z^2 - x^4"


def _cached_cone() -> Cone:
    c = Cone.from_generators([(1, 0, 0), (0, 0, 1), (3, 1, 0), (6, 8, 9)])
    profile(c).level((1, 1, 1))
    hilbert_basis(c)
    assert {"hilbert", "profile"} <= set(vars(c))
    return c


def _entry() -> CatalogEntry:
    # A3 with importable functions only: the registry's lambdas do not pickle
    a3 = entry("A3")
    return CatalogEntry(
        name=a3.name,
        parameters=a3.parameters,
        constraint=a3.constraint,
        domain=a3.domain,
        template=a3.template,
        grid=a3.grid,
        stated=_elliptic1,
    )


def _instance() -> Instance:
    ent = _entry()
    inst = Instance(ent, dict(ent.grid[0]))
    inst.poly, inst.stated
    assert {"poly", "stated"} <= set(vars(inst))
    return inst


def _records():
    """One instance of each record class, with the field assigned to."""
    p = parse_polynomial(ELL)
    cone = _cached_cone()
    functional = AffineFunctional.from_integers(3, -1, 0, 1)
    assert not hasattr(functional, "__dict__")
    refinement = regular_refinement(cone)
    trop = tropical_variety(p)
    fixture = instance("E60").fixture
    return [
        (p, "support"),
        (cone, "generators"),
        (hilbert_basis(cone), "elements"),
        (functional, "d"),
        (profile(cone), "bounding"),
        (trop, "rays"),
        (trop.cones[0], "label"),
        (refinement, "result"),
        (groebner_fan(p)[0], "initial_form"),
        (jet_equations(p, 2), "order"),
        (CatalogHyperplane(functional, recomputed=True), "recomputed"),
        (instance("B-odd", {"r": 2, "n": 2}).stated, "cones"),
        (_entry(), "template"),
        (_instance(), "params"),
        (fixture, "cones"),
        (fixture.cones[0], "hilbert"),
        (verify("E60"), "overall"),
    ]


RECORDS = _records()


def test_every_record_class_is_covered():
    assert len({type(r) for r, _ in RECORDS}) == len(RECORDS) == 17


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_records_copy_pickle_and_stay_read_only(record, field):
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(clone) is type(record)
        assert clone == record
        try:
            h = hash(record)
        except TypeError:  # a list or dict field
            continue
        assert hash(clone) == h
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize(
    "index, contents",
    [(0, None), (2, "elements"), (9, None)],
    ids=["Polynomial", "HilbertBasis", "JetSystem"],
)
def test_sequence_records_are_tuples_of_their_contents(index, contents):
    # no instance dict, equal to the plain tuple of their contents; a
    # Hilbert basis also returns that tuple as ``elements``
    record = RECORDS[index][0]
    assert isinstance(record, tuple) and not hasattr(record, "__dict__")
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    if contents:
        assert type(getattr(record, contents)) is tuple and getattr(record, contents) == record


def test_a_pickled_cone_keeps_its_cached_basis_and_profile():
    cone = RECORDS[1][0]
    clone = pickle.loads(pickle.dumps(cone))
    assert {"hilbert", "profile"} <= set(vars(clone))
    assert clone.hilbert == cone.hilbert and clone.profile == cone.profile
    assert type(clone.hilbert) is type(cone.hilbert)
    # the simplex builder records the |det| it computed
    rays = [(0, 1, 0), (3, 1, 0), (6, 8, 9)]  # det -27
    simplex = Cone._simplex(*rays)
    assert vars(simplex) == {"multiplicity": 27}
    for clone in (copy.copy(simplex), copy.deepcopy(simplex), pickle.loads(pickle.dumps(simplex))):
        assert vars(clone) == {"multiplicity": 27}
    # (3, 9, 0) is not extremal, so this cone is built by the facet search,
    # not by the simplex builder, and records nothing
    plain = Cone.from_generators([*rays, (3, 9, 0)])
    assert vars(plain) == {}
    assert plain == simplex and hash(plain) == hash(simplex)
    assert plain.multiplicity == 27


# Brieskorn x^a+y^b+z^c rungs, the resolve path's ladder
LADDER = (
    (2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 3, 11), (2, 5, 7),
    (2, 3, 13), (3, 4, 7), (2, 5, 9), (3, 5, 7), (2, 5, 11),
)


def _to_objs():
    """The ``to_obj()`` of every grid report and of each ladder rung's
    refinement, tropical variety, jets and dual fan."""
    objs = [verify(f, ps).to_obj() for f in families() for ps in default_grid(f)]
    assert len(objs) == 45
    for a, b, c in LADDER:
        p = parse_polynomial(f"x^{a}+y^{b}+z^{c}")
        cones = [cone for cone, _ in dual_newton_cones(p)]
        objs += [
            refine_fan(cones).to_obj(),
            tropical_variety(p).to_obj(),
            jet_equations(p, 3).to_obj(),
            Fan.from_cones(cones).to_obj(),
        ]
    return objs


def test_to_obj_is_json_data():
    # lists, not tuples, all the way down: a JSON round trip gives back an
    # equal object, so no report holds a tuple that would load as a list
    for obj in _to_objs():
        assert obj == json.loads(json.dumps(obj))
