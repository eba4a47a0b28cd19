"""The record contract: every record of the package copies, deep-copies and
pickles to an equal record, refuses assignment to its fields, and hashes
by value where it is hashable."""

import copy
import pickle

import pytest

from torfan.catalog import (
    CatalogEntry,
    CatalogHyperplane,
    Instance,
    _elliptic1,
    entry,
    instance,
    verify,
)
from torfan.cones import Cone, hilbert_basis
from torfan.newton import newton_polyhedron
from torfan.polyparse import parse_polynomial
from torfan.profile import AffineFunctional, profile
from torfan.refine import regular_refinement
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
    assert functional.integer_form == vars(functional)["integer_form"]
    refinement = regular_refinement(cone)
    trop = tropical_variety(p)
    fixture = instance("E60").fixture
    return [
        (p, "terms"),
        (cone, "generators"),
        (hilbert_basis(cone), "elements"),
        (functional, "coeffs"),
        (profile(cone), "bounding"),
        (newton_polyhedron(p), "vertices"),
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
    assert len({type(r) for r, _ in RECORDS}) == len(RECORDS) == 18


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


def test_a_pickled_cone_keeps_its_cached_basis_and_profile():
    cone = RECORDS[1][0]
    clone = pickle.loads(pickle.dumps(cone))
    assert {"hilbert", "profile"} <= set(vars(clone))
    assert clone.hilbert == cone.hilbert and clone.profile == cone.profile
    assert clone.hilbert.cone is clone
