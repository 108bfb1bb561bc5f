"""The package's records: each is a ``typing.NamedTuple``, so it reads,
prints, compares and hashes by its fields and cannot be assigned to."""

import importlib
import pkgutil

import pytest

import thrcalc

MODULES = [importlib.import_module(f"thrcalc.{m.name}")
           for m in pkgutil.iter_modules(thrcalc.__path__)]
RECORDS = sorted(
    (cls for module in MODULES for cls in vars(module).values()
     if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
     and cls.__module__ == module.__name__),
    key=lambda cls: cls.__name__,
)

DEFAULTS = {
    "StructureReport": {"detail": "all identities hold"},
    "ComparisonWitness": {"detail": "bijective and structure-compatible"},
    "PowerMapWitness": {"detail": "bijective onto the fixed simplices, structure-compatible"},
}

# the field whose truth a record's ``__bool__`` reports; any other record is
# always true, as a nonempty tuple
TRUTH = {
    "StructureReport": "ok",
    "ComparisonWitness": "ok",
    "PowerMapWitness": "ok",
    "SesReport": "exactness",
    "ExactnessReport": "ok",
}


def test_every_record_is_found():
    assert len(RECORDS) == 25
    assert set(DEFAULTS) | set(TRUTH) <= {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_lists_the_fields(cls):
    rec = cls(*(f"v{i}" for i in range(len(cls._fields))))
    shown = cls._fields[:2] if cls.__name__ == "MackeyZ2" else cls._fields
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{f}={getattr(rec, f)!r}' for f in shown)})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(cls):
    rec = cls(*range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None  # no instance dictionary either
    assert rec == tuple(range(len(cls._fields)))  # a record is a tuple


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_defaults(cls):
    defaults = DEFAULTS.get(cls.__name__, {})
    assert cls._field_defaults == defaults
    required = len(cls._fields) - len(defaults)
    rec = cls(*range(required))
    assert rec._asdict() == {**dict(zip(cls._fields, range(required))), **defaults}
    assert rec == cls(*range(required), *defaults.values())
    assert hash(rec) == hash(cls(*range(required), *defaults.values()))
    assert rec._replace(**{cls._fields[0]: -1}) != rec


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_truth(cls):
    field = TRUTH.get(cls.__name__)
    for value in (True, False):
        rec = cls(**{name: value if name == field else None for name in cls._fields})
        assert bool(rec) is (value if field else True)
