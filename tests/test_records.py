"""Records against the stdlib reference.

Every class declared with ``repro.records.record`` in ``src/`` is found by
a scan of the package's source, rebuilt under ``dataclasses.dataclass``
with the same options, and checked to behave the same: fields,
signature, equality, hashes, repr, ordering, frozenness, ``replace``,
pickling and instance size. Only ``__init__`` may be compiled per class,
and no record instance has an attribute dict.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pickle
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import records

SRC = pathlib.Path(repro.__file__).parent

#: The methods the stdlib would generate for a (slotted) record.
GENERATED = {
    "__init__", "__repr__", "__eq__", "__hash__",
    "__lt__", "__le__", "__gt__", "__ge__", "__setattr__", "__delattr__",
    "__getstate__", "__setstate__",
}
#: records.py's per-class data (the compared fields and their getter).
RECORD_DATA = {"_record_key", "_record_names"}
#: Class attributes the stdlib decorator or the class statement makes.
NOT_FROM_THE_BODY = {
    "__dict__", "__weakref__", "__doc__", "__dataclass_fields__",
    "__dataclass_params__", "__match_args__", "__slots__",
} | GENERATED | RECORD_DATA


def _options(decorator):
    """``record`` decorator options, or None for another decorator."""
    if isinstance(decorator, ast.Name) and decorator.id == "record":
        return {}
    if (
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Name)
        and decorator.func.id == "record"
    ):
        return {kw.arg: ast.literal_eval(kw.value) for kw in decorator.keywords}
    return None


def _modules():
    """Every module of the package, by dotted name, with its source path."""
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__main__.py":
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts), path


def _scan():
    """``(module, class name, options, docstring)`` of every declared record."""
    found = []
    for module, path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    options = _options(decorator)
                    if options is not None:
                        found.append((module, node.name, options, ast.get_docstring(node, clean=False)))
    return found


DECLARED = _scan()


def _rebuilt(cls, options, doc=None, slots=False):
    """``cls`` rebuilt from its class body under ``dataclasses.dataclass``.

    A slot's member descriptor is not from the body; a field's default
    is. The stdlib takes no ``memo`` option.
    """
    namespace = {"__doc__": doc}
    for name, value in vars(cls).items():
        if name in NOT_FROM_THE_BODY:
            if name in GENERATED - {"__init__"} and value is not None and not _from_records(value):
                namespace[name] = value  # written in the class body
        elif not isinstance(value, types.MemberDescriptorType):  # a slot
            namespace[name] = value
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            namespace[f.name] = dataclasses.field(default_factory=f.default_factory)
        elif f.default is not dataclasses.MISSING:
            namespace[f.name] = f.default
    options = {k: v for k, v in options.items() if k != "memo"}
    return dataclasses.dataclass(slots=slots, **options)(type(cls.__name__, (), namespace))


def _from_records(value):
    return getattr(value, "__module__", None) == records.__name__


def _pairs():
    pairs = []
    for module, name, options, doc in DECLARED:
        cls = getattr(importlib.import_module(module), name)
        pairs.append(pytest.param(cls, _rebuilt(cls, options, doc), options, id=name))
    return pairs


PAIRS = _pairs()

#: Values for a field, by its annotation; any other annotation draws from
#: a mix of hashable values.
_BY_TYPE = {
    "int": st.integers(-(2**40), 2**40),
    "bytes": st.binary(max_size=6),
    "str": st.text(max_size=4),
    "bool": st.booleans(),
    "float": st.floats(allow_nan=False),
}
_ANY = st.one_of(
    st.none(), st.integers(-9, 9), st.binary(max_size=3), st.tuples(st.integers(0, 3))
)


def _values(cls):
    """Constructor keyword arguments; a field with a default may be left out."""
    per_field = {}
    for f in dataclasses.fields(cls):
        value = _BY_TYPE.get(f.type, _ANY)
        has_default = not (
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        )
        per_field[f.name] = st.one_of(st.just(None), value) if has_default else value
    return st.fixed_dictionaries(per_field).map(
        lambda drawn: {name: value for name, value in drawn.items() if value is not None}
    )


def _build(cls, kwargs):
    """``(instance, None)``, or ``(None, exception type)`` if ``__init__`` raised."""
    try:
        return cls(**kwargs), None
    except Exception as exc:  # a __post_init__ check
        return None, type(exc)


def _outcome(fn, *args):
    """``fn(*args)``, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # an unhashable or unorderable field value
        return type(exc)


def test_scan_finds_every_dataclass_in_the_package():
    dataclass_types = set()
    for name, _ in _modules():
        module = importlib.import_module(name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == name
            ):
                dataclass_types.add(value)
    declared = {getattr(sys.modules[module], name) for module, name, *_ in DECLARED}
    assert dataclass_types == declared
    assert len(declared) == 91
    options = [tuple(sorted(o.items())) for *_, o, _ in DECLARED]
    assert options.count((("frozen", True),)) == 58
    assert options.count((("frozen", True), ("memo", ("_signed_body",)))) == 6
    assert options.count((("frozen", True), ("memo", ("_canonical",)))) == 1
    assert options.count((("frozen", True), ("order", True))) == 1
    assert options.count(()) == 25


@pytest.mark.parametrize("cls, ref, options", PAIRS)
class TestAgainstStdlib:
    def test_fields(self, cls, ref, options):
        def described(c):
            return [
                (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.compare, f.hash)
                for f in dataclasses.fields(c)
            ]

        assert described(cls) == described(ref)
        assert cls.__match_args__ == ref.__match_args__
        assert cls.__doc__ == ref.__doc__

    def test_signature(self, cls, ref, options):
        def described(c):
            return [
                (p.name, p.kind, p.annotation, repr(p.default))
                for p in inspect.signature(c).parameters.values()
            ]

        assert described(cls) == described(ref)
        assert inspect.signature(cls.__init__).return_annotation is None

    def test_only_init_is_compiled_per_class(self, cls, ref, options):
        own = {
            name for name, value in vars(cls).items()
            if name in GENERATED and value is not None and not _from_records(value)
            and value is not vars(ref).get(name)  # written in the class body
        }
        assert own == {"__init__"}
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__
        for name in ("__eq__", "__repr__"):
            assert getattr(cls, name) in (getattr(records, f"_{name.strip('_')}"), getattr(ref, name))
        assert cls.__hash__ is (records._hash if options.get("frozen") else None)
        assert (ref.__hash__ is None) == (cls.__hash__ is None)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_same_behaviour(self, cls, ref, options, data):
        kwargs = data.draw(_values(cls))
        other_kwargs = data.draw(_values(cls))
        mine, error = _build(cls, kwargs)
        theirs, ref_error = _build(ref, kwargs)
        assert error == ref_error
        if error is not None:
            return
        other, _ = _build(cls, other_kwargs)
        ref_other, _ = _build(ref, other_kwargs)
        if other is None:
            other, ref_other = mine, theirs

        assert repr(mine) == repr(theirs)
        assert (mine == other) == (theirs == ref_other)
        assert mine == cls(**kwargs)
        assert mine.__eq__(theirs) is NotImplemented
        assert mine != theirs
        if cls.__hash__ is not None:
            # A set iterates in hash order, so the values must match too.
            assert _outcome(hash, mine) == _outcome(hash, theirs)
        if options.get("order"):
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert _outcome(getattr(mine, op), other) == _outcome(getattr(theirs, op), ref_other)
            assert mine.__lt__(theirs) is NotImplemented

        names = [f.name for f in dataclasses.fields(cls)]
        if options.get("frozen") and names:
            for obj in (mine, theirs):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, names[0], 1)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, names[0])
                with pytest.raises(dataclasses.FrozenInstanceError):
                    obj.not_a_field = 1

        copy = dataclasses.replace(mine)
        assert type(copy) is cls and copy == mine
        if names:
            changed = dataclasses.replace(mine, **{names[0]: getattr(other, names[0])})
            assert getattr(changed, names[0]) == getattr(other, names[0])
        restored = pickle.loads(pickle.dumps(mine))
        assert type(restored) is cls and restored == mine

    def test_same_instance_size(self, cls, ref, options):
        # A record is as small as the stdlib's slotted rebuild of the same
        # body, plus one pointer per declared memo, and has no dict.
        assert cls.__dictoffset__ == 0
        theirs_cls = _rebuilt(cls, options, slots=True)
        kwargs = {
            f.name: 0 for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        }
        mine, error = _build(cls, kwargs)
        theirs, ref_error = _build(theirs_cls, kwargs)
        assert error == ref_error
        if error is None:
            memos = len(options.get("memo", ()))
            assert sys.getsizeof(mine) == sys.getsizeof(theirs) + 8 * memos
            assert not hasattr(mine, "__dict__")


def test_options_and_unsupported_fields():
    @records.record(frozen=True, order=True)
    class Pair:
        a: int
        b: int = 2

    assert Pair(1) < Pair(1, 3) and Pair(1) == Pair(1, 2)
    assert sorted({Pair(2), Pair(1)}) == [Pair(1), Pair(2)]
    with pytest.raises(TypeError):
        @records.record
        class Hidden:
            a: int = dataclasses.field(default=0, repr=False)
    with pytest.raises(TypeError):
        @records.record(frozen=True, memo=("a",))
        class MemoNamedLikeAField:
            a: int
    with pytest.raises(TypeError):
        @records.record(frozen=True)
        class OwnSetattr:
            a: int

            def __setattr__(self, name, value):
                pass
