"""Record classes: slotted dataclass fields with one compiled method per class.

``@record``, ``@record(frozen=True)`` and ``@record(frozen=True,
order=True)`` declare every message, option set and result type in the
package. Field metadata comes from :func:`dataclasses.dataclass`, so
``dataclasses.fields``, ``replace``, ``is_dataclass``, the wire-size
sizers and pickling see an ordinary dataclass. Each class is rebuilt
once with ``__slots__``, as ``dataclass(slots=True)`` does, so no
instance carries an attribute dict. The other difference is what is
compiled: the stdlib generates ``__init__``, ``__repr__``, ``__eq__``,
``__hash__``, ``__setattr__`` and ``__delattr__`` (and four orderings)
through ``exec`` for every class, and a process pays that for every
class its imports declare. Here only ``__init__`` is compiled per class,
with the stdlib's body, so construction costs what the stdlib's does.
The other methods are written once below over an
:func:`operator.attrgetter` of the fields and return what the stdlib's
would: the same hash values, ``NotImplemented`` across classes, and
:class:`dataclasses.FrozenInstanceError`.

A record that memoizes a value on its instances declares the memo's
name, ``record(frozen=True, memo=("_signed_body",))``: it gets a slot
of its own, ``__init__`` sets it to ``None`` (so a ``replace`` copy
starts without one), and no other name can be set on an instance.

Fields take a default or a ``field(default_factory=...)``. A class body
may write its own ``__repr__``; the other ``field()`` options,
``ClassVar``/``InitVar`` pseudo-fields and a body ``__eq__``, ``__hash__``
or (for frozen or ordered records) ``__setattr__``/``__delattr__``/
ordering method are rejected rather than half-supported.
"""

from __future__ import annotations

import dataclasses
import inspect
import operator
import sys
from reprlib import recursive_repr

__all__ = ["record"]

_MISSING = dataclasses.MISSING


class _DefaultFactory:
    """Parameter default marking "call the field's default factory"."""

    def __repr__(self) -> str:
        return "<factory>"


_HAS_DEFAULT_FACTORY = _DefaultFactory()


def record(cls=None, /, *, frozen: bool = False, order: bool = False, memo: tuple = ()):
    """Make ``cls`` a record; usable bare or with ``frozen``/``order``/``memo``."""

    def wrap(cls):
        return _process(cls, frozen, order, tuple(memo))

    return wrap if cls is None else wrap(cls)


def _process(cls, frozen: bool, order: bool, memo: tuple):
    needs_doc = not cls.__doc__
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    if len(fields) != len(cls.__dataclass_fields__):
        raise TypeError(f"{cls.__name__}: records take no ClassVar or InitVar fields")
    for f in fields:
        kw_only = getattr(f, "kw_only", False)  # an option since Python 3.10
        if not (f.init and f.repr and f.compare and f.hash is None) or kw_only:
            raise TypeError(
                f"{cls.__name__}.{f.name}: record fields take only a default or default_factory"
            )
    names = tuple(f.name for f in fields)
    if len(set(names + memo)) != len(names) + len(memo):
        raise TypeError(f"{cls.__name__}: memo names must differ from the fields and each other")
    cls = _slotted(cls, names + memo)

    cls.__init__ = _init_fn(cls, fields, names, memo, frozen)
    cls._record_key = staticmethod(_tuple_getter(names))
    cls._record_names = names
    if "__repr__" not in cls.__dict__:  # as in the stdlib, the body's wins
        cls.__repr__ = _repr
    methods = {"__eq__": _eq, "__hash__": _hash if frozen else None}
    if order:
        methods.update(_ORDERING)
    if frozen:
        methods.update(
            __setattr__=_frozen_setattr,
            __delattr__=_frozen_delattr,
            __getstate__=_frozen_getstate,
            __setstate__=_frozen_setstate,
        )
    for name, method in methods.items():
        if name in cls.__dict__:
            raise TypeError(f"{cls.__name__}: a record cannot define {name} itself")
        setattr(cls, name, method)
    if needs_doc:
        signature = str(inspect.signature(cls)).replace(" -> None", "")
        cls.__doc__ = cls.__name__ + signature
    return cls


def _slotted(cls, slots):
    """``cls`` rebuilt with ``__slots__ = slots`` (fields, then memos).

    A slot is a class attribute, so the fields' defaults leave the class
    body; ``__init__`` and the field metadata keep them.
    """
    namespace = {
        name: value
        for name, value in cls.__dict__.items()
        if name not in slots and name not in ("__dict__", "__weakref__")
    }
    namespace["__slots__"] = slots
    slotted = type(cls)(cls.__name__, cls.__bases__, namespace)
    slotted.__qualname__ = cls.__qualname__
    return slotted


def _tuple_getter(names):
    """``obj -> (obj.a, obj.b, ...)``, a tuple for any number of names."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _init_fn(cls, fields, names, memo, frozen: bool):
    """Compile ``cls.__init__`` with the body ``dataclasses`` would give it,
    plus one ``None`` per memo."""
    self_name = "__dataclass_self__" if "self" in names else "self"
    namespace = {
        "__dataclass_builtins_object__": object,
        "_HAS_DEFAULT_FACTORY": _HAS_DEFAULT_FACTORY,
    }
    params, assignments = [self_name], []
    for f in fields:
        name = f.name
        if f.default_factory is not _MISSING:
            namespace[f"_dflt_{name}"] = f.default_factory
            params.append(f"{name}=_HAS_DEFAULT_FACTORY")
            value = f"_dflt_{name}() if {name} is _HAS_DEFAULT_FACTORY else {name}"
        else:
            if f.default is not _MISSING:
                namespace[f"_dflt_{name}"] = f.default
                params.append(f"{name}=_dflt_{name}")
            else:
                params.append(name)
            value = name
        assignments.append((name, value))
    assignments += [(name, "None") for name in memo]
    if frozen:
        body = [
            f"__dataclass_builtins_object__.__setattr__({self_name},{name!r},{value})"
            for name, value in assignments
        ]
    else:
        body = [f"{self_name}.{name}={value}" for name, value in assignments]
    if hasattr(cls, "__post_init__"):
        body.append(f"{self_name}.__post_init__()")
    source = (
        f"def __create_fn__({', '.join(namespace)}):\n"
        f" def __init__({','.join(params)}):\n"
        + "".join(f"  {line}\n" for line in body or ["pass"])
        + " return __init__"
    )
    module = sys.modules.get(cls.__module__)
    scope = {}
    exec(source, module.__dict__ if module is not None else {}, scope)
    init = scope["__create_fn__"](**namespace)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    return init


@recursive_repr()
def _repr(self):
    return (
        self.__class__.__qualname__
        + "("
        + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_names)
        + ")"
    )


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self._record_key
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self._record_key(self))


def _ordering(compare):
    def method(self, other):
        if other.__class__ is self.__class__:
            key = self._record_key
            return compare(key(self), key(other))
        return NotImplemented

    method.__name__ = method.__qualname__ = f"__{compare.__name__}__"
    return method


_ORDERING = {
    f"__{op.__name__}__": _ordering(op)
    for op in (operator.lt, operator.le, operator.gt, operator.ge)
}


def _owns_fields(self, name: str) -> bool:
    # The stdlib's test: the instance's class is the frozen record itself
    # (not a plain subclass of it), or ``name`` is one of its fields.
    cls = type(self)
    return cls.__dict__.get("__setattr__") is _frozen_setattr or name in cls._record_names


def _frozen_setattr(self, name, value):
    if _owns_fields(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
    object.__setattr__(self, name, value)


def _frozen_delattr(self, name):
    if _owns_fields(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
    object.__delattr__(self, name)


def _frozen_getstate(self):
    # Pickling a slotted instance would otherwise restore it through
    # ``setattr``, which a frozen record refuses. Memos are not carried:
    # the copy computes its own.
    return self._record_key(self)


def _frozen_setstate(self, state):
    for name, value in zip(self._record_names, state):
        object.__setattr__(self, name, value)
    for name in self.__slots__[len(self._record_names):]:
        object.__setattr__(self, name, None)
