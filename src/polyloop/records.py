"""Frozen records: the value types of the package.

`@record` gives a class the methods of an immutable value type, built from
closures: no source is compiled and nothing heavy is imported. The fields
are the class's own annotations in order; a class attribute of the same name
is a default. A method the class defines itself is kept. Instances keep a
`__dict__`, so `object.__setattr__` still writes (for validation and caches)
and pickling stores the field values.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a record."""


def record(cls):
    """Give cls `__init__` (positional or keyword, then `__post_init__` if
    defined), `__repr__` as `Name(field=value, ...)`, `__eq__` between
    instances of the same class, `__hash__` of the field tuple, and a
    `__setattr__` and `__delattr__` that refuse."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    post = getattr(cls, "__post_init__", None)
    n = len(names)

    def __init__(self, *args, **kw):
        if kw or len(args) != n:
            args = _bind(cls.__name__, names, defaults, args, kw)
        # unrolled for the first two fields: a loop costs more than the sets
        if n:
            _set(self, names[0], args[0])
            if n > 1:
                _set(self, names[1], args[1])
                if n > 2:
                    for name, value in zip(names[2:], args[2:]):
                        _set(self, name, value)
        if post is not None:
            post(self)

    def __repr__(self):
        body = ", ".join(f"{k}={getattr(self, k)!r}" for k in names)
        return f"{type(self).__qualname__}({body})"

    if n == 1:
        get = attrgetter(names[0])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                a, b = get(self), get(other)
                return a is b or a == b  # as (a,) == (b,) compares
            return NotImplemented

        def __hash__(self):
            return hash((get(self),))

    else:
        # attrgetter of two or more names returns the field tuple
        get = attrgetter(*names) if names else lambda self: ()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(get(self))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for fn in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if fn.__name__ not in cls.__dict__:
            setattr(cls, fn.__name__, fn)
    return cls


def _bind(owner: str, names: tuple, defaults: dict, args: tuple, kw: dict) -> list:
    """The field values of a call with keywords or with defaults left out."""
    given = dict(zip(names, args))
    if len(args) > len(names) or given.keys() & kw.keys():
        raise TypeError(f"{owner}() got too many or repeated arguments")
    given = {**defaults, **given, **kw}
    if given.keys() != set(names):
        raise TypeError(f"{owner}() takes exactly the fields {', '.join(names)}")
    return [given[k] for k in names]
