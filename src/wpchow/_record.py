"""Frozen value records without ``dataclasses``.

``dataclasses`` imports ``inspect`` and generates every method with
``exec``; together that is a large share of a cold ``import wpchow.cli``.
:func:`frozen_record` gives the same value semantics from plain closures:
fields are the class annotations in order, class attributes of the same
name are defaults, and ``__post_init__`` (if defined) validates or
normalizes after the fields are set, using ``object.__setattr__``.
:func:`field` reads one field of a record's JSON form.
"""

from __future__ import annotations

from operator import attrgetter


def frozen_record(cls):
    """Add init, eq, hash, repr and frozen assignment to ``cls``.

    Equality compares field tuples between instances of the same class;
    the hash is that of the field tuple; the repr reads
    ``Name(field=value, ...)``.  Assigning or deleting any attribute
    raises ``AttributeError``.  Methods the class defines itself are kept.
    """
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {field: cls.__dict__[field] for field in fields if field in cls.__dict__}
    name = cls.__qualname__
    count = len(fields)
    post_init = getattr(cls, "__post_init__", None)
    if count == 1:
        only = attrgetter(fields[0])

        def key(self) -> tuple:
            return (only(self),)
    else:
        key = attrgetter(*fields)

    def bind(args: tuple, kwargs: dict) -> tuple:
        if len(args) > count:
            raise TypeError(
                f"{name}() takes {count} positional arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                if field not in defaults:
                    raise TypeError(f"{name}() missing required argument: {field!r}")
                values[field] = defaults[field]
        return tuple(values[field] for field in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in fields)
        return f"{name}({inner})"

    def __setattr__(self, attribute, value):
        raise AttributeError(f"cannot assign to field {attribute!r} of frozen {name}")

    def __delattr__(self, attribute):
        raise AttributeError(f"cannot delete field {attribute!r} of frozen {name}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


def field(data, name: str):
    """``data[name]`` for a record's JSON loader: a missing field is a
    ``ValueError`` that names it, not a ``KeyError``."""
    try:
        return data[name]
    except KeyError:
        raise ValueError(f"missing field {name!r}") from None
