"""Records: what the value classes used of ``dataclasses``, whose import
loads ``inspect`` and ``ast``.  Fields are the class annotations; a default
stays a class attribute, ``field(default_factory=f)`` calls ``f`` per
instance, and ``__post_init__`` runs last.  ``==`` compares field tuples
within one class.  A frozen record refuses set and delete and hashes its
field tuple, as ``dataclasses`` does; the others are unhashable."""

from operator import attrgetter


class field:
    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, *, frozen=False):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__annotations__)
    makers = {name: lambda value=getattr(cls, name): value for name in names if hasattr(cls, name)}
    for name in names:
        if isinstance(vars(cls).get(name), field):
            makers[name] = vars(cls)[name].default_factory
            delattr(cls, name)
    key = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **given):
        rest = names[len(args):]
        if len(args) > len(names) or given.keys() - rest or {*rest} - given.keys() - makers.keys():
            raise TypeError(f"{cls.__name__}() takes {names}; {tuple(makers)} have defaults")
        given.update(zip(names, args))
        for name in names:
            object.__setattr__(self, name, given[name] if name in given else makers[name]())
        post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, key(self)))})"

    def refuse(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {cls.__name__} is frozen")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    cls.__record_fields__ = names
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes``; validation runs again."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj.__record_fields__}, **changes})
