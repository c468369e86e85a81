"""Immutable value records, in place of frozen dataclasses (whose import
loads inspect, ast and dis, and which exec several methods per class).

A subclass names its fields by annotation, in order; a class attribute of
the same name is a default.  It gets one generated __init__ (a loop over
the fields would make construction half again as slow): it sets the fields,
runs __post_init__ if there is one (which may set a field), then keeps
their tuple, which equality, hashing and, with order=True, ordering
compare, within one class only.
"""

from operator import ge, gt, le, lt


class Record:
    def __init_subclass__(cls, order: bool = False) -> None:
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        params = ", ".join(f"{f}=_cls.{f}" if f in cls.__dict__ else f for f in fields)
        body = [f"_set(self, {f!r}, {f})" for f in fields]
        body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        body += [f"_set(self, '_key', ({''.join(f'self.{f}, ' for f in fields)}))"]
        code = f"def __init__(self, {params}):\n " + "\n ".join(body)
        exec(code, {"_set": object.__setattr__, "_cls": cls}, namespace := {})
        cls.__init__ = namespace["__init__"]
        for op in (lt, le, gt, ge) if order else ():
            setattr(cls, f"__{op.__name__}__", lambda a, b, op=op: (
                op(a._key, b._key) if b.__class__ is a.__class__ else NotImplemented))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"


def replace(record: Record, **changes) -> Record:
    """A copy of record with the given fields changed, validated again."""
    return type(record)(**{**dict(zip(record._fields, record._key)), **changes})
