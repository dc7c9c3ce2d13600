"""Uniform result type for the exact property checkers, and the record
base it shares with the certificates, the graded elements, the expression
nodes and the scalar bases."""

from __future__ import annotations


class Record:
    """Base of light __slots__ classes that are compared, hashed and shown
    by their class and the fields named in ``_fields``, in that order, as
    dataclasses are: ``Name(field=value, ...)``.  Records of different
    classes are never equal."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A Record whose fields are given once, by position or by keyword,
    and then cannot be assigned or deleted."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        rest = names[len(args):]
        if len(args) > len(names) or sorted(kwargs) != sorted(rest):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}, each exactly once")
        for name, value in zip(names, args + tuple(kwargs[name] for name in rest)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckReport(FrozenRecord):
    """Outcome of one property-check run.

    ``checked`` counts individual verified assertions.  ``counterexample``
    holds a rendered description of the first failure, or ``None`` when the
    run ``passed``.  ``details`` carries check-specific counters (branch counts,
    enumeration mode, side observations) and must stay JSON-serializable.
    Only suites.run_property_suite builds one.
    """

    __slots__ = _fields = ("name", "checked", "counterexample", "details")

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self) -> dict:
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "suite": self.name,
            "checked": self.checked,
            "counterexample": self.counterexample,
            "details": {k: self.details[k] for k in sorted(self.details)},
        }
