"""The immutable value record that strtherm's result types share."""


class Record:
    """Immutable value with the equality, hash and repr of its ``_fields``.

    A subclass's fields are its ``__init__``'s positional parameters, in
    order, unless it names them in ``_fields``; ``self._set(locals())``
    stores the constructor's arguments, keyword-only ones too, which are
    not fields.  A record equals only a record of the same class whose
    fields are equal; assignment and deletion raise ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _set(self, args: dict) -> None:
        """Store a constructor's arguments, its ``locals()``."""
        fields = self.__dict__
        fields.update(args)
        # dropped after the update: a table with no deleted key is copied
        # whole, and CPython 3.11 and 3.12 read that copy's keys faster
        del fields["self"]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
