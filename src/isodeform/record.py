"""Value records with no code generated at import.

A ``Record`` subclass gives its compared fields as ``_key()``, in the
order its ``__init__`` takes them: two records of one class are equal,
and hash alike, when their keys are, and a record of another class is
never equal, even with an equal key.  What the key leaves out, such as an
AST node's span or a source's parse caches, does not count.  A dataclass
would have these methods written for its class when its module is
imported; records share one copy.
"""


class Record:
    __slots__ = ()

    def _key(self) -> tuple:
        return ()

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"
