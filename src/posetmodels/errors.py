"""Structured exceptions shared across the package, and the one check of a count argument.

An error that carries a witness is declared by its fields and its message,
not by an ``__init__``: it names ``fields`` and a ``message`` template over
them as class attributes, and :class:`PosetModelError` takes one argument
per field, in order.  Each argument is kept as an attribute and in
``args``, so the error copies and pickles with its fields, and ``str(e)``
formats the template from them.  An error with no fields, such as
:class:`InvalidInput`, takes its message as its one argument.
"""


class PosetModelError(Exception):
    """Base class for every structured error raised by this package, and
    its one constructor (see the module docstring)."""

    fields: tuple[str, ...] = ()

    def __init__(self, *args):
        if self.fields and len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {len(self.fields)} arguments {self.fields}, got {len(args)}")
        super().__init__(*args)
        for name, value in zip(self.fields, args):
            setattr(self, name, value)

    def __str__(self):
        return self.message.format_map(dict(zip(self.fields, self.args))) if self.fields else super().__str__()


class InvalidInput(PosetModelError):
    """Malformed user input: bad labels, missing fields, unusable files."""


def require_count(name: str, value, least: int = 0) -> None:
    """A count that is no int, a bool or below `least` is an input error."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInput(f"{name} must be an int, got {value!r}")
    if value < least:
        raise InvalidInput(f"{name} must be at least {least}, got {value}")


class CycleDetected(PosetModelError):
    """Antisymmetry fails: two distinct elements are mutually comparable."""

    fields, message = ("a", "b"), "antisymmetry violated: {a!r} <= {b!r} and {b!r} <= {a!r}"


class NotALattice(PosetModelError):
    """Some pair of elements has no unique join or meet."""

    fields, message = ("a", "b", "kind"), "pair ({a!r}, {b!r}) has no unique {kind}"


class Unbounded(PosetModelError):
    """No global bottom or top element."""


class NotComparable(PosetModelError):
    """A morphism was requested between incomparable elements."""

    fields, message = ("a", "b"), "elements {a!r} and {b!r} are not comparable"


class NotPushoutClosed(PosetModelError):
    """Certified mode requested for a class that is not pushout-closed."""

    fields, message = ("witness",), "class is not pushout-closed, witness {witness}"


class NotCompositionClosed(PosetModelError):
    """A subcategory is missing a composite; witness is (a, b, c)."""

    fields, message = ("witness",), "missing composite, witness {witness}"


class MissingIdentities(PosetModelError):
    """A subcategory input omits an identity and auto-completion is off."""

    fields, message = ("element",), "identity of element {element!r} missing; pass add_identities=True to auto-complete"


class NoFactorization(PosetModelError):
    """A demanded (left, right) factorization does not exist."""

    fields, message = ("pair",), "no factorization of {pair}"


class S2OF3Failed(PosetModelError):
    """The weak equivalences violate strong 2-of-3; witness is (a, b, c)."""

    fields, message = ("witness",), "strong 2-of-3 fails, witness {witness}"


class RecognitionFailed(PosetModelError):
    """A construction requiring a positive recognition was invoked on a NO instance."""

    fields, message = ("check_name", "witness"), "recognition failed at {check_name}, witness {witness}"


class InvalidCenters(PosetModelError):
    """A center map fails validation; the message names the report's first failing check."""

    fields = ("report",)

    def __str__(self):
        bad = self.report.witness_check()
        return f"invalid choice of centers: {bad.name}, witness {bad.witness}"


class HypothesisFailed(PosetModelError):
    """A numbered hypothesis of the generated-structure construction fails."""

    fields, message = ("which", "witness"), "hypothesis ({which}) fails, witness {witness}"


class JNotInW(PosetModelError):
    """A generating class escapes the weak equivalences."""

    fields, message = ("pair",), "generator {pair} is not a weak equivalence"


class NotWeakEquivalence(PosetModelError):
    """An operation restricted to weak equivalences was given something else."""

    fields, message = ("pair",), "{pair} is not a weak equivalence"


class MismatchedBase(PosetModelError):
    """Two structures that must share lattice and weak equivalences do not."""


class CapExceeded(PosetModelError):
    """A configured size cap was exceeded."""

    fields, message = ("what", "limit", "actual"), "{what}: {actual} exceeds cap {limit}"


class UnknownFixture(PosetModelError):
    """No built-in fixture has this name."""

    fields, message = ("name",), "unknown fixture {name!r}"


class InternalCheckFailed(PosetModelError):
    """A property the theory guarantees failed to hold: a library bug."""

    fields, message = ("detail",), "internal invariant violated (library bug): {detail}"
