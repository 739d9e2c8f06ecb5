"""Structured exceptions shared across the package, and the one check of a count argument."""


class PosetModelError(Exception):
    """Base class for every structured error raised by this package."""


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

    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(f"antisymmetry violated: {a!r} <= {b!r} and {b!r} <= {a!r}")


class NotALattice(PosetModelError):
    """Some pair of elements has no unique join or meet."""

    def __init__(self, a, b, kind):
        self.a, self.b, self.kind = a, b, kind
        super().__init__(f"pair ({a!r}, {b!r}) has no unique {kind}")


class Unbounded(PosetModelError):
    """No global bottom or top element."""


class NotComparable(PosetModelError):
    """A morphism was requested between incomparable elements."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(f"elements {a!r} and {b!r} are not comparable")


class NotPushoutClosed(PosetModelError):
    """Certified mode requested for a class that is not pushout-closed."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"class is not pushout-closed, witness {witness}")


class NotCompositionClosed(PosetModelError):
    """A subcategory is missing a composite; witness is (a, b, c)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"missing composite, witness {witness}")


class MissingIdentities(PosetModelError):
    """A subcategory input omits an identity and auto-completion is off."""

    def __init__(self, element):
        self.element = element
        super().__init__(
            f"identity of element {element!r} missing; pass add_identities=True to auto-complete"
        )


class NoFactorization(PosetModelError):
    """A demanded (left, right) factorization does not exist."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"no factorization of {pair}")


class S2OF3Failed(PosetModelError):
    """The weak equivalences violate strong 2-of-3; witness is (a, b, c)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"strong 2-of-3 fails, witness {witness}")


class RecognitionFailed(PosetModelError):
    """A construction requiring a positive recognition was invoked on a NO instance."""

    def __init__(self, check_name, witness):
        self.check_name, self.witness = check_name, witness
        super().__init__(f"recognition failed at {check_name}, witness {witness}")


class InvalidCenters(PosetModelError):
    """A center map fails validation."""

    def __init__(self, report):
        self.report = report
        bad = report.witness_check()
        super().__init__(f"invalid choice of centers: {bad.name}, witness {bad.witness}")


class HypothesisFailed(PosetModelError):
    """A numbered hypothesis of the generated-structure construction fails."""

    def __init__(self, which, witness):
        self.which, self.witness = which, witness
        super().__init__(f"hypothesis ({which}) fails, witness {witness}")


class JNotInW(PosetModelError):
    """A generating class escapes the weak equivalences."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"generator {pair} is not a weak equivalence")


class NotWeakEquivalence(PosetModelError):
    """An operation restricted to weak equivalences was given something else."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"{pair} is not a weak equivalence")


class MismatchedBase(PosetModelError):
    """Two structures that must share lattice and weak equivalences do not."""


class CapExceeded(PosetModelError):
    """A configured size cap was exceeded."""

    def __init__(self, what, limit, actual):
        self.what, self.limit, self.actual = what, limit, actual
        super().__init__(f"{what}: {actual} exceeds cap {limit}")


class UnknownFixture(PosetModelError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown fixture {name!r}")


class InternalCheckFailed(PosetModelError):
    """A property the theory guarantees failed to hold: a library bug."""

    def __init__(self, detail):
        super().__init__(f"internal invariant violated (library bug): {detail}")
