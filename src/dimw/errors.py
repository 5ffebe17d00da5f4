class DimwError(Exception):
    """Base class for all workbench errors."""


class CycleError(DimwError):
    """The declared cover pairs induce a directed cycle."""


class NotALattice(DimwError):
    """Some pair of elements has no least upper or greatest lower bound."""

    def __init__(self, kind, pair):
        self.kind = kind  # "join" or "meet"
        self.pair = pair  # pair of element names
        super().__init__(f"no {kind} for pair {pair!r}")


class UnknownBuiltin(DimwError):
    """Catalog key not recognized."""


class ParamTooLarge(DimwError):
    """A constructor guard tripped (too many elements or congruences)."""


class NotDistributive(DimwError):
    """Operation requires a distributive lattice."""


class MismatchError(DimwError):
    """A cross-validation check failed; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message if witness is None else f"{message}; witness: {witness!r}")
