"""Exception types shared across the toolkit."""


class ImpnetError(Exception):
    """Base class for all impnet errors."""


class NetlistSyntaxError(ImpnetError):
    """Malformed netlist text. Carries the 1-based line number."""

    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}" if line else reason)


class ValidationError(ImpnetError):
    """Semantically invalid input (bad value, bad node index, bad parameter)."""


class DisconnectedError(ValidationError):
    """Network graph is not connected. Carries the node components."""

    def __init__(self, components):
        self.components = tuple(tuple(sorted(c)) for c in components)
        parts = " / ".join(
            "{" + ", ".join(str(n) for n in c) + "}" for c in self.components
        )
        super().__init__(f"network is not connected: components {parts}")


class InvalidNodeError(ImpnetError):
    """Node pair is out of range or degenerate."""


class ConvergenceError(ImpnetError):
    """Eigensolver failed to converge within its iteration budget."""


class NotSymmetricError(ImpnetError):
    """Input matrix is not complex symmetric to working tolerance."""


class NoTrivialZeroError(ImpnetError):
    """No zero mode aligns with the constant vector; input is not a
    connected-network Laplacian."""


class NearSingularError(ImpnetError):
    """Requested identity check is ill-defined this close to a resonance."""
