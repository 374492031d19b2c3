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
    """Network graph is not connected. Carries all node components; the
    message names at most the first three, each by at most eight labels."""

    def __init__(self, components):
        self.components = tuple(tuple(sorted(c)) for c in components)
        parts = " / ".join(map(_braced, self.components[:3]))
        if len(self.components) > 3:
            parts += f" / ... ({len(self.components)} components)"
        super().__init__(f"network is not connected: components {parts}")


def _braced(nodes) -> str:
    """{a, b, ...} of at most eight node labels, then the count if more."""
    more = f", ... ({len(nodes)} nodes)" if len(nodes) > 8 else ""
    return "{" + ", ".join(map(str, nodes[:8])) + more + "}"


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
