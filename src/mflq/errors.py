"""Exception types shared across the solver modules."""


class FiniteEscapeError(RuntimeError):
    """Raised when a matrix ODE solution exceeds the blow-up threshold.

    Carries the index and time of the first node past the threshold (the
    solution at the node before it was still within bounds), so the caller
    can report how far the integration got.
    """

    def __init__(self, quantity: str, node: int, time: float, norm: float):
        self.quantity = quantity
        self.node = node
        self.time = time
        self.norm = norm
        super().__init__(
            f"{quantity} exceeded the blow-up threshold at node {node} "
            f"(time {time:.6g}); norm reached {norm:.3e}"
        )


class ValidationError(ValueError):
    """Raised when problem data or a document fails structural validation."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
