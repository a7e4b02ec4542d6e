"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI to
produce ``error[CODE]:`` diagnostics and to pick the exit status.
"""


class BsqsError(Exception):
    code = "ERROR"


class Violation(BsqsError):
    """A physical or numerical parameter violates its admissibility constraint."""

    code = "VIOLATION"

    def __init__(self, field, value, reason=""):
        self.field = field
        self.value = value
        msg = f"invalid value for '{field}': {value!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class ParseError(BsqsError):
    code = "PARSE"

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DimensionMismatch(BsqsError):
    code = "DIMENSION_MISMATCH"


class MeshMismatch(BsqsError):
    code = "MESH_MISMATCH"


class SingularSystem(BsqsError):
    code = "SINGULAR_SYSTEM"

    def __init__(self, mode, detail=""):
        self.mode = mode
        msg = f"singular linear system for mode {mode}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DegenerateParams(BsqsError):
    code = "DEGENERATE_PARAMS"


class TooLarge(BsqsError):
    code = "TOO_LARGE"


class IncompatibleData(BsqsError):
    code = "INCOMPATIBLE_DATA"


class BalanceViolation(BsqsError):
    code = "BALANCE_VIOLATION"

    def __init__(self, n, residual):
        self.n = n
        self.residual = residual
        super().__init__(f"energy balance violated at step {n}: residual {residual:.3e}")


class GridMismatch(BsqsError):
    code = "GRID_MISMATCH"


class OrderingViolation(BsqsError):
    code = "ORDERING_VIOLATION"


class InsufficientPoints(BsqsError):
    code = "INSUFFICIENT_POINTS"


class NotDivergenceFree(BsqsError):
    code = "NOT_DIVERGENCE_FREE"


class FormatError(BsqsError):
    code = "FORMAT"

    def __init__(self, offset, reason=""):
        self.offset = offset
        msg = f"malformed snapshot at byte {offset}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
