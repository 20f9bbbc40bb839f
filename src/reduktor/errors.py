"""Exception hierarchy shared across the package.

Three broad families map onto the CLI exit codes: configuration problems
(exit 1), input validation problems (exit 2), and numerical failures
detected while solving (exit 3).
"""

from __future__ import annotations


class ReduktorError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ReduktorError):
    """Malformed or inconsistent run configuration."""


class InputValidationError(ReduktorError):
    """Input data violates a structural contract."""


class NumericalError(ReduktorError):
    """A solver or check failed while running."""


# -- matrix validation ------------------------------------------------------

class NotSquareError(InputValidationError):
    pass


class RowSumViolation(InputValidationError):
    def __init__(self, index, value, tol):
        self.index = index
        self.value = value
        super().__init__(
            f"row {index} sums to {value!r} (deviation {abs(value - 1.0):.3e} "
            f"exceeds tol {tol:g})")


class ColSumViolation(InputValidationError):
    def __init__(self, index, value, tol):
        self.index = index
        self.value = value
        super().__init__(
            f"column {index} sums to {value!r} (deviation {abs(value - 1.0):.3e} "
            f"exceeds tol {tol:g})")


class NegativeEntryError(InputValidationError):
    def __init__(self, index, value, tol):
        self.index = index
        self.value = value
        super().__init__(
            f"entry {index} = {value!r} is below -{tol:g}")


class InvalidPartitionError(InputValidationError):
    pass


class EmptySampleListError(InputValidationError):
    pass


# -- bath models ------------------------------------------------------------

class NonHermitianModelError(InputValidationError):
    pass


class NonUnitaryBasisError(InputValidationError):
    pass


class BlockIndexOutOfRange(InputValidationError):
    pass


# -- solvers ----------------------------------------------------------------

class GridTooCoarseError(NumericalError):
    pass


class TailBoundExceededError(NumericalError):
    pass


class ValidationFailure(NumericalError):
    def __init__(self, node, residual, detail=""):
        self.node = node
        self.residual = residual
        msg = f"trajectory node {node} violates double stochasticity (residual {residual:.3e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SourceViolation(InputValidationError):
    def __init__(self, node, residual, detail="source"):
        self.node = node
        self.residual = residual
        super().__init__(
            f"node {node} violates double stochasticity (residual {residual:.3e}): {detail}")


class KernelNormalizationViolation(NumericalError):
    def __init__(self, T, residual):
        self.T = T
        self.residual = residual
        super().__init__(
            f"kernel normalization violated at T={T:g} (residual {residual:.3e})")


class ValueEscapeError(NumericalError):
    def __init__(self, node, value):
        self.node = node
        self.value = value
        super().__init__(f"scalar trajectory escaped [0, 1] at node {node} (value {value!r})")


class NonRealReconstructionError(NumericalError):
    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"reconstructed solution has imaginary residue {residual:.3e}")


class NotCyclicOfOrderK(InputValidationError):
    pass


class PeriodMismatchError(InputValidationError):
    pass
