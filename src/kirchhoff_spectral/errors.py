"""Exception hierarchy shared by all modules.

Parameter and structural problems are ValueErrors so they behave naturally
with argparse and config validation; numerical failures are RuntimeErrors.
"""


class ParameterError(ValueError):
    """An argument is outside its documented range (negative norm order, zero mode, ...)."""


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class DomainError(ValueError):
    """Input is outside the domain of a map (negative argument, ball violation).

    Raised for a stack of samples, ``column`` is the first failing column.
    """

    column = 0


class ConvergenceError(RuntimeError):
    """An iteration failed to converge: the fixed-point inverse of the cubic stage.

    Raised for a stack of samples, ``column`` is the first failing column.
    """

    column = 0


class NumericalError(RuntimeError):
    """A numerical operation produced an unusable result (singular matrix, failed residual)."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message contains the offending path."""
