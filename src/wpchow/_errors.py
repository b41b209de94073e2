"""The two failures that ``wpchow`` reports with exit code 1.

They live in a module that imports no other part of the package, so
``wpchow.cli`` can name them in ``main``'s handler before any command has
loaded a library module.  ``wpchow.blowup`` and ``wpchow.curves`` export
them under the same names.
"""


class AssemblyMismatchError(Exception):
    """An assembled presentation disagrees with its split decomposition."""


class SingularCurveError(ValueError):
    """The short-form curve is singular (vanishing discriminant)."""

    def __init__(self, beta4, beta6):
        self.beta4 = beta4
        self.beta6 = beta6
        super().__init__(
            f"curve (beta4, beta6) = ({beta4}, {beta6}) is singular: "
            "discriminant 4*beta4^3 + 27*beta6^2 = 0"
        )
