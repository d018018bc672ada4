"""Exception types shared across the package.

DomainError covers every geometric/algebraic precondition failure; the CLI
maps it to exit code 1. ParseError (exit code 2) is for malformed input files.
"""


class DomainError(Exception):
    pass


class NotFullDimensional(DomainError):
    pass


class OriginNotInterior(DomainError):
    pass


class NotReflexive(DomainError):
    pass


class NotSimplicial(DomainError):
    pass


class NotSmooth(DomainError):
    pass


class NotComplete(DomainError):
    pass


class NotStrictlyConvex(DomainError):
    pass


class NotDelzant(DomainError):
    pass


class NonpositiveCoefficient(DomainError):
    pass


class NotCritical(DomainError):
    pass


class OverCount(DomainError):
    pass


class NotIsolated(DomainError):
    pass


class InvalidRegime(DomainError):
    pass


class UnknownInput(DomainError):
    pass


class ParseError(Exception):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
