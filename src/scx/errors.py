"""Exception types shared by all scx modules, and `clip` for refusals."""


def clip(value):
    """repr(value), cut to its first and last ten characters past 24, so a
    refusal that echoes a document's value stays one short line."""
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:10]}...{text[-10:]}"


class ScxError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatch(ScxError):
    """Operands live over different rings."""


class DivisionUnsupported(ScxError):
    """Division requested in a ring that is not a field."""


class DivideByZero(ScxError):
    """Division by the zero element."""


class ShapeMismatch(ScxError):
    """Matrix or complex shapes are incompatible (including grading moduli)."""


class NotAComplex(ScxError):
    """A pair of maps fails d_out . d_in = 0."""


class UnsupportedRingForHomology(ScxError):
    """Homology is only computed over Z or a field."""


class UnsupportedRing(ScxError):
    """Operation not available over this coefficient ring."""


class NotRPerfect(ScxError):
    """Operation requires a reducible summand in even degrees with r = 0."""


class MissingSMap(ScxError):
    """Both complexes must carry s-maps."""


class ImpossibleCase(ScxError):
    """Skein sign pattern (-1, -1) cannot occur."""


class NonIntegralRank(ScxError):
    """Quasi-alternating rank formulas produced a non-integer."""


class UnsupportedFamily(ScxError):
    """Link family or parameter range not covered by the stored tables."""


class InconsistentLeafData(ScxError):
    """Skein tree leaf data contradicts itself or the recursion."""


class DetZero(ScxError):
    """Determinant-zero member of a family (e.g. the n = 6 pretzel)."""


class PlateauNotReached(ScxError):
    """The d-function did not reach its plateaus inside the search window."""


class SchemaError(ScxError):
    """Malformed JSON document (unknown keys, missing fields, bad values)."""
