"""Exception hierarchy shared by all engines."""


class GwasGlsError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(GwasGlsError):
    """Cholesky factorization hit a non-positive (or non-finite) pivot."""

    def __init__(self, pivot_index, msg=None):
        self.pivot_index = pivot_index
        super().__init__(msg or f"matrix not positive definite (pivot {pivot_index})")

    def __reduce__(self):  # socket ranks ship their errors to the launcher
        return type(self), (self.pivot_index, str(self))


class AsymmetricCovariance(GwasGlsError):
    """Covariance input is not exactly symmetric; refused rather than symmetrized."""


class RankDeficientCovariates(GwasGlsError):
    """The whitened covariate block has numerically dependent columns."""


class DimensionMismatch(GwasGlsError):
    """Operand shapes are inconsistent."""


# --- file format errors ---

class BadMagic(GwasGlsError):
    """File magic does not match the expected kind."""


class UnsupportedVersion(GwasGlsError):
    """File format version is not understood."""


class TruncatedFile(GwasGlsError):
    """File is shorter than its header promises."""


class ShortWrite(GwasGlsError):
    """A write completed with fewer bytes than requested."""


class OverlappingBuffer(GwasGlsError):
    """A buffer was handed to I/O while already referenced by an in-flight ticket."""


# --- configuration / runtime ---

class ConfigError(GwasGlsError):
    """Invalid or infeasible run configuration (e.g. memory budget exceeded)."""


class TransportFailure(GwasGlsError):
    """A message-passing operation failed."""

    def __init__(self, rank, reason):
        self.rank = rank
        self.reason = reason
        super().__init__(f"transport failure at rank {rank}: {reason}")

    def __reduce__(self):  # socket ranks ship their errors to the launcher
        return type(self), (self.rank, self.reason)


class SizeMismatch(GwasGlsError):
    """Collective called with incompatible payload sizes."""
