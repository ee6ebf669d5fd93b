"""Exception types shared across the package."""


class CertlabError(Exception):
    """Base class for all certlab errors."""


class ShapeError(CertlabError):
    """An input has the wrong length or an index is out of range."""


class BudgetError(CertlabError):
    """An exhaustive enumeration would exceed its configured budget."""


class ConfigError(CertlabError):
    """Invalid or unsupported configuration."""


class FormatError(CertlabError):
    """Malformed serialized input (DIMACS, bit-encoding, config)."""


class DataInconsistencyError(CertlabError):
    """A labeled sample contradicts itself (impossible under a true concept)."""
