"""Exception hierarchy shared across the package."""

__all__ = ["EcnnError", "DataError", "ModelFormatError"]


class EcnnError(Exception):
    """Base class for every error this package raises on purpose."""


class DataError(EcnnError):
    """Input data is malformed, inconsistent, or incompatible with a model."""


class ModelFormatError(EcnnError):
    """A model file is malformed or its format version is unsupported."""
