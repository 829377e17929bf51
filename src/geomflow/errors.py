"""Exception types shared across the package."""


class GeomflowError(Exception):
    """Base class of the package's failures, raised itself when a run cannot go on."""


class DomainError(GeomflowError, ValueError):
    """An input outside what the code accepts: a time, extent, window or shape."""
