"""The one exception the package raises."""


class RelaysecError(Exception):
    """A refused input or a failed computation; where it is caught decides which."""
