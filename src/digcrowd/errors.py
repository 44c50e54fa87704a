"""Exception types shared across the toolkit."""


class DigCrowdError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DigCrowdError):
    """Invalid scene or pipeline configuration."""


class FormatError(DigCrowdError):
    """Malformed input file, header, or tensor layout."""


class PolylineDomainError(DigCrowdError):
    """Polyline evaluated outside its x-domain."""


class PartitionError(DigCrowdError):
    """Depth partition could not produce a near/far split."""


class SynthError(DigCrowdError):
    """Synthetic scene generation failure."""


class naming_file:
    """In ``with naming_file(path, types, prefix):`` an exception of ``types``
    becomes ``FormatError(f"{path}: {prefix}{exc}")``, chained to it.

    A class, not a ``contextlib`` generator: readers enter it several times a scene.
    """

    __slots__ = ("path", "types", "prefix")

    def __init__(self, path, types, prefix: str = ""):
        self.path, self.types, self.prefix = path, types, prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, self.types):
            raise FormatError(f"{self.path}: {self.prefix}{exc}") from exc
