"""The plain tier's epoch hot-swap lives in ``repro.serve.registry``.

:class:`~repro.serve.registry.RealShardRegistry` is the plain tier's one
real registry and always supports ``publish`` and epoch pins; this module
keeps the older name importable.
"""

from repro.serve.registry import RealShardRegistry

#: The frozen ``benchmarks/e2e`` imports this name; the plain tier has one
#: registry class.
VersionedShardRegistry = RealShardRegistry
