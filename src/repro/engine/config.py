"""Execution-layer configuration.

One :class:`ExecutionConfig` rides on each :class:`~repro.engine.database.Database`
and steers the physical layer the planner emits:

* ``batch_size`` — rows per batch in the vectorized executor
  (``Operator._execute`` yields lists of row tuples).  1024 amortizes
  the per-batch Python overhead (iterator resumption, instrumentation
  branch, loop setup) over enough rows that per-row cost approaches the
  body of a list comprehension, while a batch of 1024 narrow tuples
  still fits comfortably in cache.  ``batch_size=1`` degenerates to the
  classic row-at-a-time Volcano regime and is the measured baseline of
  ``benchmarks/bench_vectorized_speedup.py``.
* ``parallel_workers`` — size of the multiprocessing worker pool for
  partition-parallel scans (DESIGN.md §12).  0 (the default) disables
  the pool entirely: plans never contain an Exchange operator and the
  engine behaves byte-identically to the pre-partitioning executor.
  Scans of partitioned tables with ``parallel_workers >= 1`` are
  wrapped in a scatter-gather Exchange.

Expressions always compile through :mod:`repro.engine.expr_compile`,
and the optimizer always pushes single-table predicates and the
needed-column projection into the scans.  How an XADT method reaches
the fragment is not a knob either: it follows the value's codec, and
fast order access (QS6) is the per-column choice of the ``indexed``
codec at load time (``load_documents(..., codecs={...})``), whose span
directory travels inside each value.

Changing the config on a live database bumps its config epoch, which
invalidates cached plans (their operators bake in batch sizes and
Exchange wrapping).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: target rows per batch (see the module docstring for the rationale)
DEFAULT_BATCH_SIZE = 1024


@dataclass(frozen=True)
class ExecutionConfig:
    """Immutable knobs of the vectorized execution layer."""

    batch_size: int = DEFAULT_BATCH_SIZE
    parallel_workers: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.parallel_workers < 0:
            raise ConfigError("parallel_workers cannot be negative")

    def as_dict(self) -> dict[str, object]:
        return {
            "batch_size": self.batch_size,
            "parallel_workers": self.parallel_workers,
        }


#: the shipped default
VECTORIZED = ExecutionConfig()


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ExecutionConfig",
    "VECTORIZED",
]
