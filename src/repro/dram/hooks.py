"""Observer seam for runtime instrumentation of the DRAM layer.

:mod:`repro.analysiskit` installs a :class:`ProtocolSanitizer` here to
validate command-stream invariants while the trace-driven models run
(see ``docs/CORRECTNESS.md``).  The seam is kept dependency-free so
``repro.dram`` never imports the tooling that observes it.

Hot paths check a single module-level reference and skip everything
when no observer is installed (the default), so an idle seam costs one
attribute load and a ``None`` test per event.
"""

from __future__ import annotations

from typing import Any, Optional

#: The installed observer, or ``None`` (the default: no instrumentation).
OBSERVER: Optional[Any] = None

#: The installed fault injector, or ``None`` (the default: pristine DRAM).
INJECTOR: Optional[Any] = None


def install(observer: Any) -> None:
    """Install ``observer`` as the single active DRAM-event observer.

    The observer is duck-typed; it may implement any subset of:

    * ``on_ledger_record(ledger, command, count)`` — after a
      :class:`~repro.dram.commands.CommandLedger` records events,
    * ``on_ledger_time(ledger, ns)`` / ``on_ledger_energy(ledger, nj)``
      — after raw time/energy charges,
    * ``on_ledger_merge(ledger, other, parallel)`` — after a merge,
    * ``on_memsys_access(system, bank, row, kind, latency_ns)`` — after
      a :class:`~repro.dram.memsys.MemorySystem` replays one access
      (``kind`` is ``"hit"``/``"miss"``/``"conflict"``).
    """
    global OBSERVER
    OBSERVER = observer


def uninstall() -> None:
    """Remove the active observer (instrumentation off)."""
    global OBSERVER
    OBSERVER = None


def get_observer() -> Optional[Any]:
    """Return the active observer, or ``None``."""
    return OBSERVER


def install_injector(injector: Any) -> None:
    """Install ``injector`` as the single active DRAM fault injector.

    Like the observer, the injector is duck-typed; it may implement any
    subset of:

    * ``on_subarray_load(subarray, row, col_start, bits) -> bits`` —
      called on the untimed data-install path
      (:meth:`~repro.dram.subarray.Subarray.load_row` /
      :meth:`~repro.dram.subarray.Subarray.load_bits`, which the block
      stores call once per run while an injector is installed); returns
      the bit vector actually stored (weak-cell flips, stuck-at cells),
    * ``on_memsys_access(system, bank, row, kind, latency_ns) -> float``
      — called per :class:`~repro.dram.memsys.MemorySystem` access;
      returns *extra* latency (ns) injected for this access (command
      drop retries, delays).  The observer always sees the base latency.

    Unlike the observer, the injector changes behavior — installing one
    with a zero-rate model is test-enforced to be a no-op.
    """
    global INJECTOR
    INJECTOR = injector


def uninstall_injector() -> None:
    """Remove the active fault injector (pristine DRAM again)."""
    global INJECTOR
    INJECTOR = None


def get_injector() -> Optional[Any]:
    """Return the active fault injector, or ``None``."""
    return INJECTOR
