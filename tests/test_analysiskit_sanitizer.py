"""Tests for the runtime DRAM protocol sanitizer.

Covers the raw command-stream protocol (activate-before-read/write,
precharge-before-re-activate), ledger accounting invariants (negative
counts, monotone time/energy), MemorySystem classification checks, and
the install/enable plumbing.
"""

import gc
import os

import pytest

from repro import hooks
from repro.analysiskit import (
    ProtocolSanitizer,
    SanitizerError,
    active_sanitizer,
    enable_from_env,
    enable_sanitizer,
    sanitize_requested,
)
from repro.dram import (
    DDR4_ENERGY,
    SIEVE_TIMING,
    Command,
    CommandLedger,
    MemorySystem,
)


@pytest.fixture()
def sanitizer():
    """A fresh sanitizer subscribed for one test, session one restored after."""
    with hooks.observing(*hooks.OBSERVERS):
        yield enable_sanitizer(ProtocolSanitizer())


def ledger():
    return CommandLedger(timing=SIEVE_TIMING, energy=DDR4_ENERGY)


class TestCommandStreamProtocol:
    def test_read_before_activate_raises(self, sanitizer):
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.observe_command("bank0", "RD", row=3)
        err = excinfo.value
        assert "READ before any ACTIVATE" in str(err)
        assert err.unit == "bank0"
        assert err.history[-1][2] == "RD"

    def test_write_before_activate_raises(self, sanitizer):
        with pytest.raises(SanitizerError, match="WRITE before any ACTIVATE"):
            sanitizer.observe_command("bank1", "WR", row=0)

    def test_activate_without_precharge_raises(self, sanitizer):
        sanitizer.observe_command("bank0", "ACT", row=1)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.observe_command("bank0", "ACT", row=2)
        err = excinfo.value
        assert "missing PRECHARGE" in str(err)
        # History carries the full offending stream: first ACT, then the
        # violating re-ACT.
        events = [(event, detail) for _, _, event, detail in err.history]
        assert events == [("ACT", "row=1"), ("ACT", "row=2")]

    def test_read_of_wrong_row_raises(self, sanitizer):
        sanitizer.observe_command("bank0", "ACT", row=1)
        with pytest.raises(SanitizerError, match="row 2 but row 1 is open"):
            sanitizer.observe_command("bank0", "RD", row=2)

    def test_legal_stream_is_silent(self, sanitizer):
        for command, row in [
            ("ACT", 5), ("RD", 5), ("WR", 5), ("PRE", None),
            ("ACT", 9), ("RD", 9),
        ]:
            sanitizer.observe_command("bank0", command, row)
        assert sanitizer.violations_raised == 0

    def test_units_are_independent(self, sanitizer):
        sanitizer.observe_command("bank0", "ACT", row=1)
        with pytest.raises(SanitizerError):
            sanitizer.observe_command("bank1", "RD", row=1)

    def test_history_is_bounded(self):
        sanitizer = ProtocolSanitizer(history_limit=4)
        sanitizer.observe_command("bank0", "ACT", row=0)
        for i in range(10):
            sanitizer.observe_command("bank0", "RD", row=0)
        assert len(sanitizer.history_for("bank0")) == 4


class TestLedgerInvariants:
    def test_normal_accounting_is_silent(self, sanitizer):
        led = ledger()
        led.record(Command.ACTIVATE, 10)
        led.record(Command.READ_BURST, 4)
        led.add_time(5.0)
        led.add_energy(2.5)
        assert sanitizer.violations_raised == 0
        assert sanitizer.events_observed == 4

    def test_injected_negative_count_raises(self, sanitizer):
        led = ledger()
        led.record(Command.ACTIVATE, 2)
        led.counts[Command.ACTIVATE] = -2  # corrupt the ledger
        with pytest.raises(SanitizerError) as excinfo:
            led.record(Command.HOP, 1)
        err = excinfo.value
        assert "negative count -2 for ACTIVATE" in str(err)
        events = [event for _, _, event, _ in err.history]
        assert events == ["ACTIVATE", "HOP"]

    def test_time_going_backwards_raises(self, sanitizer):
        led = ledger()
        led.record(Command.ACTIVATE, 3)
        led.serial_time_ns -= 1e6  # corrupt the accumulator
        with pytest.raises(SanitizerError, match="serial_time_ns went backwards"):
            led.record(Command.ACTIVATE, 1)

    def test_energy_going_backwards_raises(self, sanitizer):
        led = ledger()
        led.record(Command.ACTIVATE, 3)
        led.energy_nj = -0.5
        with pytest.raises(SanitizerError, match="energy_nj went backwards"):
            led.add_energy(0.1)

    def test_non_finite_accounting_raises(self, sanitizer):
        led = ledger()
        led.serial_time_ns = float("nan")
        with pytest.raises(SanitizerError, match="non-finite"):
            led.record(Command.ACTIVATE, 1)

    def test_merge_is_observed_and_legal(self, sanitizer):
        a, b = ledger(), ledger()
        a.record(Command.ACTIVATE, 10)
        b.record(Command.ACTIVATE, 3)
        a.merge(b, parallel=True)
        a.merge(b, parallel=False)
        assert sanitizer.violations_raised == 0


class TestMemorySystemChecks:
    def test_clean_replay_is_silent(self, sanitizer):
        system = MemorySystem()
        # Same row (hit), new bank (miss), same bank other row (conflict).
        system.access(0)
        system.access(0)
        system.access(64)
        stride = system.config.row_bytes * system.config.total_banks
        system.access(stride)
        assert system.stats.row_conflicts == 1
        assert sanitizer.violations_raised == 0

    def test_misclassified_hit_raises(self, sanitizer):
        system = MemorySystem()
        system.access(0)  # bank 0, row 0 activated
        # Same bank, next row: one full row per bank further on.
        next_row_addr = system.config.row_bytes * system.config.total_banks
        bank, row = system._map(next_row_addr)
        assert (bank, row) == (system._map(0)[0], 1)
        # Corrupt the open-row table: the model will claim a row hit for
        # a row the sanitizer knows was never activated.
        system._open_rows[bank] = row
        with pytest.raises(SanitizerError, match="row-hit claimed"):
            system.access(next_row_addr)

    def test_lost_precharge_accounting_raises(self, sanitizer):
        system = MemorySystem()
        system.access(0)
        bank, _ = system._map(0)
        # The model forgets the open row: it will re-ACTIVATE (charging a
        # plain miss, no tRP) a bank the sanitizer still sees as open.
        del system._open_rows[bank]
        with pytest.raises(SanitizerError, match="row-miss claimed"):
            system.access(0)

    def test_two_systems_do_not_interfere(self, sanitizer):
        first, second = MemorySystem(), MemorySystem()
        first.access(0)
        second.access(0)
        first.access(64)
        second.access(64)
        assert sanitizer.violations_raised == 0

    def test_recycled_id_gets_a_fresh_label(self, sanitizer):
        """A new system at a dead system's address must not inherit state.

        CPython recycles object addresses after collection, so an
        id-keyed label table can hand a brand-new ``MemorySystem`` a
        dead one's label — and with it that unit's open-row mirror,
        raising spurious "claimed hit/miss" violations mid-suite.  The
        weakref guard in ``_label`` must detect the reuse and assign a
        fresh label instead.
        """
        first = MemorySystem()
        first.access(0)  # opens a row under the first system's label
        first_label = sanitizer._label(
            sanitizer._memsys_ids, first, "memsys"
        )
        (dead_ref, _), = sanitizer._memsys_ids.values()
        del first
        gc.collect()

        second = MemorySystem()
        # Plant the collision deterministically: map the new system's id
        # to the dead entry, exactly what the table holds when the
        # allocator recycles a collected system's address.
        sanitizer._memsys_ids[id(second)] = (dead_ref, 0)
        second.access(0)  # fresh bank must replay as a clean miss
        assert sanitizer.violations_raised == 0
        second_label = sanitizer._label(
            sanitizer._memsys_ids, second, "memsys"
        )
        assert second_label != first_label


class TestInstallation:
    def test_enable_is_idempotent(self):
        with hooks.observing(*hooks.OBSERVERS):
            first = enable_sanitizer()
            second = enable_sanitizer()
            assert first is second
            assert active_sanitizer() is first

    def test_env_toggle(self):
        assert sanitize_requested({"SIEVE_SANITIZE": "1"})
        assert sanitize_requested({"SIEVE_SANITIZE": "true"})
        assert not sanitize_requested({"SIEVE_SANITIZE": "0"})
        assert not sanitize_requested({})

    def test_enable_from_env_respects_flag(self):
        with hooks.observing():
            assert enable_from_env({"SIEVE_SANITIZE": "0"}) is None
            assert active_sanitizer() is None
            assert enable_from_env({"SIEVE_SANITIZE": "1"}) is not None
            assert active_sanitizer() is not None

    @pytest.mark.skipif(
        os.environ.get("SIEVE_SANITIZE") == "0",
        reason="suite explicitly opted out (overhead measurement)",
    )
    def test_suite_runs_sanitized(self):
        # The conftest autouse fixture keeps a sanitizer installed for
        # the whole tier-1 suite (the SIEVE_SANITIZE=1 contract).
        assert active_sanitizer() is not None

    def test_disabled_hooks_cost_nothing(self):
        with hooks.observing():
            led = ledger()
            led.record(Command.ACTIVATE, 5)
            system = MemorySystem()
            system.access(0)
            assert not hasattr(led, "_sanitizer_shadow")

    def test_reset_clears_protocol_state(self):
        sanitizer = ProtocolSanitizer()
        sanitizer.observe_command("bank0", "ACT", row=1)
        sanitizer.reset()
        # After reset the bank is precharged again: ACT is legal.
        sanitizer.observe_command("bank0", "ACT", row=2)
        assert sanitizer.history_for("bank0")[-1][3] == "row=2"
