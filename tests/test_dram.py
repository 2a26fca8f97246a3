"""Tests for the DRAM substrate: timing, geometry, energy, behavioral
arrays, and command accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dram import (
    DDR3_1600,
    DDR4_2400,
    DDR4_ENERGY,
    SIEVE_4GB,
    SIEVE_8GB,
    SIEVE_16GB,
    SIEVE_32GB,
    SIEVE_TIMING,
    Bank,
    Command,
    CommandLedger,
    DramEnergy,
    DramGeometry,
    DramStateError,
    DramTiming,
    EnergyError,
    GeometryError,
    Subarray,
    TimingError,
)


class TestTiming:
    def test_paper_row_cycle(self):
        """The paper's ~50 ns single-row activation window."""
        assert DDR3_1600.row_cycle == pytest.approx(48.75)
        assert SIEVE_TIMING.row_cycle == pytest.approx(50.0)

    def test_paper_triple_row_activation(self):
        """8 x tRAS + 4 x tRP ~ 340 ns (Section III)."""
        assert DDR3_1600.triple_row_activation == pytest.approx(335.0)

    def test_tccd_in_paper_range(self):
        assert 5.0 <= SIEVE_TIMING.tCCD <= 7.0

    def test_burst_time(self):
        # 8 beats, double data rate -> 4 clocks.
        assert DDR4_2400.burst_time == pytest.approx(4 * 0.833)

    def test_refresh_overhead_small(self):
        assert 0.0 < DDR4_2400.refresh_overhead < 0.1

    def test_scaled(self):
        fast = SIEVE_TIMING.scaled(0.5)
        assert fast.tRAS == pytest.approx(17.5)
        assert fast.row_cycle == pytest.approx(25.0)

    def test_scaled_invalid(self):
        with pytest.raises(TimingError):
            SIEVE_TIMING.scaled(0)

    def test_validation(self):
        with pytest.raises(TimingError):
            DramTiming(tCK=1, tRCD=10, tRAS=5, tRP=10, tCCD=5, tCAS=10)
        with pytest.raises(TimingError):
            DramTiming(tCK=-1, tRCD=10, tRAS=30, tRP=10, tCCD=5, tCAS=10)


class TestGeometry:
    def test_sieve_32gb_matches_paper(self):
        """Section IV-C: 32 GB = 16 ranks x 8 banks; Type-2 relays across
        up to 128 subarrays per bank."""
        assert SIEVE_32GB.ranks == 16
        assert SIEVE_32GB.banks_per_rank == 8
        assert SIEVE_32GB.subarrays_per_bank == 128
        assert SIEVE_32GB.capacity_gib == pytest.approx(32.0)

    def test_capacity_sweep_consistency(self):
        for geom, gib in [(SIEVE_4GB, 4), (SIEVE_8GB, 8), (SIEVE_16GB, 16)]:
            assert geom.capacity_gib == pytest.approx(gib)
            assert geom.subarrays_per_bank == 128

    def test_default_ranks_hold_2_gib_each(self):
        for gib, ranks in [(3.0, 1), (4.0, 2), (32.0, 16), (512.0, 256)]:
            geom = DramGeometry.for_capacity(gib)
            assert geom.ranks == ranks
            assert geom.capacity_gib == pytest.approx(gib)

    def test_bank_count_scales_with_capacity(self):
        assert SIEVE_32GB.total_banks == 8 * SIEVE_4GB.total_banks

    def test_batches_per_row(self):
        assert SIEVE_32GB.batches_per_row == 128  # 8192 / 64 (Fig 12)

    def test_for_capacity_rejects_fractional(self):
        with pytest.raises(GeometryError):
            DramGeometry.for_capacity(0.001)

    def test_row_bits_divisible(self):
        with pytest.raises(GeometryError):
            DramGeometry(row_bits=100, bank_io_bits=64)

    def test_positive_fields(self):
        with pytest.raises(GeometryError):
            DramGeometry(ranks=0)

    def test_str_mentions_capacity(self):
        assert "32.0 GiB" in str(SIEVE_32GB)


class TestEnergy:
    def test_activation_energy_magnitude(self):
        """IDD0 arithmetic lands ~1 nJ per act+pre for a DDR4 part."""
        nj = DDR4_ENERGY.activation_energy_nj(SIEVE_TIMING)
        assert 0.5 < nj < 2.0

    def test_sieve_overhead_six_percent(self):
        base = DDR4_ENERGY.activation_energy_nj(SIEVE_TIMING)
        sieve = DDR4_ENERGY.sieve_activation_energy_nj(SIEVE_TIMING)
        assert sieve / base == pytest.approx(1.06)

    def test_multi_row_22_percent_per_wordline(self):
        base = DDR4_ENERGY.activation_energy_nj(SIEVE_TIMING)
        triple = DDR4_ENERGY.multi_row_activation_energy_nj(SIEVE_TIMING, 3)
        assert triple / base == pytest.approx(1.44)

    def test_multi_row_validation(self):
        with pytest.raises(EnergyError):
            DDR4_ENERGY.multi_row_activation_energy_nj(SIEVE_TIMING, 0)

    def test_read_write_burst_energy(self):
        r = DDR4_ENERGY.read_burst_energy_nj(SIEVE_TIMING)
        w = DDR4_ENERGY.write_burst_energy_nj(SIEVE_TIMING)
        assert 0.1 < r < 1.0
        assert 0.1 < w < 1.0

    def test_background_power(self):
        assert DDR4_ENERGY.background_power_mw() == pytest.approx(34 * 1.2)

    def test_refresh_energy_positive(self):
        assert DDR4_ENERGY.refresh_energy_nj(SIEVE_TIMING) > 0

    def test_validation(self):
        with pytest.raises(EnergyError):
            DramEnergy(vdd=-1)
        with pytest.raises(EnergyError):
            DramEnergy(idd0=30, idd2n=34)  # act below standby


class TestSubarray:
    def test_activate_read(self):
        sub = Subarray(8, 16)
        bits = np.arange(16, dtype=np.uint8) % 2
        sub.load_row(3, bits)
        np.testing.assert_array_equal(sub.activate(3), bits)

    def test_activate_returns_readonly_view(self):
        sub = Subarray(4, 8)
        view = sub.activate(0)
        with pytest.raises(ValueError):
            view[0] = 1

    def test_double_activate_different_row_rejected(self):
        sub = Subarray(4, 8)
        sub.activate(0)
        with pytest.raises(DramStateError):
            sub.activate(1)

    def test_same_row_reactivation_allowed(self):
        sub = Subarray(4, 8)
        sub.activate(0)
        sub.activate(0)
        assert sub.stats.activations == 1

    def test_precharge_idempotent(self):
        sub = Subarray(4, 8)
        sub.precharge()
        sub.activate(1)
        sub.precharge()
        sub.precharge()
        assert sub.stats.precharges == 1
        assert sub.open_row is None

    def test_write_through_row_buffer(self):
        sub = Subarray(4, 8)
        sub.activate(2)
        bits = np.ones(8, dtype=np.uint8)
        sub.write_row_buffer(bits)
        sub.precharge()
        np.testing.assert_array_equal(sub.activate(2), bits)

    def test_read_requires_open_row(self):
        sub = Subarray(4, 8)
        with pytest.raises(DramStateError):
            sub.read_row_buffer()
        with pytest.raises(DramStateError):
            sub.write_row_buffer(np.zeros(8, dtype=np.uint8))

    def test_load_bits_partial(self):
        sub = Subarray(4, 16)
        sub.load_bits(1, 4, np.array([1, 1, 1], dtype=np.uint8))
        assert sub.peek(1, 4) == 1
        assert sub.peek(1, 3) == 0

    def test_load_bits_bounds(self):
        sub = Subarray(4, 8)
        with pytest.raises(IndexError):
            sub.load_bits(0, 6, np.ones(4, dtype=np.uint8))

    def test_row_bounds(self):
        sub = Subarray(4, 8)
        with pytest.raises(IndexError):
            sub.activate(4)
        with pytest.raises(IndexError):
            sub.peek(0, 9)

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            Subarray(0, 8)

    @given(st.integers(0, 7), st.lists(st.integers(0, 1), min_size=16, max_size=16))
    def test_store_recall_property(self, row, bits):
        sub = Subarray(8, 16)
        arr = np.array(bits, dtype=np.uint8)
        sub.load_row(row, arr)
        np.testing.assert_array_equal(sub.activate(row), arr)


class TestBank:
    def test_locate(self):
        bank = Bank(subarrays_per_bank=4, rows_per_subarray=8, row_bits=16)
        assert bank.locate(0) == (0, 0)
        assert bank.locate(9) == (1, 1)
        assert bank.total_rows == 32

    def test_locate_bounds(self):
        bank = Bank(subarrays_per_bank=2, rows_per_subarray=4, row_bits=8)
        with pytest.raises(IndexError):
            bank.locate(8)

    def test_activate_routes_to_subarray(self):
        bank = Bank(subarrays_per_bank=2, rows_per_subarray=4, row_bits=8)
        bits = np.ones(8, dtype=np.uint8)
        bank.subarrays[1].load_row(2, bits)
        np.testing.assert_array_equal(bank.activate(6), bits)

    def test_precharge_all(self):
        bank = Bank(subarrays_per_bank=2, rows_per_subarray=4, row_bits=8)
        bank.activate(0)
        bank.activate(5)
        bank.precharge_all()
        assert all(s.open_row is None for s in bank.subarrays)


class TestCommandLedger:
    def _ledger(self, **kw):
        return CommandLedger(timing=SIEVE_TIMING, energy=DDR4_ENERGY, **kw)

    def test_activate_accounting(self):
        ledger = self._ledger()
        ledger.record(Command.ACTIVATE, 10)
        assert ledger.serial_time_ns == pytest.approx(10 * 50.0)
        assert ledger.energy_nj == pytest.approx(
            10 * DDR4_ENERGY.activation_energy_nj(SIEVE_TIMING)
        )

    def test_activation_energy_factor(self):
        plain = self._ledger()
        sieve = self._ledger(activation_energy_factor=1.06)
        plain.record(Command.ACTIVATE, 100)
        sieve.record(Command.ACTIVATE, 100)
        assert sieve.energy_nj / plain.energy_nj == pytest.approx(1.06)

    def test_multi_activate(self):
        ledger = self._ledger()
        ledger.record(Command.MULTI_ACTIVATE, 1, rows=3)
        assert ledger.serial_time_ns == pytest.approx(
            SIEVE_TIMING.triple_row_activation
        )

    def test_bursts(self):
        ledger = self._ledger()
        ledger.record(Command.READ_BURST, 4)
        ledger.record(Command.WRITE_BURST, 4)
        assert ledger.serial_time_ns == pytest.approx(8 * SIEVE_TIMING.tCCD)

    def test_hop_default_is_tras_over_8(self):
        ledger = self._ledger()
        ledger.record(Command.HOP, 8)
        assert ledger.serial_time_ns == pytest.approx(SIEVE_TIMING.tRAS)

    def test_zero_count_noop(self):
        ledger = self._ledger()
        ledger.record(Command.ACTIVATE, 0)
        assert ledger.serial_time_ns == 0
        assert ledger.counts == {}

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            self._ledger().record(Command.ACTIVATE, -1)

    def test_add_time_energy_validation(self):
        ledger = self._ledger()
        with pytest.raises(ValueError):
            ledger.add_time(-1)
        with pytest.raises(ValueError):
            ledger.add_energy(-1)

    def test_merge_parallel_takes_max_time(self):
        a, b = self._ledger(), self._ledger()
        a.record(Command.ACTIVATE, 10)
        b.record(Command.ACTIVATE, 3)
        a.merge(b, parallel=True)
        assert a.serial_time_ns == pytest.approx(10 * 50.0)
        assert a.count(Command.ACTIVATE) == 13

    def test_merge_serial_adds_time(self):
        a, b = self._ledger(), self._ledger()
        a.record(Command.ACTIVATE, 10)
        b.record(Command.ACTIVATE, 3)
        a.merge(b, parallel=False)
        assert a.serial_time_ns == pytest.approx(13 * 50.0)

    def test_energy_always_adds_on_merge(self):
        a, b = self._ledger(), self._ledger()
        a.record(Command.ACTIVATE, 1)
        b.record(Command.ACTIVATE, 1)
        total = a.energy_nj + b.energy_nj
        a.merge(b, parallel=True)
        assert a.energy_nj == pytest.approx(total)
