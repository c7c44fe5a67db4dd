"""Unit tests for repro.arch.events."""

import pytest

from repro.arch.components import COMPONENTS
from repro.arch.events import COMPONENT_EVENTS, EVENT_NAMES, EventParams


def _full_counts(cycles=1000.0, fill=10.0):
    counts = {name: fill for name in EVENT_NAMES}
    counts["cycles"] = cycles
    return counts


class TestEventParams:
    def test_valid_construction(self):
        ev = EventParams(_full_counts())
        assert ev.cycles == 1000.0

    def test_missing_event_rejected(self):
        counts = _full_counts()
        del counts["icache_misses"]
        with pytest.raises(ValueError, match="missing"):
            EventParams(counts)

    def test_unknown_event_rejected(self):
        counts = _full_counts()
        counts["made_up"] = 1.0
        with pytest.raises(ValueError, match="unknown"):
            EventParams(counts)

    def test_negative_count_rejected(self):
        counts = _full_counts()
        counts["dcache_misses"] = -1.0
        with pytest.raises(ValueError, match="negative"):
            EventParams(counts)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_count_rejected(self, bad):
        # NaN slips past a plain ``< 0`` check (and used to score as a
        # power number); +inf saturated the trees silently.
        counts = _full_counts()
        counts["dcache_misses"] = bad
        with pytest.raises(ValueError, match="finite"):
            EventParams(counts)

    def test_zero_cycles_rejected(self):
        counts = _full_counts(cycles=0.0)
        with pytest.raises(ValueError, match="cycles"):
            EventParams(counts)

    def test_ipc(self):
        counts = _full_counts(cycles=100.0)
        counts["instructions"] = 250.0
        assert EventParams(counts).ipc == pytest.approx(2.5)

    def test_rate(self):
        ev = EventParams(_full_counts(cycles=1000.0, fill=10.0))
        assert ev.rate("dcache_misses") == pytest.approx(0.01)

    def test_scaled(self):
        ev = EventParams(_full_counts())
        doubled = ev.scaled(2.0)
        assert doubled.cycles == 2000.0
        assert doubled["dcache_misses"] == 20.0
        # Rates are scale-invariant.
        assert doubled.rate("dcache_misses") == ev.rate("dcache_misses")

    def test_scaled_rejects_nonpositive(self):
        ev = EventParams(_full_counts())
        with pytest.raises(ValueError):
            ev.scaled(0.0)


class TestComponentEvents:
    def test_every_component_has_event_mapping(self):
        for comp in COMPONENTS:
            assert comp.name in COMPONENT_EVENTS
            assert len(COMPONENT_EVENTS[comp.name]) >= 2

    def test_mapped_events_exist(self):
        for names in COMPONENT_EVENTS.values():
            for name in names:
                assert name in EVENT_NAMES

    def test_for_component(self):
        ev = EventParams(_full_counts())
        sub = ev.for_component("ROB")
        assert set(sub) == set(COMPONENT_EVENTS["ROB"])

    def test_rates_for_component(self):
        ev = EventParams(_full_counts(cycles=100.0, fill=5.0))
        rates = ev.rates_for_component("D-TLB")
        assert all(v == pytest.approx(0.05) for v in rates.values())

    def test_unknown_component(self):
        ev = EventParams(_full_counts())
        with pytest.raises(KeyError):
            ev.for_component("NoSuchUnit")
