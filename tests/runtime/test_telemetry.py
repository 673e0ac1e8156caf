"""Telemetry primitives: histogram percentiles, budgeted execution."""

import pytest

from repro.errors import BudgetExceeded
from repro.filters.policy import filter_registers, reusable_packet_memory
from repro.pcc.api import CodeConsumer
from repro.runtime import hist_percentile


@pytest.fixture(scope="module")
def filter1_engine(filter_policy, certified_filters):
    """The runtime's per-extension handle: install through the consumer
    facade, then take the reusable engine off the loaded extension."""
    consumer = CodeConsumer(filter_policy)
    loaded = consumer.install(certified_filters["filter1"].binary)
    return loaded.engine()


def test_percentile_interpolates():
    values = {v: 1 for v in range(1, 101)}
    assert hist_percentile(values, 0.0) == 1
    assert hist_percentile(values, 1.0) == 100
    assert hist_percentile(values, 0.5) == pytest.approx(50.5)
    assert hist_percentile({5: 1}, 0.99) == 5
    assert hist_percentile({}, 0.5) == 0.0


def test_budgeted_run_is_bit_identical_under_budget(filter1_engine,
                                                    small_trace):
    """``run`` with a generous budget must agree with an unbudgeted run
    exactly — same verdicts, same cycle counts — because the budget
    check only observes the cycle counter the engine keeps anyway."""
    engine = filter1_engine
    memory, rebind = reusable_packet_memory()
    for frame in small_trace[:80]:
        rebind(frame)
        plain = engine.run(memory, filter_registers(len(frame)))
        rebind(frame)
        budgeted = engine.run(memory, filter_registers(len(frame)),
                              cycle_budget=1_000_000)
        assert budgeted.value == plain.value
        assert budgeted.cycles == plain.cycles
        assert budgeted.instructions == plain.instructions


def test_budget_overrun_reports_cycles_and_budget(filter1_engine,
                                                  small_trace):
    engine = filter1_engine
    memory, rebind = reusable_packet_memory()
    frame = small_trace[0]
    rebind(frame)
    with pytest.raises(BudgetExceeded) as excinfo:
        engine.run(memory, filter_registers(len(frame)), cycle_budget=3)
    error = excinfo.value
    assert error.budget == 3
    assert error.cycles > 3
