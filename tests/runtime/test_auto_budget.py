"""Auto cycle budgets: config validation, WCET-derived budgets at
admission, and the load-bearing acceptance property — budgeted dispatch
is bit-identical to unbudgeted dispatch on the Figure 8 trace, because
the budget is a sound upper bound on every successful run."""

import importlib

import pytest

from repro.alpha.encoding import encode_program
from repro.alpha.parser import parse_program
from repro.analysis import context_for_policy, estimate_wcet
from repro.pcc.container import PccBinary
from repro.runtime import PacketRuntime, RuntimeConfig


def _attach_all(runtime, filter_blobs):
    for name, blob in sorted(filter_blobs.items()):
        runtime.attach(name, blob)


# -- config validation --------------------------------------------------


@pytest.mark.parametrize("budget", ["AUTO", "none", "", "7"])
def test_rejects_non_auto_strings(budget):
    with pytest.raises(ValueError, match="cycle budget"):
        RuntimeConfig(cycle_budget=budget)


@pytest.mark.parametrize("budget", [True, False])
def test_rejects_bool_budget(budget):
    # bool is an int subclass; True would silently mean "1 cycle".
    with pytest.raises(ValueError, match="bool"):
        RuntimeConfig(cycle_budget=budget)


@pytest.mark.parametrize("budget", [0, -5])
def test_rejects_non_positive_budget(budget):
    with pytest.raises(ValueError, match="positive"):
        RuntimeConfig(cycle_budget=budget)


@pytest.mark.parametrize("budget", [3.5, [100], {}])
def test_rejects_non_int_budget(budget):
    with pytest.raises(ValueError, match="cycle budget"):
        RuntimeConfig(cycle_budget=budget)


@pytest.mark.parametrize("budget", [None, 1, 10_000, "auto"])
def test_accepts_valid_budgets(budget):
    assert RuntimeConfig(cycle_budget=budget).cycle_budget == budget


@pytest.mark.parametrize("slack", [-0.1, -1, "lots", True, None])
def test_rejects_bad_slack(slack):
    with pytest.raises(ValueError, match="slack"):
        RuntimeConfig(cycle_budget="auto", budget_slack=slack)


@pytest.mark.parametrize("slack", [0, 0.0, 0.25, 3])
def test_accepts_valid_slack(slack):
    assert RuntimeConfig(budget_slack=slack).budget_slack == slack


# -- admission-time budget resolution -----------------------------------


def test_auto_budget_set_from_wcet_at_admission(filter_policy,
                                                filter_blobs):
    runtime = PacketRuntime(filter_policy,
                            RuntimeConfig(cycle_budget="auto",
                                          budget_slack=0.25))
    _attach_all(runtime, filter_blobs)
    context = context_for_policy(filter_policy)
    by_name = {ext.name: ext for ext in runtime.snapshot().extensions}
    for name, extension in runtime._extensions.items():
        report = estimate_wcet(extension.program, context)
        assert extension.wcet_bound == report.bound
        assert extension.cycle_budget == report.budget(0.25)
        assert extension.cycle_budget > report.bound  # slack applied
        # The telemetry snapshot carries both numbers.
        snap = by_name[name]
        assert snap.cycle_budget == extension.cycle_budget
        assert snap.wcet_cycles == extension.wcet_bound


def test_fixed_budget_unchanged_by_resolution(filter_policy, filter_blobs):
    runtime = PacketRuntime(filter_policy, RuntimeConfig(cycle_budget=500))
    _attach_all(runtime, filter_blobs)
    for extension in runtime._extensions.values():
        assert extension.cycle_budget == 500
        assert extension.wcet_bound is None


def test_unbounded_extension_falls_back_to_unbudgeted(filter_policy):
    """A loop the analyzer cannot bound admits (on the checked tier)
    without a budget — WCET is never an admission criterion."""
    source = """
 loop:  ADDQ r4, 1, r4
        BR   loop
        RET
    """
    blob = PccBinary(encode_program(parse_program(source)),
                     b"", b"", b"").to_bytes()
    runtime = PacketRuntime(filter_policy,
                            RuntimeConfig(cycle_budget="auto",
                                          downgrade_unproven=True))
    runtime.attach("spinner", blob)
    extension = runtime._extensions["spinner"]
    assert extension.wcet_bound is None
    assert extension.cycle_budget is None


def test_unbounded_loop_is_bounded_once_per_attach(monkeypatch):
    """Admission's WCET finds the checksum loop unbounded, so the batch
    compiler is not asked to bound it a second time: the program runs
    on the generic engine either way."""
    from repro.filters.checksum import (
        CHECKSUM_LOOP_PC,
        CHECKSUM_SOURCE,
        checksum_invariant,
        checksum_policy,
    )
    from repro.pcc import certify

    policy = checksum_policy()
    blob = certify(CHECKSUM_SOURCE, policy, invariants={
        CHECKSUM_LOOP_PC: checksum_invariant()}).binary.to_bytes()
    headers = []
    for module in ("repro.analysis.wcet", "repro.alpha.batch"):
        owner = importlib.import_module(module)

        def counted(analysis, loop, *args, _bound=owner.bound_loop,
                    **kwargs):
            headers.append(loop.header)
            return _bound(analysis, loop, *args, **kwargs)

        monkeypatch.setattr(owner, "bound_loop", counted)
    runtime = PacketRuntime(policy, RuntimeConfig(cycle_budget="auto"))
    extension = runtime.attach("checksum", blob)
    assert extension.wcet_bound is None
    assert extension.batch_runner is None
    assert len(headers) == 1


# -- the acceptance property --------------------------------------------


def test_auto_budget_dispatch_bit_identical(filter_policy, filter_blobs,
                                            small_trace):
    """Same trace, same filters: auto-budgeted dispatch produces the
    exact verdict stream and fault count of unbudgeted dispatch."""
    frames = small_trace
    records, faults = {}, {}
    for budget in (None, "auto"):
        runtime = PacketRuntime(filter_policy,
                                RuntimeConfig(cycle_budget=budget))
        _attach_all(runtime, filter_blobs)
        records[budget] = runtime.dispatch(frames, collect=True).records
        faults[budget] = runtime.snapshot().faults
    assert records["auto"] == records[None]
    assert faults["auto"] == faults[None] == 0


def test_exact_budget_no_slack_never_trips(filter_policy, filter_blobs,
                                           small_trace):
    """slack=0 sets the budget to the exact WCET bound; the engine's
    block-granular accounting never exceeds it on a successful run."""
    runtime = PacketRuntime(filter_policy,
                            RuntimeConfig(cycle_budget="auto",
                                          budget_slack=0.0))
    _attach_all(runtime, filter_blobs)
    runtime.dispatch(small_trace[:500])
    snapshot = runtime.snapshot()
    assert snapshot.faults == 0
    for extension in snapshot.extensions:
        assert extension.state == "active"
        assert extension.cycles > 0
