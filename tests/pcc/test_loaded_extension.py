"""The consumer-side execution handle: a small 'kernel' scenario driving
several installed extensions over shared state, plus cost accounting."""

import struct

from repro.alpha.machine import Memory
from repro.filters.policy import filter_registers, packet_memory
from repro.filters.programs import FILTERS
from repro.filters.trace import TraceConfig, generate_trace
from repro.pcc.api import CodeConsumer, CodeProducer
from repro.perf.cost import ALPHA_175


class TestKernelScenario:
    def test_multiple_extensions_one_consumer(self, filter_policy,
                                              certified_filters):
        consumer = CodeConsumer(filter_policy)
        for name in ("filter1", "filter4"):
            consumer.install(certified_filters[name].binary.to_bytes())
        assert len(consumer.loaded) == 2

        trace = generate_trace(TraceConfig(packets=120, seed=77))
        accepted = [0, 0]
        for frame in trace:
            for index, extension in enumerate(consumer.loaded):
                result = extension.run(packet_memory(frame),
                                       filter_registers(len(frame)))
                accepted[index] += bool(result.value)
        # filter1 (all IP) accepts a superset of filter4 (TCP port 25)
        assert accepted[0] > accepted[1]

    def test_cost_model_passthrough(self, filter_policy,
                                    certified_filters):
        consumer = CodeConsumer(filter_policy)
        extension = consumer.install(
            certified_filters["filter1"].binary.to_bytes())
        frame = generate_trace(TraceConfig(packets=1, seed=5))[0]
        without = extension.run(packet_memory(frame),
                                filter_registers(len(frame)))
        with_model = extension.run(packet_memory(frame),
                                   filter_registers(len(frame)),
                                   cost_model=ALPHA_175)
        assert without.instructions == with_model.instructions
        assert with_model.cycles >= without.instructions

    def test_extension_report_is_attached(self, filter_policy,
                                          certified_filters):
        consumer = CodeConsumer(filter_policy)
        extension = consumer.install(
            certified_filters["filter2"].binary.to_bytes())
        assert extension.report.instructions == 13
        assert extension.report.validation_seconds > 0
