# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench bench-verbose examples fast-test test-obs test-robustness test-fdir test-overload test-perf test-tdma-perf test-cdma-perf test-scenarios test-dtn all

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

fast-test:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-obs:  ## observability layer: metrics, tracing, golden traces, fault injection
	$(PYTHON) -m pytest tests/obs/ tests/sim/test_kernel_properties.py

test-robustness:  ## fault-tolerance layer: retry, TC/TM transactions, watchdog, chaos sweeps
	$(PYTHON) -m pytest tests/robustness/

test-fdir:  ## traffic-plane FDIR: health monitors, recovery ladder, degraded modes, FDIR mission sweeps
	$(PYTHON) -m pytest -m fdir tests/

test-overload:  ## demand-plane overload control: admission, backpressure, deadlines, brownout, breaker, overload mission sweep
	$(PYTHON) -m pytest -m overload tests/

test-perf:  ## batched burst-processing + EDAC memory throughput baselines (prints bursts/sec and bytes/sec tables)
	$(PYTHON) -m pytest benchmarks/bench_perf_burst_batch.py benchmarks/bench_perf_edac.py -s

test-tdma-perf:  ## batched MF-TDMA demod + polyphase multiplexer: equivalence suite + carriers/sec speedup gate
	$(PYTHON) -m pytest -m perf tests/dsp/test_tdma_batch_equivalence.py benchmarks/bench_perf_tdma_batch.py -s

test-cdma-perf:  ## batched CDMA return-link engine: equivalence suite + bursts/sec speedup gates
	$(PYTHON) -m pytest -m perf tests/dsp/test_cdma_batch_equivalence.py benchmarks/bench_perf_cdma_batch.py -s

test-scenarios:  ## mission-scenario conformance: golden corpus, differential oracles, seeded soak sweeps
	$(PYTHON) -m pytest -m scenario tests/scenarios/

test-dtn:  ## disruption-tolerant ground segment: contact plans, store-and-forward, resumable transfers, outage chaos
	$(PYTHON) -m pytest -m dtn tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-verbose:  ## prints every paper-vs-measured table
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/waveform_reconfiguration.py
	$(PYTHON) examples/mftdma_network.py
	$(PYTHON) examples/policy_reconfiguration.py
	$(PYTHON) examples/mission_lifetime.py
	$(PYTHON) examples/adaptive_fade.py
	$(PYTHON) examples/decoder_tradeoffs.py --fast
	$(PYTHON) examples/seu_campaign.py
	$(PYTHON) examples/protocol_comparison.py

all: test bench
