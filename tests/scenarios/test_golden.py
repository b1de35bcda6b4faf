"""Golden-trace conformance: every canonical mission must reproduce its
frozen trace hash and summary metrics -- twice in a row -- and hold
every invariant."""

import pytest

from repro.scenarios import (
    canonical_scenarios,
    default_golden_dir,
    diff_records,
    load_corpus,
    record_of,
    result_violations,
    run_scenario,
)

pytestmark = pytest.mark.scenario

_SPECS = canonical_scenarios()


@pytest.fixture(scope="module")
def corpus():
    directory = default_golden_dir()
    assert directory.is_dir(), (
        f"golden corpus missing at {directory}; run "
        "`python -m repro.scenarios --regen`"
    )
    return load_corpus(directory)


def test_corpus_covers_every_canonical_scenario(corpus):
    assert sorted(corpus) == sorted(s.name for s in _SPECS)


@pytest.mark.parametrize("spec", _SPECS, ids=[s.name for s in _SPECS])
def test_scenario_matches_golden_record_twice(spec, corpus):
    frozen = corpus[spec.name]
    assert frozen.spec_hash == spec.spec_hash(), (
        f"{spec.name}: the catalog spec changed but the golden record was "
        "not regenerated (python -m repro.scenarios --regen)"
    )
    result = run_scenario(spec)
    assert result_violations(result) == []
    first = record_of(result)
    drift = diff_records(frozen, first)
    assert not drift, (
        f"{spec.name} diverged from its golden record:\n  "
        + "\n  ".join(drift)
    )
    # and again: the trace hash must be stable run-to-run in-process
    second = record_of(run_scenario(spec))
    assert second.trace_hash == first.trace_hash, (
        f"{spec.name}: two consecutive runs produced different trace "
        "hashes -- nondeterminism in the stack"
    )
    assert second.metrics == first.metrics
