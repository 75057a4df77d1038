"""Property-based tests (hypothesis) on the batched simulation core.

Two families of invariant, each over random generated kernels:

* **composition invariance**: a lane's result depends only on its own
  TLP — not on which other lanes share the batch, their order, or
  where the batch is split (lanes are fully independent by design);
* **no leakage across masked lanes**: a lane that retires early is
  masked out, and lanes that run long past it are unaffected (its
  state must be frozen, not merely skipped).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.arch import FERMI
from repro.core import collect_resource_usage
from repro.sim import simulate_traces_batched, trace_grid

from .test_properties import PARAM_SIZES, kernel_strategy

GRID_BLOCKS = 4


def _staircase(kernel):
    traces = trace_grid(kernel, FERMI, GRID_BLOCKS, PARAM_SIZES)
    usage = collect_resource_usage(kernel, FERMI)
    return traces, usage.max_tlp


def _asdicts(results):
    return [dataclasses.asdict(r) for r in results]


@given(kernel_strategy(), st.data())
@settings(max_examples=10, deadline=None)
def test_batch_composition_invariance(kernel, data):
    """Any multiset of TLPs (duplicates included), in any order, gives
    each lane the result it gets alone."""
    traces, max_tlp = _staircase(kernel)
    tlps = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=max(1, max_tlp)),
            min_size=1,
            max_size=6,
        )
    )
    batched = simulate_traces_batched(traces, FERMI, tlps)
    solo = {
        tlp: dataclasses.asdict(
            simulate_traces_batched(traces, FERMI, [tlp])[0]
        )
        for tlp in set(tlps)
    }
    for tlp, result in zip(tlps, batched):
        assert dataclasses.asdict(result) == solo[tlp]


@given(kernel_strategy(), st.data())
@settings(max_examples=10, deadline=None)
def test_batch_split_invariance(kernel, data):
    """Splitting one batch into two at any point changes nothing."""
    traces, max_tlp = _staircase(kernel)
    tlps = list(range(1, max(1, max_tlp) + 1))
    split = data.draw(st.integers(min_value=0, max_value=len(tlps)))
    whole = simulate_traces_batched(traces, FERMI, tlps)
    parts = []
    for half in (tlps[:split], tlps[split:]):
        if half:  # an empty batch is rejected by construction
            parts.extend(simulate_traces_batched(traces, FERMI, half))
    assert _asdicts(whole) == _asdicts(parts)


@given(kernel_strategy())
@settings(max_examples=10, deadline=None)
def test_masked_lanes_never_leak(kernel):
    """A TLP=1 lane retires long before a max-TLP lane; the survivor's
    result must match its solo run (the retired lane's masked state
    leaked if it does not), and the retired lane's result must match
    *its* solo run (the long-running batch kept mutating it if not)."""
    traces, max_tlp = _staircase(kernel)
    high = max(1, max_tlp)
    together = simulate_traces_batched(traces, FERMI, [1, high, 1])
    low_solo, = simulate_traces_batched(traces, FERMI, [1])
    high_solo, = simulate_traces_batched(traces, FERMI, [high])
    assert dataclasses.asdict(together[0]) == dataclasses.asdict(low_solo)
    assert dataclasses.asdict(together[1]) == dataclasses.asdict(high_solo)
    assert dataclasses.asdict(together[2]) == dataclasses.asdict(low_solo)
