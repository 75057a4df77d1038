"""Golden round-trip tests over the PTX fixtures in ``examples/``.

Every ``.ptx`` fixture must survive parse → print → parse with
instruction-level equality: the printer is a faithful inverse of the
parser on the whole supported subset (arithmetic, loops, predication,
divergent branches, shared-memory arrays, and allocator-inserted
local/shared spill code in ``spilled.ptx``).
"""

import glob
import os

import pytest

from repro.errors import ParseError
from repro.ptx import parse_kernel, print_kernel
from repro.verify import verify_kernel

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
FIXTURES = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.ptx")))

#: Fixtures seeded with a maybe-uninitialized read: they parse, and the
#: DF load gate rejects them (``repro verify`` reports the same DF001).
SEEDED_DF001 = {"miscompiled.ptx", "uninit_read.ptx"}


def fixture_id(path):
    return os.path.basename(path)


def test_fixture_set_is_present():
    """The golden corpus exists and covers more than a token example."""
    assert len(FIXTURES) >= 5


@pytest.mark.parametrize("path", FIXTURES, ids=fixture_id)
class TestGoldenRoundTrip:
    def test_fixture_parses_and_verifies(self, path):
        with open(path) as handle:
            kernel = parse_kernel(handle.read())
        assert kernel.instructions()
        if fixture_id(path) in SEEDED_DF001:
            with pytest.raises(ParseError, match="DF001"):
                verify_kernel(kernel)
        else:
            verify_kernel(kernel)

    def test_parse_print_parse_instruction_equality(self, path):
        with open(path) as handle:
            first = parse_kernel(handle.read())
        printed = print_kernel(first)
        second = parse_kernel(printed)

        assert second.name == first.name
        assert second.block_size == first.block_size
        assert [p.name for p in second.params] == [p.name for p in first.params]
        assert [p.dtype for p in second.params] == [p.dtype for p in first.params]

        a, b = first.instructions(), second.instructions()
        assert len(a) == len(b)
        for i, (x, y) in enumerate(zip(a, b)):
            assert x == y, f"instruction {i} differs: {x} vs {y}"

    def test_print_is_a_fixed_point(self, path):
        with open(path) as handle:
            first = parse_kernel(handle.read())
        printed = print_kernel(first)
        assert print_kernel(parse_kernel(printed)) == printed

    def test_labels_round_trip(self, path):
        with open(path) as handle:
            first = parse_kernel(handle.read())
        second = parse_kernel(print_kernel(first))
        assert sorted(first.labels()) == sorted(second.labels())
