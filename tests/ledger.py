"""The golden ledger (``tools/ledger.json``) for tier-1 tests.

Entries are encoded and keyed by ``tools/ledger_gate.py``, which checks
the whole ledger; the tests compare a slice of it.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")
)

import ledger_gate  # noqa: E402

LEDGER = ledger_gate.load_ledger()


def assert_in_ledger(section, key, entry):
    """``entry`` (a ``sim_entry``/``pass_entry``/``trace_entry``) equals
    the ledger's."""
    expected = LEDGER[section].get(key)
    assert entry == expected, ledger_gate.describe_drift(key, expected, entry)
