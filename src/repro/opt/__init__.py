"""Pre-allocation optimization passes on the pattern-rewrite driver.

Every pass is a :class:`repro.ir.RewritePattern` applied by the
:class:`repro.ir.GreedyRewriteDriver`, and the one way to run one is
:func:`repro.ir.run_pipeline` with its registry name: ``copy-prop``,
``dce``, ``bypass``, ``mlp-sched``, ``minreg-sched`` and ``unroll``
(factor 2; ``GreedyRewriteDriver([UnrollPattern(factor)])`` unrolls by
another factor).  Each pass's output kernel and counters are pinned for
the whole corpus in the golden ledger (``tools/ledger.json``, checked
by ``tools/ledger_gate.py``).
"""

from __future__ import annotations

from .bypass import BypassPattern
from .copy_prop import CopyPropPattern
from .dce import DCEPattern
from .minreg import MinRegSchedPattern
from .schedule import MlpSchedPattern
from .unroll import UnrollPattern

__all__ = [
    "BypassPattern",
    "CopyPropPattern",
    "DCEPattern",
    "MinRegSchedPattern",
    "MlpSchedPattern",
    "UnrollPattern",
]
