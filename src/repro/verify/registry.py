"""The single registry of every stable diagnostic rule code.

Every static finding the toolchain can emit — the translation-validation
rules ``DF``/``AL``/``PL`` of :mod:`repro.verify` — is declared here,
in one place, so the code space cannot collide and the CLI contract
stays auditable.  Rule codes are **stable**: they are documented in
DESIGN.md §6, asserted on by golden tests, and consumed by external
tooling through ``repro verify --json``.  Add new codes, never
repurpose or renumber old ones; a retired code is never reused.

Families (enforced by :func:`validate_registry` at import time):

======  ===========================================================
prefix  meaning
======  ===========================================================
DF      dataflow verification (def-before-use, CFG health, typing)
AL      allocation validation (register sharing, spill discipline)
PL      pipeline validation (transform effect preservation)
======  ===========================================================
"""

from __future__ import annotations

import dataclasses
import enum
import re
from typing import Dict, Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are miscompiles or invariant violations — they
    fail ``repro verify`` and ``--verify`` runs (exit 6).  ``WARNING``
    findings are suspicious but not provably wrong (unreachable code);
    they fail only under ``repro verify --strict``.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclasses.dataclass(frozen=True)
class Rule:
    """One stable diagnostic rule."""

    code: str
    severity: Severity
    summary: str
    #: Which pass owns the rule ("dataflow", "allocation", "pipeline").
    owner: str


#: Rule-code families: prefix -> (owner, prose description).  A code
#: belongs to the one family whose prefix it starts with.
FAMILIES: Dict[str, Tuple[str, str]] = {
    "DF": ("dataflow", "dataflow verification"),
    "AL": ("allocation", "allocation validation"),
    "PL": ("pipeline", "pipeline effect preservation"),
}

_CODE_RE = re.compile(r"^(?:DF|AL|PL)\d{3}$")


def _rules() -> Tuple[Rule, ...]:
    E, W = Severity.ERROR, Severity.WARNING
    return (
        # ------------------------------------------------ dataflow (DF)
        Rule("DF001", E,
             "use of a register on a path with no prior definition",
             "dataflow"),
        Rule("DF002", E,
             "use of a register never defined anywhere", "dataflow"),
        Rule("DF003", W,
             "basic block unreachable from entry", "dataflow"),
        Rule("DF004", E,
             "control can fall off the end of the kernel", "dataflow"),
        Rule("DF005", E,
             "register name used with incompatible register classes",
             "dataflow"),
        Rule("DF006", E,
             "branch to an undefined label", "dataflow"),
        Rule("DF007", E,
             "operand type incompatible with instruction type", "dataflow"),
        Rule("DF008", E,
             "reference to an undeclared symbol", "dataflow"),
        Rule("DF009", E,
             "duplicate label definition", "dataflow"),
        # ---------------------------------------------- allocation (AL)
        Rule("AL001", E,
             "two simultaneously-live virtual registers share one "
             "physical register", "allocation"),
        Rule("AL002", E,
             "spill reload on a path with no prior store to its slot",
             "allocation"),
        Rule("AL003", E,
             "spill access aliases a neighbouring slot", "allocation"),
        Rule("AL004", E,
             "spill-stack layout overlaps slots or misaligns the "
             "per-thread record stride", "allocation"),
        Rule("AL005", E,
             "spill stack exceeds its declared array or shared-memory "
             "budget", "allocation"),
        Rule("AL006", E,
             "spilled virtual register still referenced after rewriting",
             "allocation"),
        # ------------------------------------------------ pipeline (PL)
        Rule("PL001", E,
             "control-flow graph malformed after a transform pass",
             "pipeline"),
        Rule("PL002", E,
             "observable effects (stores/barriers) changed by a "
             "transform pass", "pipeline"),
        Rule("PL003", E,
             "transform pass introduced a dataflow error", "pipeline"),
    )


def family_of(code: str) -> Tuple[str, str]:
    """The ``(owner, description)`` family a code belongs to."""
    for prefix, family in FAMILIES.items():
        if code.startswith(prefix):
            return family
    raise KeyError(f"rule code {code!r} matches no known family")


def validate_registry(rules: Tuple[Rule, ...]) -> Dict[str, Rule]:
    """Build the code->rule map, enforcing the registry invariants.

    Raises ``ValueError`` on a duplicate code, a code outside the
    documented families, or an empty summary — so a bad rule definition
    fails at import time, not in the field.
    """
    registry: Dict[str, Rule] = {}
    for rule in rules:
        if not _CODE_RE.match(rule.code):
            raise ValueError(
                f"rule code {rule.code!r} does not match any documented "
                f"family pattern"
            )
        if rule.code in registry:
            raise ValueError(f"duplicate rule code {rule.code!r}")
        if not rule.summary.strip():
            raise ValueError(f"rule {rule.code} has an empty summary")
        owner, _ = family_of(rule.code)
        if rule.owner != owner:
            raise ValueError(
                f"rule {rule.code} claims owner {rule.owner!r} but its "
                f"code prefix belongs to {owner!r}"
            )
        registry[rule.code] = rule
    return registry


#: The one registry.  Keys are stable rule codes; see DESIGN.md §6 for
#: the prose contracts.
RULES: Dict[str, Rule] = validate_registry(_rules())
