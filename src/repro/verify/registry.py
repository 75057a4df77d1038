"""The single registry of every stable diagnostic rule code.

Every static finding the toolchain can emit — translation-validation
errors (``DF``/``AL``/``PL``, from :mod:`repro.verify`) and lint
findings (``LNT``, from :mod:`repro.analysis.lint`) — is declared here,
in one place, so the code space cannot collide and the CLI contract
stays auditable.  Rule codes are **stable**: they are documented in
DESIGN.md §6 and §12, asserted on by golden tests, and consumed by
external tooling through ``repro verify --json``, ``repro lint --json``
and SARIF output.  Add new codes, never repurpose or renumber old ones.

Families (enforced by :func:`validate_registry` at import time):

======  ===========================================================
prefix  meaning
======  ===========================================================
DF      dataflow verification (def-before-use, CFG health, typing)
AL      allocation validation (register sharing, spill discipline)
PL      pipeline validation (transform effect preservation)
LNT1    lint: register pressure / occupancy stairs
LNT2    lint: memory behaviour (coalescing, banks, dead stores)
LNT3    lint: warp divergence
LNT4    lint: def-use hygiene
======  ===========================================================
"""

from __future__ import annotations

import dataclasses
import enum
import re
from typing import Dict, List, Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are miscompiles or invariant violations — they
    fail ``--verify`` runs (exit 6) and ``repro lint`` runs at the
    default ``--fail-on error`` threshold (exit 8).  ``WARNING``
    findings are suspicious but not provably wrong (performance smells,
    dead code); they fail only under ``--strict`` / ``--fail-on warn``.
    ``INFO`` findings are attribution context and never gate.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclasses.dataclass(frozen=True)
class Rule:
    """One stable diagnostic rule."""

    code: str
    severity: Severity
    summary: str
    #: Which pass owns the rule ("dataflow", "allocation", "pipeline",
    #: "lint-pressure", "lint-memory", "lint-divergence", "lint-hygiene").
    owner: str


#: Rule-code families: prefix -> (owner namespace, prose description).
#: A code must match exactly one family; longer prefixes win (``LNT2``
#: before a hypothetical ``LNT``).
FAMILIES: Dict[str, Tuple[str, str]] = {
    "DF": ("dataflow", "dataflow verification"),
    "AL": ("allocation", "allocation validation"),
    "PL": ("pipeline", "pipeline effect preservation"),
    "LNT1": ("lint-pressure", "lint: register pressure and occupancy"),
    "LNT2": ("lint-memory", "lint: memory access behaviour"),
    "LNT3": ("lint-divergence", "lint: warp divergence"),
    "LNT4": ("lint-hygiene", "lint: def-use hygiene"),
}

_CODE_RE = re.compile(r"^(?:(?:DF|AL|PL)\d{3}|LNT[1-4]\d{2})$")


def _rules() -> Tuple[Rule, ...]:
    E, W, N = Severity.ERROR, Severity.WARNING, Severity.INFO
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
        # ----------------------------------------- lint: pressure (LNT1)
        Rule("LNT101", W,
             "register-pressure hotspot: this operation pushes MaxLive "
             "past the next occupancy stair", "lint-pressure"),
        Rule("LNT102", N,
             "peak register pressure (MaxLive) attained here",
             "lint-pressure"),
        Rule("LNT103", W,
             "register pressure exceeds the architecture's capacity "
             "for even one resident block", "lint-pressure"),
        # ------------------------------------------- lint: memory (LNT2)
        Rule("LNT201", W,
             "uncoalesced global access: per-thread stride costs extra "
             "memory transactions per warp", "lint-memory"),
        Rule("LNT202", N,
             "global access through a statically unanalyzable "
             "(data-dependent) per-thread address", "lint-memory"),
        Rule("LNT203", W,
             "shared-memory access with multi-way bank conflicts",
             "lint-memory"),
        Rule("LNT204", W,
             "store overwritten before any load observes it "
             "(dead store)", "lint-memory"),
        Rule("LNT205", W,
             "store to a local-memory slot that is never loaded "
             "(dead store)", "lint-memory"),
        # --------------------------------------- lint: divergence (LNT3)
        Rule("LNT301", W,
             "warp-divergent conditional branch (thread-dependent "
             "condition)", "lint-divergence"),
        Rule("LNT302", W,
             "loop with a thread-dependent exit condition (divergent "
             "loop)", "lint-divergence"),
        Rule("LNT303", W,
             "barrier under divergent control flow (deadlock risk)",
             "lint-divergence"),
        # ------------------------------------------ lint: hygiene (LNT4)
        Rule("LNT401", W,
             "definition never used on any path (dead code)",
             "lint-hygiene"),
        Rule("LNT402", E,
             "register may be read before initialization on some path",
             "lint-hygiene"),
        Rule("LNT403", W,
             "basic block unreachable from entry", "lint-hygiene"),
        Rule("LNT404", W,
             "declared array never referenced", "lint-hygiene"),
        Rule("LNT405", N,
             "kernel parameter never referenced", "lint-hygiene"),
    )


def family_of(code: str) -> Tuple[str, str]:
    """The ``(owner, description)`` family a code belongs to."""
    best = ""
    for prefix in FAMILIES:
        if code.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    if not best:
        raise KeyError(f"rule code {code!r} matches no known family")
    return FAMILIES[best]


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
        if rule.owner.split("-")[0] != owner.split("-")[0]:
            raise ValueError(
                f"rule {rule.code} claims owner {rule.owner!r} but its "
                f"code prefix belongs to {owner!r}"
            )
        registry[rule.code] = rule
    return registry


#: The one registry.  Keys are stable rule codes; see DESIGN.md §6
#: (verification rules) and §12 (lint rules) for the prose contracts.
RULES: Dict[str, Rule] = validate_registry(_rules())

#: Lint-rule subset (what ``repro lint --rules`` selects over).
LINT_RULES: Dict[str, Rule] = {
    code: rule for code, rule in RULES.items() if code.startswith("LNT")
}


def select_rules(spec: str) -> "frozenset[str]":
    """Parse a ``--rules`` selection into a set of lint rule codes.

    ``spec`` is comma-separated; each token is a full code
    (``LNT204``) or a code prefix (``LNT2`` selects the whole memory
    family, ``LNT`` everything).  Unknown tokens raise ``ValueError``
    with the valid vocabulary in the message.
    """
    selected: List[str] = []
    for token in spec.split(","):
        token = token.strip().upper()
        if not token:
            continue
        matches = [c for c in LINT_RULES if c.startswith(token)]
        if not matches:
            raise ValueError(
                f"unknown lint rule or prefix {token!r} "
                f"(known: {', '.join(sorted(LINT_RULES))})"
            )
        selected.extend(matches)
    return frozenset(selected)
