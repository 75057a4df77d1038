"""The diagnostic rule registry: uniqueness, stability, documentation."""

import dataclasses
import os
import re

import pytest

from repro.verify import FAMILIES, RULES, Severity
from repro.verify.registry import family_of, validate_registry

REPO = os.path.join(os.path.dirname(__file__), os.pardir)

#: The frozen vocabulary.  Codes are append-only: adding a rule extends
#: this list; removing or renaming one is a breaking change to every
#: consumer of persisted reports and must retire the code instead.
EXPECTED_CODES = [
    "DF001", "DF002", "DF003", "DF004", "DF005", "DF006", "DF007",
    "DF008", "DF009",
    "AL001", "AL002", "AL003", "AL004", "AL005", "AL006",
    "PL001", "PL002", "PL003",
]

#: Codes of the retired advisory linter.  They are never reused, and
#: the registry rejects their family outright.
RETIRED_CODES = [
    "LNT101", "LNT102", "LNT103",
    "LNT201", "LNT202", "LNT203", "LNT204", "LNT205",
    "LNT301", "LNT302", "LNT303",
    "LNT401", "LNT402", "LNT403", "LNT404", "LNT405",
]


class TestRegistry:
    def test_vocabulary_is_stable(self):
        assert sorted(RULES) == sorted(EXPECTED_CODES)

    def test_codes_are_unique(self):
        assert len(EXPECTED_CODES) == len(set(EXPECTED_CODES))

    def test_every_rule_is_well_formed(self):
        pattern = re.compile(r"^(?:DF|AL|PL)\d{3}$")
        for code, rule in RULES.items():
            assert pattern.match(code), code
            assert rule.code == code
            assert rule.summary.strip(), code
            assert isinstance(rule.severity, Severity), code
            assert family_of(code) in FAMILIES.values(), code

    def test_owner_matches_family(self):
        for code, rule in RULES.items():
            owner, _ = family_of(code)
            assert rule.owner == owner, code

    def test_duplicate_codes_are_rejected(self):
        rule = RULES["DF001"]
        with pytest.raises(ValueError, match="duplicate"):
            validate_registry([rule, rule])

    def test_unknown_family_is_rejected(self):
        bogus = dataclasses.replace(RULES["DF001"], code="ZZZ999")
        with pytest.raises(ValueError, match="family"):
            validate_registry([bogus])


class TestRetiredCodes:
    def test_retired_codes_stay_out_of_the_registry(self):
        assert not set(RETIRED_CODES) & set(RULES)

    def test_retired_family_is_rejected(self):
        revived = dataclasses.replace(RULES["DF001"], code="LNT101")
        with pytest.raises(ValueError, match="family"):
            validate_registry([revived])


class TestDocumentation:
    def test_every_rule_is_documented_in_design_md(self):
        with open(os.path.join(REPO, "DESIGN.md")) as fh:
            design = fh.read()
        for code in RULES:
            assert code in design, (
                f"{code} is not documented in DESIGN.md section 6"
            )
