"""The CI workflow and the Makefile name the same targets.

A target deleted from the Makefile but still called from ``ci.yml`` (or
still listed in ``.PHONY``) only fails once CI reaches that step; these
checks fail it in the tier-1 session instead.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def makefile_rules() -> set[str]:
    text = (ROOT / "Makefile").read_text()
    return set(re.findall(r"^([A-Za-z0-9_.-]+)\s*:(?!=)", text, re.MULTILINE))


def phony_names() -> set[str]:
    text = (ROOT / "Makefile").read_text().replace("\\\n", " ")
    (names,) = re.findall(r"^\.PHONY:(.*)$", text, re.MULTILINE)
    return set(names.split())


def ci_targets() -> set[str]:
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return set(re.findall(r"\bmake\s+([A-Za-z0-9_.-]+)", text))


def test_every_ci_make_target_is_a_rule():
    targets = ci_targets()
    assert targets, "ci.yml calls no make target"
    assert targets <= makefile_rules(), targets - makefile_rules()


def test_every_phony_name_is_a_rule():
    assert phony_names() <= makefile_rules(), phony_names() - makefile_rules()
