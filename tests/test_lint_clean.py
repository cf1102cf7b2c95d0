"""Tier-1 gate: the merged tree is ``repro.lint``-clean.

The first test is the enforcement point — every rule over every checked
tree, zero findings.  The mutation tests then prove the gate has teeth:
they copy *live* sources into a scratch tree, re-introduce the exact
regressions the rules were written against, and assert the rule fires.
A refactor that accidentally lobotomises R1 or R3 fails here even though
the clean tree still passes.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.lint import all_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
CHECKED_TREES = ("src", "benchmarks", "examples")


def lint_repo(rule_ids=None):
    paths = [REPO_ROOT / tree for tree in CHECKED_TREES]
    return lint_paths([path for path in paths if path.exists()],
                      rule_ids=rule_ids, root=REPO_ROOT)


def copy_live(tmp_path: Path, relpath: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(REPO_ROOT / "src" / relpath, target)
    return target


def test_tree_is_lint_clean():
    findings = lint_repo()
    assert findings == [], "\n" + "\n".join(
        finding.render() for finding in findings)


def test_all_rules_are_loaded():
    assert {rule.id for rule in all_rules()} == {
        "R1", "R2", "R3", "R5", "R6", "R7", "R8"}


def test_r1_fires_when_live_config_gains_unkeyed_field(tmp_path):
    """Regression: adding a SimRankConfig field without deciding whether it
    is cache-keyed must trip R1 — on the real config.py, not a fixture."""
    target = copy_live(tmp_path, "repro/config.py")
    source = target.read_text()
    anchor = "cache_max_bytes: Optional[int] = None"
    assert anchor in source
    target.write_text(source.replace(
        anchor, anchor + "\n    brand_new_knob: int = 0", 1))
    findings = lint_paths([tmp_path], rule_ids=["R1"], root=tmp_path)
    assert [finding.rule for finding in findings] == ["R1"]
    assert "brand_new_knob" in findings[0].message


def test_r1_clean_on_unmodified_live_config(tmp_path):
    copy_live(tmp_path, "repro/config.py")
    assert lint_paths([tmp_path], rule_ids=["R1"], root=tmp_path) == []


def test_r3_fires_on_global_rng_in_live_engine(tmp_path):
    """Regression: a ``np.random`` call sneaking into the LocalPush engine
    (the bit-identical executor guarantee's core) must trip R3."""
    target = copy_live(tmp_path, "repro/simrank/engine.py")
    target.write_text(target.read_text() +
                      "\n\ndef _mutant():\n    return np.random.rand(3)\n")
    findings = lint_paths([tmp_path], rule_ids=["R3"], root=tmp_path)
    assert [finding.rule for finding in findings] == ["R3"]


def test_r3_clean_on_unmodified_live_engine(tmp_path):
    copy_live(tmp_path, "repro/simrank/engine.py")
    assert lint_paths([tmp_path], rule_ids=["R3"], root=tmp_path) == []
