"""The guideline checker: runs the MISRA predictability rules over a unit."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import GuidelineError
from repro.minic import ast
from repro.minic.typecheck import check_types
from repro.guidelines.finding import ChallengeTier, Finding
from repro.guidelines.rules import Rule
from repro.guidelines.rules.rule_13_04 import Rule13_4
from repro.guidelines.rules.rule_13_06 import Rule13_6
from repro.guidelines.rules.rule_14_01 import Rule14_1
from repro.guidelines.rules.rule_14_04 import Rule14_4
from repro.guidelines.rules.rule_14_05 import Rule14_5
from repro.guidelines.rules.rule_16_01 import Rule16_1
from repro.guidelines.rules.rule_16_02 import Rule16_2
from repro.guidelines.rules.rule_20_04 import Rule20_4
from repro.guidelines.rules.rule_20_07 import Rule20_7


def all_rules() -> List[Rule]:
    """The nine rules of Section 4.2, in the paper's order."""
    return [
        Rule13_4(),
        Rule13_6(),
        Rule14_1(),
        Rule14_4(),
        Rule14_5(),
        Rule16_1(),
        Rule16_2(),
        Rule20_4(),
        Rule20_7(),
    ]


@dataclass
class GuidelineReport:
    """All findings of one checker run, with per-rule and per-tier summaries."""

    findings: List[Finding] = field(default_factory=list)
    rules_checked: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def by_rule(self) -> Dict[str, List[Finding]]:
        result: Dict[str, List[Finding]] = {rule: [] for rule in self.rules_checked}
        for finding in self.findings:
            result.setdefault(finding.rule, []).append(finding)
        return result

    def findings_for(self, rule: str) -> List[Finding]:
        return [finding for finding in self.findings if finding.rule == rule]

    def violations_with_wcet_impact(self) -> List[Finding]:
        return [
            finding
            for finding in self.findings
            if finding.challenge is not ChallengeTier.NONE
        ]

    def tier_one_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.challenge is ChallengeTier.TIER_ONE]

    def tier_two_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.challenge is ChallengeTier.TIER_TWO]

    def count(self, rule: Optional[str] = None) -> int:
        if rule is None:
            return len(self.findings)
        return len(self.findings_for(rule))

    @property
    def is_clean(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        from repro.api import serialize

        return serialize.to_json(self)

    @classmethod
    def from_json(cls, data: dict) -> "GuidelineReport":
        from repro.api import serialize

        return serialize.from_json(data, cls)

    def summary(self) -> Dict[str, int]:
        return {rule: len(found) for rule, found in sorted(self.by_rule().items())}

    def format_text(self) -> str:
        lines = ["MISRA-C:2004 predictability check"]
        lines.append("=" * len(lines[0]))
        if not self.findings:
            lines.append("no findings — all checked rules are satisfied")
        for finding in self.findings:
            lines.append(f"  {finding}")
        lines.append("")
        lines.append(
            f"total: {len(self.findings)} findings "
            f"({len(self.tier_one_findings())} tier-one, "
            f"{len(self.tier_two_findings())} tier-two, "
            f"{len(self.findings) - len(self.violations_with_wcet_impact())} style-only)"
        )
        return "\n".join(lines)


class GuidelineChecker:
    """Runs a configurable set of rules over a (type-checked) compilation unit."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        if not self.rules:
            raise GuidelineError("the guideline checker needs at least one rule")

    def check_unit(self, unit: ast.CompilationUnit) -> GuidelineReport:
        """Check an already-parsed unit (it is type-checked in place if needed)."""
        needs_types = any(
            isinstance(node, ast.Expr) and node.ctype is None
            for function in unit.defined_functions()
            for node in ast.walk(function.body)
        )
        if needs_types:
            check_types(unit)
        report = GuidelineReport(rules_checked=[rule.info.rule_id for rule in self.rules])
        for rule in self.rules:
            report.findings.extend(rule.check(unit))
        report.findings.sort(key=lambda f: (f.rule, f.function, f.line))
        return report

    def check_source(self, source: str) -> GuidelineReport:
        """Parse, type-check and check mini-C source text."""
        from repro.minic.cparser import parse_source

        unit = parse_source(source)
        check_types(unit)
        return self.check_unit(unit)
