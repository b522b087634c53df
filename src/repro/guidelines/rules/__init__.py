"""Rule implementations for the nine MISRA-C:2004 rules discussed in the paper."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.minic import ast
from repro.guidelines.finding import ChallengeTier, Finding, Severity


@dataclass
class RuleInfo:
    """Static description of one MISRA rule."""

    rule_id: str
    title: str
    severity: Severity
    #: Paper's assessment of the timing-analysis impact of violating the rule.
    challenge: ChallengeTier
    wcet_impact: str


class Rule:
    """Base class: subclasses define ``info`` and implement ``check``."""

    info: RuleInfo

    def check(self, unit: ast.CompilationUnit) -> List[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def finding(self, function: str, line: int, message: str) -> Finding:
        return Finding(
            rule=self.info.rule_id,
            title=self.info.title,
            severity=self.info.severity,
            function=function,
            line=line,
            message=message,
            challenge=self.info.challenge,
            wcet_impact=self.info.wcet_impact,
        )


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #
def functions_of(unit: ast.CompilationUnit) -> List[ast.FunctionDef]:
    return unit.defined_functions()


def modified_variable_names(node: object) -> Set[str]:
    """Names of variables assigned / incremented anywhere under ``node``."""
    result: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.AssignExpr) and isinstance(child.target, ast.Identifier):
            result.add(child.target.name)
        if (
            isinstance(child, ast.UnaryExpr)
            and child.op in ("++", "--")
            and isinstance(child.operand, ast.Identifier)
        ):
            result.add(child.operand.name)
    return result


def calls_in(node: object) -> List[ast.CallExpr]:
    return [child for child in ast.walk(node) if isinstance(child, ast.CallExpr)]


def called_name(call: ast.CallExpr) -> Optional[str]:
    if isinstance(call.callee, ast.Identifier):
        return call.callee.name
    return None


def expression_uses_float(expr: Optional[ast.Expr]) -> bool:
    """True if the expression or any subexpression has floating-point type."""
    if expr is None:
        return False
    for child in ast.walk(expr):
        if isinstance(child, ast.Expr) and ast.type_is_float(child.ctype):
            return True
        if isinstance(child, ast.FloatLiteral):
            return True
    return False
