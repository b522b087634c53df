"""Predictability assessment: connect source-level findings to analysis outcomes.

The paper's Section 4.2 is a table of *claims*: violating rule X causes WCET
analysis challenge Y.  This module turns the claims into measurements by

1. running the guideline checker over the source,
2. compiling the source and running the actual WCET analyzer, and
3. correlating: which violations coincided with tier-one failures (no bound
   without annotations) and which with tier-two precision losses.

The result also contains a coarse *predictability score* in [0, 1]: 1.0 means
the WCET analysis succeeded without annotations and without precision
warnings; tier-one problems weigh more than tier-two problems.  The score is a
reporting convenience, not a claim from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError, UnboundedLoopError, CFGError
from repro.minic.codegen import compile_unit
from repro.minic.cparser import parse_source
from repro.annotations.registry import AnnotationSet
from repro.hardware.processor import ProcessorConfig, simple_scalar
from repro.wcet.analyzer import WCETAnalyzer
from repro.wcet.report import WCETReport
from repro.guidelines.checker import GuidelineChecker, GuidelineReport


@dataclass
class PredictabilityAssessment:
    """Joint source-level / analysis-level predictability report."""

    guideline_report: GuidelineReport
    #: Report of the WCET analysis, if it succeeded.
    wcet_report: Optional[WCETReport] = None
    #: Reason the WCET analysis failed without further annotations (if it did).
    analysis_failure: str = ""
    #: True when a bound was obtained without any annotation.
    analyzable_without_annotations: bool = False
    predictability_score: float = 0.0

    def format_text(self) -> str:
        lines = [self.guideline_report.format_text(), ""]
        if self.wcet_report is not None:
            lines.append(
                f"WCET analysis: bound = {self.wcet_report.wcet_cycles} cycles "
                f"({'no annotations needed' if self.analyzable_without_annotations else 'annotations supplied'})"
            )
        else:
            lines.append(f"WCET analysis failed: {self.analysis_failure}")
        lines.append(f"predictability score: {self.predictability_score:.2f}")
        return "\n".join(lines)


def _score(
    guidelines: GuidelineReport,
    analysis_succeeded: bool,
    tier_two_warnings: int,
) -> float:
    score = 1.0
    if not analysis_succeeded:
        score -= 0.5
    score -= 0.10 * len(guidelines.tier_one_findings())
    score -= 0.05 * len(guidelines.tier_two_findings())
    score -= 0.02 * tier_two_warnings
    return max(0.0, min(1.0, score))


def assess_predictability(
    source: str,
    processor: Optional[ProcessorConfig] = None,
    annotations: Optional[AnnotationSet] = None,
    entry: str = "main",
) -> PredictabilityAssessment:
    """Check guidelines *and* run the WCET analyzer on mini-C source text.

    ``annotations`` (if given) are only used for the analysis run; the
    ``analyzable_without_annotations`` flag reports whether a bound would have
    been obtained with an empty annotation set, which is the paper's measure of
    how much the code structure alone supports static timing analysis.
    """
    processor = processor or simple_scalar()
    unit = parse_source(source)
    guideline_report = GuidelineChecker().check_unit(unit)
    program = compile_unit(unit, entry=entry)

    # First try without any annotations: does the structure alone suffice?
    bare_failure = ""
    try:
        bare_report = WCETAnalyzer(program, processor).analyze(entry=entry)
        analyzable_bare = True
    except (UnboundedLoopError, CFGError, ReproError) as exc:
        bare_report = None
        analyzable_bare = False
        bare_failure = str(exc)

    wcet_report = bare_report
    failure = bare_failure
    if wcet_report is None and annotations is not None:
        try:
            wcet_report = WCETAnalyzer(program, processor, annotations=annotations).analyze(
                entry=entry
            )
            failure = ""
        except (UnboundedLoopError, CFGError, ReproError) as exc:
            failure = str(exc)

    tier_two_warnings = len(wcet_report.challenges.tier_two) if wcet_report else 0
    assessment = PredictabilityAssessment(
        guideline_report=guideline_report,
        wcet_report=wcet_report,
        analysis_failure=failure,
        analyzable_without_annotations=analyzable_bare,
        predictability_score=_score(guideline_report, analyzable_bare, tier_two_warnings),
    )
    return assessment
