"""Bundled default candidate pool.

Sixteen groups built from four base roles (solver, analyst, programmer,
inspector) arranged in five internal patterns: solo work, two- and
three-stage chains, stars that fan into a finisher, and fully connected
review. Kept deliberately small so selection stays tractable while covering
clearly different collaboration styles and costs.
"""

from __future__ import annotations

import os

from .graph import (
    CandidateGroup,
    GroupPool,
    IntraPattern,
    RoleSpec,
    decode_records,
    from_record,
)

SOLVER = RoleSpec(
    name="solver",
    prompt=(
        "You are a careful problem solver. Work step by step, keep every "
        "intermediate result explicit, and finish with the final answer on "
        "its own line."
    ),
)

ANALYST = RoleSpec(
    name="analyst",
    prompt=(
        "You are an analyst. Break the problem into smaller parts, pick a "
        "solution strategy, and lay out the key relationships before any "
        "heavy computation happens."
    ),
)

PROGRAMMER = RoleSpec(
    name="programmer",
    prompt=(
        "You are a programming expert. Translate the problem into precise "
        "code or pseudocode, trace it mentally, and report exactly what it "
        "would output."
    ),
)

INSPECTOR = RoleSpec(
    name="inspector",
    prompt=(
        "You are an inspector. Re-derive or spot-check the reasoning you "
        "are given, call out any error you find, and state the corrected "
        "final answer."
    ),
)


def default_pool() -> GroupPool:
    """The 16-group default pool."""
    g = []
    # Solo specialists.
    g.append(CandidateGroup("solo-solver", "one solver works alone",
                            [SOLVER], IntraPattern.SINGLE))
    g.append(CandidateGroup("solo-analyst", "one analyst works alone",
                            [ANALYST], IntraPattern.SINGLE))
    g.append(CandidateGroup("solo-programmer", "one programmer works alone",
                            [PROGRAMMER], IntraPattern.SINGLE))
    g.append(CandidateGroup("solo-inspector", "one inspector works alone",
                            [INSPECTOR], IntraPattern.SINGLE))
    # Two-stage chains.
    g.append(CandidateGroup("chain-solve-check", "a solver hands off to an inspector",
                            [SOLVER, INSPECTOR], IntraPattern.CHAIN))
    g.append(CandidateGroup("chain-plan-solve", "an analyst plans, a solver executes",
                            [ANALYST, SOLVER], IntraPattern.CHAIN))
    g.append(CandidateGroup("chain-code-check", "a programmer codes, an inspector verifies",
                            [PROGRAMMER, INSPECTOR], IntraPattern.CHAIN))
    g.append(CandidateGroup("chain-plan-code", "an analyst plans, a programmer implements",
                            [ANALYST, PROGRAMMER], IntraPattern.CHAIN))
    # Three-stage chains.
    g.append(CandidateGroup("pipeline-plan-solve-check",
                            "plan, solve, then verify in sequence",
                            [ANALYST, SOLVER, INSPECTOR], IntraPattern.CHAIN))
    g.append(CandidateGroup("pipeline-plan-code-check",
                            "plan, implement, then verify in sequence",
                            [ANALYST, PROGRAMMER, INSPECTOR], IntraPattern.CHAIN))
    g.append(CandidateGroup("pipeline-solve-code-check",
                            "solve by hand, cross-check in code, then verify",
                            [SOLVER, PROGRAMMER, INSPECTOR], IntraPattern.CHAIN))
    # Stars: independent attempts fanned into a finisher.
    g.append(CandidateGroup("star-dual-attempt",
                            "a solver and a programmer attempt independently, an "
                            "inspector reconciles",
                            [SOLVER, PROGRAMMER, INSPECTOR], IntraPattern.STAR))
    g.append(CandidateGroup("star-plan-and-attempt",
                            "an analyst and a programmer work independently, a solver "
                            "integrates",
                            [ANALYST, PROGRAMMER, SOLVER], IntraPattern.STAR))
    g.append(CandidateGroup("star-triple-attempt",
                            "three independent attempts reconciled by an inspector",
                            [SOLVER, ANALYST, PROGRAMMER, INSPECTOR], IntraPattern.STAR))
    # Fully connected review circles.
    g.append(CandidateGroup("panel-solve",
                            "solver, analyst, and inspector each see all prior "
                            "contributions",
                            [SOLVER, ANALYST, INSPECTOR], IntraPattern.FULL))
    g.append(CandidateGroup("panel-code",
                            "analyst, programmer, and inspector each see all prior "
                            "contributions",
                            [ANALYST, PROGRAMMER, INSPECTOR], IntraPattern.FULL))
    return GroupPool(groups=tuple(g))


def load_pool(path: str | os.PathLike) -> GroupPool:
    return GroupPool(tuple(decode_records(path, lambda r: from_record(r, CandidateGroup))))
