"""CI gates that pipe into ``tee`` keep their exit code.

A ``run:`` step without ``shell:`` runs under ``bash -e``, which only
sees the last command of a pipeline, so ``repro lint ... | tee out``
passes whatever ``repro lint`` returns.  Every such step must set
``pipefail``.  The one exception is the perf gate: it fails the
parent commit too in repeated runs (ROADMAP item 9), so arming it
waits for the single calibration method that item asks for.

The workflow is read line by line (no YAML dependency): each step's
``run:`` value is the inline command or the indented block under it.
"""

from __future__ import annotations

import re
from pathlib import Path

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"

#: Steps allowed to pipe into ``tee`` without ``pipefail``.
UNARMED = {
    # ROADMAP item 9: the perf gate fails the parent in repeated runs.
    "Measure and gate against the committed baseline",
}

_NAME = re.compile(r"^\s*- name:\s*(.+?)\s*$")
_RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*?)\s*$")
_TEE = re.compile(r"\|\s*tee\b")


def run_blocks(text: str) -> list[tuple[str, str]]:
    """``(step name, command text)`` of every ``run:`` in a workflow."""
    lines = text.splitlines()
    blocks: list[tuple[str, str]] = []
    name = ""
    for i, line in enumerate(lines):
        named = _NAME.match(line)
        if named:
            name = named.group(1)
        run = _RUN.match(line)
        if not run:
            continue
        indent, value = len(run.group(1)), run.group(2)
        if value[:1] not in ("|", ">"):
            blocks.append((name, value))
            continue
        body = []
        for follow in lines[i + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow)
        blocks.append((name, "\n".join(body)))
    return blocks


def unguarded_tees(text: str) -> list[str]:
    """Names of steps that pipe into ``tee`` without ``pipefail``."""
    return [
        name for name, command in run_blocks(text)
        if _TEE.search(command) and "set -o pipefail" not in command
    ]


def test_every_tee_gate_sets_pipefail():
    assert set(unguarded_tees(CI.read_text(encoding="utf-8"))) <= UNARMED


def test_the_exception_is_still_a_tee_step():
    # An exception for a step that no longer needs one is stale.
    assert set(unguarded_tees(CI.read_text(encoding="utf-8"))) == UNARMED


def test_guard_sees_inline_and_block_runs():
    workflow = (
        "    steps:\n"
        "      - name: inline\n"
        "        run: python -m repro fuzz --corpus | tee out\n"
        "      - name: block\n"
        "        run: |\n"
        "          mkdir -p a\n"
        "          python -m repro lint --all \\\n"
        "            | tee a/lint.txt\n"
        "      - name: armed\n"
        "        run: |\n"
        "          set -o pipefail\n"
        "          python -m repro validate --all | tee v.txt\n"
        "      - name: plain\n"
        "        run: grep -E 'x' v.txt\n"
    )
    assert unguarded_tees(workflow) == ["inline", "block"]
