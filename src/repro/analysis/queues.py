"""Queue-protocol checker (rules WASP-Q001..Q007).

Verifies the paper's Section IV-B queue contract statically:

* every queue has exactly one producer stage and one consumer stage,
  and they match the ``NamedQueueSpec`` in the thread-block spec;
* push and pop sites balance per loop iteration — the producer and
  consumer stages are clones of the same control skeleton, so matching
  sites live in identically-labelled blocks (modulo the ``s<n>_`` stage
  prefix), and every complete path through a loop body must push/pop
  the same number of entries;
* a single loop iteration never pushes more entries than the queue
  holds (credit feasibility against ``queue_size``).

Known false negatives: bulk pushes by WASP-TMA configuration
instructions move a data-dependent entry count, so site counting skips
queues fed by TMA (the functional layer still checks those
dynamically); path enumeration gives up beyond 256 paths per loop.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.cfg import (
    NaturalLoop,
    ProgramView,
    enumerate_paths,
    strip_stage_prefix,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.facts import PipelineFacts
from repro.analysis.sites import QueueSite
from repro.core.specs import NamedQueueSpec


def check_queues(facts: PipelineFacts) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    kernel, sites, spec = facts.program.name, facts.sites, facts.spec
    queue_ids = sorted(sites.queue_ids())

    if spec is None:
        for queue_id in queue_ids:
            diags.append(Diagnostic(
                rule="WASP-Q007",
                message=f"Q{queue_id} is referenced but the program has "
                        "no thread-block specification",
                kernel=kernel,
                hint="attach a ThreadBlockSpec declaring the queue, or "
                     "compile through WaspCompiler",
            ))
        return diags

    declared = {q.queue_id: q for q in spec.queues}
    for queue_id in queue_ids:
        pushes = sites.pushes(queue_id)
        pops = sites.pops(queue_id)
        diags.extend(_check_endpoints(
            kernel, queue_id, declared, pushes, pops
        ))
        qspec = declared.get(queue_id)
        size = qspec.size if qspec is not None else None
        diags.extend(_check_balance(facts, queue_id, pushes, pops))
        diags.extend(_check_credit(facts, queue_id, pushes, size))
    return diags


def _check_endpoints(
    kernel: str,
    queue_id: int,
    declared: dict[int, NamedQueueSpec],
    pushes: list[QueueSite],
    pops: list[QueueSite],
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    push_stages = sorted({s.stage for s in pushes})
    pop_stages = sorted({s.stage for s in pops})

    if len(push_stages) > 1:
        diags.append(Diagnostic(
            rule="WASP-Q001",
            message=f"Q{queue_id} is pushed from stages {push_stages}; "
                    "queues are single-producer",
            kernel=kernel,
            hint="split the queue or merge the producing stages",
        ))
    if len(pop_stages) > 1:
        diags.append(Diagnostic(
            rule="WASP-Q002",
            message=f"Q{queue_id} is popped from stages {pop_stages}; "
                    "queues are single-consumer",
            kernel=kernel,
            hint="give each consumer stage its own queue",
        ))
    if pushes and not pops:
        diags.append(Diagnostic(
            rule="WASP-Q003",
            message=f"Q{queue_id} is pushed but never popped; the "
                    "producer will stall once the queue fills",
            kernel=kernel,
            stage=push_stages[0] if push_stages else None,
        ))
    if pops and not pushes:
        diags.append(Diagnostic(
            rule="WASP-Q003",
            message=f"Q{queue_id} is popped but never pushed; the "
                    "consumer will wait forever",
            kernel=kernel,
            stage=pop_stages[0] if pop_stages else None,
        ))

    qspec = declared.get(queue_id)
    if qspec is None:
        diags.append(Diagnostic(
            rule="WASP-Q005",
            message=f"Q{queue_id} is not declared in the thread-block "
                    "specification",
            kernel=kernel,
            hint="add a NamedQueueSpec for this queue id",
        ))
        return diags
    if len(push_stages) == 1 and push_stages[0] != qspec.src_stage:
        diags.append(Diagnostic(
            rule="WASP-Q005",
            message=f"Q{queue_id} is pushed from stage {push_stages[0]} "
                    f"but declared src_stage={qspec.src_stage}",
            kernel=kernel,
            stage=push_stages[0],
        ))
    if len(pop_stages) == 1 and pop_stages[0] != qspec.dst_stage:
        diags.append(Diagnostic(
            rule="WASP-Q005",
            message=f"Q{queue_id} is popped from stage {pop_stages[0]} "
                    f"but declared dst_stage={qspec.dst_stage}",
            kernel=kernel,
            stage=pop_stages[0],
        ))
    return diags


def _check_balance(
    facts: PipelineFacts,
    queue_id: int,
    pushes: list[QueueSite],
    pops: list[QueueSite],
) -> list[Diagnostic]:
    """Producer/consumer site balance plus per-path loop balance."""
    diags: list[Diagnostic] = []
    if any(s.bulk for s in pushes):
        return diags  # TMA entry counts are data-dependent; see gaps.
    if not pushes or not pops:
        return diags  # orphan endpoints already reported (Q003)

    push_ctx = Counter(strip_stage_prefix(s.block) for s in pushes)
    pop_ctx = Counter(strip_stage_prefix(s.block) for s in pops)
    if push_ctx != pop_ctx:
        missing = pop_ctx - push_ctx
        extra = push_ctx - pop_ctx
        detail = []
        if extra:
            detail.append(
                "unmatched pushes in " + ", ".join(sorted(extra))
            )
        if missing:
            detail.append(
                "unmatched pops in " + ", ".join(sorted(missing))
            )
        diags.append(Diagnostic(
            rule="WASP-Q004",
            message=f"Q{queue_id} push/pop sites do not balance per "
                    f"iteration ({'; '.join(detail)})",
            kernel=facts.program.name,
            hint="producer pushes and consumer pops must pair up in "
                 "matching loop bodies",
        ))

    for sites_one_side, verb in ((pushes, "push"), (pops, "pop")):
        stage = sites_one_side[0].stage
        diags.extend(_check_path_balance(
            facts, queue_id, stage, sites_one_side, verb
        ))
    return diags


def _innermost_loops(facts: PipelineFacts, stage: int) -> list[NaturalLoop]:
    loops = facts.loops(stage)
    inner = []
    for loop in loops:
        body = set(loop.body)
        if not any(
            other is not loop and other.head in body
            and set(other.body) < body
            for other in loops
        ):
            inner.append(loop)
    return inner


def _complete_iteration_paths(
    view: ProgramView, loop: NaturalLoop
) -> list[list[str]] | None:
    """Paths from the loop head that end by taking the backedge."""
    body = set(loop.body)
    paths = enumerate_paths(view, loop.head, body)
    if paths is None:
        return None
    complete = []
    for path in paths:
        last = path[-1]
        if loop.head in view.successors.get(last, ()):
            complete.append(path)
    return complete


def _check_path_balance(
    facts: PipelineFacts,
    queue_id: int,
    stage: int,
    sites: list[QueueSite],
    verb: str,
) -> list[Diagnostic]:
    """All complete iterations of a loop must move the same entry count."""
    diags: list[Diagnostic] = []
    per_block = Counter(s.block for s in sites)
    for loop in _innermost_loops(facts, stage):
        body = set(loop.body)
        if not any(s.block in body for s in sites):
            continue
        paths = _complete_iteration_paths(facts.view, loop)
        if paths is None or not paths:
            continue
        counts = {
            sum(per_block.get(label, 0) for label in path)
            for path in paths
        }
        if len(counts) > 1:
            diags.append(Diagnostic(
                rule="WASP-Q004",
                message=f"Q{queue_id} {verb} count differs across paths "
                        f"through loop {strip_stage_prefix(loop.head)!r} "
                        f"({sorted(counts)})",
                kernel=facts.program.name,
                stage=stage if stage >= 0 else None,
                block=loop.head,
                hint=f"every path through the loop body must {verb} the "
                     "same number of entries",
            ))
    return diags


def _check_credit(
    facts: PipelineFacts,
    queue_id: int,
    pushes: list[QueueSite],
    size: int | None,
) -> list[Diagnostic]:
    """A single iteration must not push more entries than the queue holds."""
    diags: list[Diagnostic] = []
    if size is None or not pushes or any(s.bulk for s in pushes):
        return diags
    stage = pushes[0].stage
    per_block = Counter(s.block for s in pushes)
    in_loop: set[str] = set()
    for loop in _innermost_loops(facts, stage):
        body = set(loop.body)
        in_loop.update(label for label in per_block if label in body)
        paths = _complete_iteration_paths(facts.view, loop)
        if paths is None or not paths:
            continue
        worst = max(
            sum(per_block.get(label, 0) for label in path)
            for path in paths
        )
        if worst > size:
            diags.append(Diagnostic(
                rule="WASP-Q006",
                message=f"Q{queue_id}: one iteration of loop "
                        f"{strip_stage_prefix(loop.head)!r} pushes "
                        f"{worst} entries into a {size}-entry queue",
                kernel=facts.program.name,
                stage=stage if stage >= 0 else None,
                block=loop.head,
                hint="grow queue_size or split the pushes across "
                     "iterations",
            ))
    straight = sum(
        count for label, count in per_block.items() if label not in in_loop
    )
    if straight > size:
        diags.append(Diagnostic(
            rule="WASP-Q006",
            message=f"Q{queue_id}: {straight} straight-line pushes exceed "
                    f"the {size}-entry queue with no consumer "
                    "interleaving guaranteed",
            kernel=facts.program.name,
            stage=stage if stage >= 0 else None,
        ))
    return diags
