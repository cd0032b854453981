"""Queue and barrier protocol checker (rules WASP-Q001..Q007, D001..D006).

Verifies the paper's Section IV-B contract statically, from the site
index and loop nest of :class:`~repro.analysis.facts.PipelineFacts` —
the same facts the happens-before engine builds its edges from.

Queues:

* every queue has exactly one producer stage and one consumer stage,
  and they match the ``NamedQueueSpec`` in the thread-block spec;
* push and pop sites balance per loop iteration — the producer and
  consumer stages are clones of the same control skeleton, so matching
  sites live in identically-labelled blocks (modulo the ``s<n>_`` stage
  prefix), and every complete iteration of an innermost loop must
  push/pop the same number of entries;
* a single loop iteration never pushes more entries than the queue
  holds (credit feasibility against ``queue_size``).

Barriers and stages:

* the queue digraph (producer stage -> consumer stage) must be acyclic —
  WASP pipelines move data strictly forward, and a cycle means two
  stages each wait for the other's first entry (``WASP-D001``);
* every waited arrive/wait barrier needs at least one arrive site
  somewhere (``WASP-D002``), and arrivals without waiters are lost
  signals (``WASP-D003``);
* the spec's expected arrival count must equal the warp arrivals of
  one execution of every arrive site, the count the happens-before
  engine also needs before it orders through the barrier
  (``WASP-D004``); and barriers must be declared (``WASP-D005``) —
  the functional machine defaults undeclared barriers to
  ``expected=1``, which usually releases waiters early;
* a full thread-block ``BAR.SYNC`` must be executed by *every* pipeline
  stage, since the hardware counts all warps (``WASP-D006``).

Known false negatives: bulk pushes by WASP-TMA configuration
instructions move a data-dependent entry count, so the count checks
skip queues fed by TMA (the functional layer still checks those
dynamically).  Intra-stage orderings (a wait lexically before the
arrive that feeds it within one generation) and credit exhaustion
across generations are not modelled; the dynamic ``DeadlockError``
backstop still covers those.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.cfg import (
    DISPATCH,
    NaturalLoop,
    iteration_counts,
    strip_stage_prefix,
)
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.facts import PipelineFacts
from repro.analysis.sites import (
    PipelineSites,
    QueueSite,
    arrivals_per_iteration,
)
from repro.core.specs import NamedQueueSpec, ThreadBlockSpec

#: Per innermost loop holding a site: the entry counts one complete
#: iteration can move.
LoopCounts = list[tuple[NaturalLoop, set[int]]]


def check_protocol(facts: PipelineFacts) -> list[Diagnostic]:
    kernel, sites, spec = facts.program.name, facts.sites, facts.spec
    diags = _check_queues(facts)
    diags.extend(_check_barrier_pairing(kernel, sites, spec))
    if spec is not None:
        diags.extend(_check_queue_cycles(kernel, spec))
        diags.extend(_check_barrier_metadata(kernel, sites, spec))
        diags.extend(_check_tb_syncs(kernel, sites, spec))
    return diags


# -- queues ---------------------------------------------------------------


def _check_queues(facts: PipelineFacts) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    kernel, sites, spec = facts.program.name, facts.sites, facts.spec

    if spec is None:
        for queue_id in sorted(sites.queues):
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
    for queue_id in sorted(sites.queues):
        pushes = sites.queues[queue_id].pushes
        pops = sites.queues[queue_id].pops
        diags.extend(_check_endpoints(
            kernel, queue_id, declared, pushes, pops
        ))
        if not pushes or any(s.bulk for s in pushes):
            continue  # orphans are Q003; TMA counts are data-dependent
        push_counts = _loop_counts(facts, pushes)
        if pops:
            diags.extend(_check_balance(
                facts, queue_id, pushes, pops, push_counts
            ))
        qspec = declared.get(queue_id)
        if qspec is not None:
            diags.extend(_check_credit(
                facts, queue_id, pushes, qspec.size, push_counts
            ))
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


def _loop_counts(facts: PipelineFacts, sites: list[QueueSite]) -> LoopCounts:
    """Count sets of the first site's stage's innermost loops with sites."""
    per_block = Counter(s.block for s in sites)
    return [
        (loop, iteration_counts(facts.view, loop, per_block))
        for loop in facts.innermost_loops(sites[0].stage)
        if any(label in per_block for label in loop.body)
    ]


def _check_balance(
    facts: PipelineFacts,
    queue_id: int,
    pushes: list[QueueSite],
    pops: list[QueueSite],
    push_counts: LoopCounts,
) -> list[Diagnostic]:
    """Producer/consumer site balance plus per-iteration loop balance."""
    diags: list[Diagnostic] = []
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

    for stage, loop_counts, verb in (
        (pushes[0].stage, push_counts, "push"),
        (pops[0].stage, _loop_counts(facts, pops), "pop"),
    ):
        for loop, counts in loop_counts:
            if len(counts) > 1:
                diags.append(Diagnostic(
                    rule="WASP-Q004",
                    message=f"Q{queue_id} {verb} count differs across "
                            "paths through loop "
                            f"{strip_stage_prefix(loop.head)!r} "
                            f"({sorted(counts)})",
                    kernel=facts.program.name,
                    stage=stage if stage >= 0 else None,
                    block=loop.head,
                    hint=f"every path through the loop body must {verb} "
                         "the same number of entries",
                ))
    return diags


def _check_credit(
    facts: PipelineFacts,
    queue_id: int,
    pushes: list[QueueSite],
    size: int,
    push_counts: LoopCounts,
) -> list[Diagnostic]:
    """A single iteration must not push more entries than the queue holds."""
    diags: list[Diagnostic] = []
    stage = pushes[0].stage
    in_loop: set[str] = set()
    for loop, counts in push_counts:
        in_loop.update(loop.body)
        if counts and max(counts) > size:
            diags.append(Diagnostic(
                rule="WASP-Q006",
                message=f"Q{queue_id}: one iteration of loop "
                        f"{strip_stage_prefix(loop.head)!r} pushes "
                        f"{max(counts)} entries into a {size}-entry queue",
                kernel=facts.program.name,
                stage=stage if stage >= 0 else None,
                block=loop.head,
                hint="grow queue_size or split the pushes across "
                     "iterations",
            ))
    straight = sum(1 for s in pushes if s.block not in in_loop)
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


# -- barriers and stages ----------------------------------------------------


def _check_barrier_pairing(
    kernel: str, sites: PipelineSites, spec: ThreadBlockSpec | None
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    initial = spec.barrier_initial if spec is not None else {}
    for barrier_id in sorted(sites.barriers):
        barrier = sites.barriers[barrier_id]
        if barrier.waits and not barrier.arrives:
            credit = initial.get(barrier_id, 0)
            stage = min(s.stage for s in barrier.waits)
            diags.append(Diagnostic(
                rule="WASP-D002",
                message=f"barrier {barrier_id!r} is waited on but no "
                        "stage ever arrives it"
                        + (f" (initial credit {credit} only covers the "
                           "first generation)" if credit else ""),
                severity=Severity.WARNING if credit else Severity.ERROR,
                kernel=kernel,
                stage=stage if stage >= 0 else None,
                hint="pair every BAR.WAIT with a BAR.ARRIVE (or a TMA "
                     "completion arrive) in another stage",
            ))
        elif barrier.arrives and not barrier.waits:
            stage = min(s.stage for s in barrier.arrives)
            diags.append(Diagnostic(
                rule="WASP-D003",
                message=f"barrier {barrier_id!r} is arrived but nothing "
                        "waits on it",
                kernel=kernel,
                stage=stage if stage >= 0 else None,
                hint="dead signal: drop the arrive or add the missing "
                     "wait",
            ))
    return diags


def _check_queue_cycles(
    kernel: str, spec: ThreadBlockSpec
) -> list[Diagnostic]:
    """DFS cycle detection over the spec's src->dst queue digraph."""
    edges: dict[int, list[tuple[int, int]]] = {}
    for queue in spec.queues:
        edges.setdefault(queue.src_stage, []).append(
            (queue.dst_stage, queue.queue_id)
        )
    colors: dict[int, int] = {}  # 0 absent/white, 1 grey, 2 black
    stack_path: list[int] = []

    def visit(stage: int) -> list[int] | None:
        colors[stage] = 1
        stack_path.append(stage)
        for succ, _qid in edges.get(stage, ()):
            if colors.get(succ, 0) == 1:
                return stack_path[stack_path.index(succ):] + [succ]
            if colors.get(succ, 0) == 0:
                cycle = visit(succ)
                if cycle is not None:
                    return cycle
        stack_path.pop()
        colors[stage] = 2
        return None

    for stage in sorted(edges):
        if colors.get(stage, 0) == 0:
            cycle = visit(stage)
            if cycle is not None:
                route = " -> ".join(f"stage {s}" for s in cycle)
                return [Diagnostic(
                    rule="WASP-D001",
                    message=f"queue dependencies form a cycle: {route}; "
                            "both sides wait for the other's first entry",
                    kernel=kernel,
                    hint="pipeline stages must form a DAG; re-plan the "
                         "stage assignment",
                )]
    return []


def _check_barrier_metadata(
    kernel: str, sites: PipelineSites, spec: ThreadBlockSpec
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for barrier_id in sorted(sites.barriers):
        barrier = sites.barriers[barrier_id]
        if not barrier.arrives and not barrier.waits:
            continue
        if barrier_id not in spec.barrier_expected:
            diags.append(Diagnostic(
                rule="WASP-D005",
                message=f"barrier {barrier_id!r} has no expected-arrival "
                        "entry in the thread-block specification "
                        "(runtime defaults to expected=1)",
                kernel=kernel,
                hint="populate ThreadBlockSpec.barrier_expected",
            ))
            continue
        expected = spec.barrier_expected[barrier_id]
        arrives = [s for s in barrier.arrives if s.stage != DISPATCH]
        if not arrives:
            continue  # D002 already covers barriers nobody arrives
        arr_stages = {s.stage for s in arrives}
        static = arrivals_per_iteration(spec, arrives)
        if static is not None and static != expected:
            diags.append(Diagnostic(
                rule="WASP-D004",
                message=f"barrier {barrier_id!r} expects {expected} "
                        f"arrivals per generation but stages "
                        f"{sorted(arr_stages)} statically contribute "
                        f"{static}",
                kernel=kernel,
                hint="waiters release early (expected too low) or hang "
                     "(expected too high)",
            ))
    return diags


def _check_tb_syncs(
    kernel: str, sites: PipelineSites, spec: ThreadBlockSpec
) -> list[Diagnostic]:
    """Every stage must reach each full thread-block BAR.SYNC."""
    diags: list[Diagnostic] = []
    all_stages = set(range(spec.num_stages))
    for sync_id in sorted(sites.barriers):
        syncs = sites.barriers[sync_id].syncs
        if not syncs:
            continue
        present = {s.stage for s in syncs if s.stage != DISPATCH}
        missing = sorted(all_stages - present)
        if missing:
            diags.append(Diagnostic(
                rule="WASP-D006",
                message=f"BAR.SYNC {sync_id!r} counts every warp of the "
                        f"thread block, but stages {missing} never "
                        "execute it",
                kernel=kernel,
                hint="a thread-block sync in a specialized program must "
                     "survive stage splitting into every stage (or be "
                     "rewritten to arrive/wait barriers)",
            ))
    return diags
