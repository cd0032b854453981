"""Deadlock detector (rules WASP-D001..D006).

Builds the stage/queue/barrier wait-for structure from the thread-block
specification and the barrier sites of the combined program, then checks
it statically:

* the queue digraph (producer stage -> consumer stage) must be acyclic —
  WASP pipelines move data strictly forward, and a cycle means two
  stages each wait for the other's first entry (``WASP-D001``);
* every waited arrive/wait barrier needs at least one arrive site
  somewhere (``WASP-D002``), and arrivals without waiters are lost
  signals (``WASP-D003``);
* the spec's expected arrival count must equal the warps of the stages
  that statically arrive (``WASP-D004``), and barriers must be declared
  (``WASP-D005``) — the functional machine defaults undeclared barriers
  to ``expected=1``, which usually releases waiters early;
* a full thread-block ``BAR.SYNC`` must be executed by *every* pipeline
  stage, since the hardware counts all warps (``WASP-D006``).

Known false negatives: intra-stage orderings (a wait lexically before
the arrive that feeds it within one generation) and credit exhaustion
across generations are not modelled; the dynamic ``DeadlockError``
backstop still covers those.
"""

from __future__ import annotations

from repro.analysis.cfg import DISPATCH
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.facts import PipelineFacts
from repro.analysis.sites import PipelineSites
from repro.core.specs import ThreadBlockSpec


def check_deadlock(facts: PipelineFacts) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    kernel, sites, spec = facts.program.name, facts.sites, facts.spec
    diags.extend(_check_barrier_pairing(kernel, sites, spec))
    if spec is not None:
        diags.extend(_check_queue_cycles(kernel, spec))
        diags.extend(_check_barrier_metadata(kernel, sites, spec))
        diags.extend(_check_tb_syncs(kernel, sites, spec))
    return diags


def _check_barrier_pairing(
    kernel: str, sites: PipelineSites, spec: ThreadBlockSpec | None
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    initial = spec.barrier_initial if spec is not None else {}
    waited = sites.barrier_ids("wait")
    arrived = sites.barrier_ids("arrive")
    for barrier_id in sorted(waited - arrived):
        credit = initial.get(barrier_id, 0)
        stage = min(sites.barrier_stages(barrier_id, "wait"))
        diags.append(Diagnostic(
            rule="WASP-D002",
            message=f"barrier {barrier_id!r} is waited on but no stage "
                    "ever arrives it"
                    + (f" (initial credit {credit} only covers the first "
                       "generation)" if credit else ""),
            severity=Severity.WARNING if credit else Severity.ERROR,
            kernel=kernel,
            stage=stage if stage >= 0 else None,
            hint="pair every BAR.WAIT with a BAR.ARRIVE (or a TMA "
                 "completion arrive) in another stage",
        ))
    for barrier_id in sorted(arrived - waited):
        stage = min(sites.barrier_stages(barrier_id, "arrive"))
        diags.append(Diagnostic(
            rule="WASP-D003",
            message=f"barrier {barrier_id!r} is arrived but nothing "
                    "waits on it",
            kernel=kernel,
            stage=stage if stage >= 0 else None,
            hint="dead signal: drop the arrive or add the missing wait",
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
    used = sites.barrier_ids("arrive") | sites.barrier_ids("wait")
    for barrier_id in sorted(used):
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
        arr_stages = {
            s for s in sites.barrier_stages(barrier_id, "arrive")
            if s != DISPATCH
        }
        if not arr_stages:
            continue  # D002 already covers barriers nobody arrives
        static = sum(
            len(spec.warps_in_stage(s)) for s in sorted(arr_stages)
        )
        if static != expected:
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
    by_stage = sites.sync_ids_by_stage()
    all_stages = set(range(spec.num_stages))
    sync_ids = sites.barrier_ids("sync")
    for sync_id in sorted(sync_ids):
        present = {s for s, ids in by_stage.items() if sync_id in ids}
        present.discard(DISPATCH)
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
