"""Translation-validation outputs are pinned bit for bit.

Every digest below is the SHA-256 of a canonical text of what
:func:`~repro.analysis.transval.validate_programs` produced, recorded
with the validator that rebuilt expression trees to visit them.  The
validator answers queries from facts cached on each expression node
and skips rewriting subtrees a substitution cannot touch; these pins
make any drift in a verdict, diagnostic or summary expression loud.

Two families are pinned:

* three registry kernels under every ``standard_option_sets()`` entry
  at ring depths 2, 4 and 8: the report JSON plus the ``stable_repr``
  text of the source and specialized summaries (store effects, loop
  recurrence tables, abstentions, queue issues and the threaded
  queue/SMEM environment);
* the six injected-corruption corpus entries: the raw
  ``validate_programs`` report, taken before ``repro validate --corpus``
  flips a flagged corruption into a passing outcome.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.analysis.lint import standard_option_sets, validate_kernel
from repro.analysis.transval import validate_programs
from repro.analysis.transval.effects import Summary
from repro.analysis.transval.expr import Expr, stable_repr
from repro.core.compiler import WaspCompiler
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import build_kernel
from repro.fuzz.mutate import apply_mutation
from repro.fuzz.oracle import OPTION_SETS
from repro.workloads import get_benchmark

_REGISTRY = (
    ("pointnet", "ball_query_gather"),      # TMA.GATHER into a queue
    ("spgemm1_econ", "spgemm_symbolic"),    # LDG + TMA.STREAM
    ("flash_attention", "fused_attention"),  # SMEM ring, split barriers
)
_DEPTHS = (2, 4, 8)
_OPTION_NAMES = tuple(name for name, _ in standard_option_sets())


def _r(e: Expr | None) -> str:
    return "-" if e is None else stable_repr(e)


def _rs(exprs) -> str:
    return "[" + ", ".join(_r(e) for e in exprs) + "]"


def _summary_lines(summary: Summary | None) -> list[str]:
    if summary is None:
        return ["<no summary>"]
    lines = [f"summary {summary.kernel} {summary.side}"]
    for e in summary.effects:
        lines.append(
            f"store #{e.seq} s{e.stage} {e.block} {e.instr} path={e.path} "
            f"ring={e.ring} addr={_r(e.addr)} value={_r(e.value)} "
            f"guard={_r(e.guard)}"
        )
    for key, info in summary.loops.items():
        lines.append(
            f"loop {key} base={info.base} path={info.path} ctx={info.ctx} "
            f"depth={info.depth} s{info.stage} inits={_rs(info.rec_inits)} "
            f"deltas=[{', '.join(_rs(row) for row in info.rec_deltas)}] "
            f"conds={_rs(info.cont_conds)}"
        )
    for a in summary.abstentions:
        lines.append(f"abstain s{a.stage} {a.block} {a.reason}")
    for q in summary.queue_issues:
        lines.append(f"queue-issue q{q.queue_id} s{q.stage} {q.block} "
                     f"{q.message}")
    env = summary.env
    if env is not None:
        for qid in sorted(env.queues):
            qs = env.queues[qid]
            lines.append(f"queue {qid} {qs.kind} flat_pops={qs.flat_pops} "
                         f"pops={sorted(qs.pops.items())}")
            for scope, plist in qs.pushes.items():
                lines.append(
                    f"  push {scope} "
                    + ", ".join(f"{_r(v)} if {_r(g)}" for v, g in plist)
                )
            for scope, params in qs.tma_by_scope.items():
                lines.append(f"  tma {scope} {_rs(params)}")
        for (scope, family), writes in env.smem.items():
            lines.append(
                f"smem {scope} {family} "
                + ", ".join(f"{_r(a)}:={_r(v)}" for a, v in writes)
            )
        lines.append(f"threaded {sorted(env.threaded_families)}")
    return lines


def _report_text(tv) -> str:
    lines = [json.dumps(tv.to_json(), sort_keys=True)]
    lines += _summary_lines(tv.source_summary)
    lines += _summary_lines(tv.spec_summary)
    return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def registry_digest(bench: str, kernel_name: str, options_name: str) -> str:
    """One digest over the three ring depths of one (kernel, options)."""
    kernel = next(
        k for k in get_benchmark(bench, 0.25).kernels
        if k.name == kernel_name
    )
    options = dict(standard_option_sets())[options_name]
    parts = []
    for depth in _DEPTHS:
        _, tv = validate_kernel(
            kernel.program,
            kernel.launch.num_warps,
            replace(options, pipeline_depth=depth),
        )
        parts.append(f"depth {depth}\n{_report_text(tv)}")
    return _sha("\n".join(parts))


def mutant_digests() -> dict[str, str]:
    """Raw reports of the injected corpus entries, in the same compile
    order as ``repro validate --corpus``."""
    out: dict[str, str] = {}
    for entry in load_corpus():
        if entry.inject is None:
            continue
        kernel = build_kernel(entry.spec)
        for opts_name, options in OPTION_SETS:
            result = WaspCompiler(
                replace(options, verify=False, validate=False)
            ).compile(kernel.program, kernel.launch.num_warps)
            if not result.specialized:
                continue
            mutated = apply_mutation(result.program, entry.inject)
            if mutated is None:
                continue
            tv = validate_programs(kernel.program, mutated)
            out[entry.name] = _sha(f"{opts_name}\n{_report_text(tv)}")
            break
    return out


_REGISTRY_DIGESTS: dict[str, str] = {
    "pointnet/ball_query_gather[sw-queues]": (
        "a67fe40a287c3e6c891b816330717360"
        "385fe4459d227dfdd642d1d6bc05cf84"
    ),
    "pointnet/ball_query_gather[full]": (
        "18dc358d5871c881ed4e237003f08535"
        "7c0a4d3c6018e61c3f092da550120afb"
    ),
    "pointnet/ball_query_gather[two-stage]": (
        "1100d7f3687ab35a309f90745bd499d5"
        "c06c7b201ebdb89001adc2cc9dbbaaca"
    ),
    "pointnet/ball_query_gather[tiny-queues]": (
        "a67fe40a287c3e6c891b816330717360"
        "385fe4459d227dfdd642d1d6bc05cf84"
    ),
    "spgemm1_econ/spgemm_symbolic[sw-queues]": (
        "07b316ff5435943d7bd71fac61c069fc"
        "f548f1a05e6928ef920a0688bbd513b1"
    ),
    "spgemm1_econ/spgemm_symbolic[full]": (
        "dfdcab7ded589f4f57092abf5a478a00"
        "a8fbada73479dcebdd24c106a1d2e8a7"
    ),
    "spgemm1_econ/spgemm_symbolic[two-stage]": (
        "cd1bf9d950a3281b3aa9d13abd62af7b"
        "3a09a8585456e4cfd02946acc77906f5"
    ),
    "spgemm1_econ/spgemm_symbolic[tiny-queues]": (
        "07b316ff5435943d7bd71fac61c069fc"
        "f548f1a05e6928ef920a0688bbd513b1"
    ),
    "flash_attention/fused_attention[sw-queues]": (
        "0288f517ba50e22cb9bd1f0ba683289d"
        "779de41f45c09204301ce6e21ea569fd"
    ),
    "flash_attention/fused_attention[full]": (
        "0288f517ba50e22cb9bd1f0ba683289d"
        "779de41f45c09204301ce6e21ea569fd"
    ),
    "flash_attention/fused_attention[two-stage]": (
        "0288f517ba50e22cb9bd1f0ba683289d"
        "779de41f45c09204301ce6e21ea569fd"
    ),
    "flash_attention/fused_attention[tiny-queues]": (
        "0288f517ba50e22cb9bd1f0ba683289d"
        "779de41f45c09204301ce6e21ea569fd"
    ),
}

_MUTANT_DIGESTS: dict[str, str] = {
    "deadlock-seed0-drop-push": (
        "d384557847fdd4c8bc74d2859fdaeac7"
        "2788b9fed1724c3160ff6cb22051ae21"
    ),
    "deadlock-seed7-arrive-to-wait": (
        "61e40af7c4f59b4a60a92438490ebe7b"
        "b046b96b1346ef7748434f13f0a5cadb"
    ),
    "memory-divergence-seed2-drop-pop": (
        "68d90ec99a779006ecaa1961dfb0267e"
        "418aed6821d310c14073fc73e7bccb95"
    ),
    "sanitizer-race-seed5-depth-off-by-one": (
        "3ab4b0c8e3ceea13557d9c59921883e6"
        "c23f195a9c8b13774a87988bbfb11860"
    ),
    "sanitizer-race-seed5-skip-slot-advance": (
        "613f1e1db1d2485f4498e4fd5c8a9cb5"
        "294123f5f73d958418b0effc1de91e0f"
    ),
    "sanitizer-race-seed5-stale-phase-read": (
        "613f1e1db1d2485f4498e4fd5c8a9cb5"
        "294123f5f73d958418b0effc1de91e0f"
    ),
}


@pytest.mark.parametrize("options_name", _OPTION_NAMES)
@pytest.mark.parametrize("bench,kernel", _REGISTRY)
def test_registry_validation_is_pinned(bench, kernel, options_name):
    label = f"{bench}/{kernel}[{options_name}]"
    assert registry_digest(bench, kernel, options_name) == \
        _REGISTRY_DIGESTS[label]


def test_corpus_mutant_diagnostics_are_pinned():
    assert mutant_digests() == _MUTANT_DIGESTS
