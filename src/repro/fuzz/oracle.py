"""The differential oracle: baseline vs. WASP, end to end.

For one generated spec the oracle:

1. functionally executes the unspecialized kernel (the reference);
2. compiles it with each of a deterministic set of compiler option
   tuples and, where specialization succeeds, functionally executes the
   specialized program;
3. asserts **bit-identical output memory images**;
4. asserts **consistent dynamic instruction accounting** — the
   specialized run performs exactly as many global stores, its queue
   pushes balance its pops per queue, and it does strictly more dynamic
   instructions only through replication/queue overhead (never fewer);
5. replays both traces on the timing simulator and asserts the PR 2
   stall invariant (``sum(stalls) + issued == active warp-cycles``) as
   a standing assertion, plus the metamorphic timing invariants of
   :mod:`repro.fuzz.metamorphic`;
6. cross-checks every failure against the static verifier, so a
   runtime-caught bug that the verifier misses is reported as a
   verifier blind spot (a rule it should have had);
7. runs the translation validator over every compiled (and, under
   ``inject``, mutated) variant and demands static/dynamic agreement:
   a ``not-equivalent`` verdict on a clean compile the functional
   checks accept is ``transval-disagreement``, and an ``equivalent``
   verdict on a program the functional checks reject is
   ``transval-false-equivalent`` — the validator must never certify a
   broken program.

Within one run the oracle does each distinct piece of work once: a
clean variant whose compiled program (by
:attr:`~repro.analysis.facts.PipelineFacts.program_digest`, the digest
translation validation already computed) repeats an earlier
variant's reuses that variant's dynamic-check outcome, re-reported
under its own option set and verifier rules; translation validation and
the static/dynamic agreement check still run per variant.  Injected
runs never reuse.  The metamorphic ladder memoizes its replays the same
way (:mod:`repro.fuzz.metamorphic`).

Passing verdicts are persisted content-addressed in the trace store
(``.repro_cache/`` by default), so repeated fuzz runs over identical
seeds are cache hits, not recomputation.  Failures are never cached.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.analysis.diagnostics import Severity
from repro.analysis.facts import PipelineFacts
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.errors import CompilerError, ReproError, VerificationError
from repro.fexec.machine import run_kernel
from repro.fexec.trace import KernelTrace
from repro.fuzz.generator import build_kernel
from repro.fuzz.spec import SPEC_VERSION, FuzzSpec
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.telemetry.registry import TELEMETRY
from repro.workloads.base import Kernel

#: Bumped whenever oracle checks change; invalidates cached verdicts.
#: v2: passing verdicts carry W-level verifier warnings (e.g. WASP-Q006)
#: so cached seeds still surface them in per-seed reports.
#: v3: deep-ring variant compiles every spec at pipeline_depth=4.
#: v4: translation-validation cross-check — every compiled variant's
#: static verdict is recorded in the cached payload and must agree
#: with the functional oracle (``transval-disagreement`` /
#: ``transval-false-equivalent`` failures otherwise).
ORACLE_VERSION = 4

#: Deterministic compiler option tuples every spec is compiled under.
OPTION_SETS: tuple[tuple[str, WaspCompilerOptions], ...] = (
    ("sw-queues", WaspCompilerOptions(enable_tma_offload=False)),
    ("full", WaspCompilerOptions()),
    ("two-stage", WaspCompilerOptions(max_stages=2)),
    ("tiny-queues", WaspCompilerOptions(queue_size=2,
                                        enable_tma_offload=False)),
    ("deep-ring", WaspCompilerOptions(pipeline_depth=4)),
)


@dataclass(frozen=True)
class FuzzWarning:
    """One W-level static-verifier finding on a *passing* seed.

    A warning is not an oracle failure — the compiled program is
    functionally correct — but rules like WASP-Q006 (credit pressure)
    mark latent hazards, so ``repro fuzz`` surfaces them per seed
    instead of silently dropping the compiler's diagnostics.
    """

    seed: int
    options_name: str
    rule: str
    message: str
    location: str = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "options": self.options_name,
            "rule": self.rule,
            "message": self.message,
            "location": self.location,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "FuzzWarning":
        return cls(
            seed=int(doc["seed"]),
            options_name=doc.get("options", ""),
            rule=doc["rule"],
            message=doc.get("message", ""),
            location=doc.get("location", ""),
        )

    def summary(self) -> str:
        return (
            f"[{self.rule}] seed={self.seed} "
            f"options={self.options_name or '-'} "
            f"{self.location}: {self.message}"
        )


@dataclass
class FuzzFailure:
    """One oracle violation, with enough context to replay it."""

    seed: int
    spec: FuzzSpec
    check: str            # e.g. 'memory-divergence', 'deadlock'
    message: str
    options_name: str = ""
    #: Static-verifier cross-check: rule ids that fired on the failing
    #: compiled program.  Empty means the verifier was blind to this
    #: failure — a candidate for a new rule.
    verifier_rules: list[str] = field(default_factory=list)
    #: Set by the shrinker: the smallest spec still failing this check.
    minimized: FuzzSpec | None = None

    def to_json(self) -> dict[str, Any]:
        doc = {
            "seed": self.seed,
            "spec": self.spec.to_json(),
            "check": self.check,
            "message": self.message,
            "options": self.options_name,
            "verifier_rules": list(self.verifier_rules),
        }
        if self.minimized is not None:
            doc["minimized"] = self.minimized.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "FuzzFailure":
        return cls(
            seed=int(doc["seed"]),
            spec=FuzzSpec.from_json(doc["spec"]),
            check=doc["check"],
            message=doc.get("message", ""),
            options_name=doc.get("options", ""),
            verifier_rules=list(doc.get("verifier_rules", [])),
            minimized=(
                FuzzSpec.from_json(doc["minimized"])
                if doc.get("minimized") else None
            ),
        )

    def summary(self) -> str:
        spec = self.minimized or self.spec
        tag = " (minimized)" if self.minimized else ""
        return (
            f"[{self.check}] {spec.describe()}{tag} "
            f"options={self.options_name or '-'}: {self.message}"
        )


@dataclass
class OracleReport:
    """Outcome of the oracle on one spec."""

    spec: FuzzSpec
    failures: list[FuzzFailure] = field(default_factory=list)
    specialized_under: list[str] = field(default_factory=list)
    #: W-level verifier diagnostics per compiled variant (see
    #: :class:`FuzzWarning`); populated on cache hits too.
    warnings: list[FuzzWarning] = field(default_factory=list)
    #: Translation-validation verdict per compiled variant name
    #: (``equivalent`` / ``not-equivalent`` / ``abstain``); part of the
    #: cached passing payload so cache hits keep the certificates.
    transval_verdicts: dict[str, str] = field(default_factory=dict)
    from_cache: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures


def verdict_key(kernel: Kernel, metamorphic: bool) -> str:
    """Content-addressed key for a cached passing verdict."""
    from repro.experiments.runner import _options_key

    opts = "|".join(
        f"{name}={_options_key(o)!r}" for name, o in OPTION_SETS
    )
    text = (
        f"fuzz-verdict|{kernel.content_digest()}|{opts}"
        f"|meta={int(metamorphic)}|v={ORACLE_VERSION}.{SPEC_VERSION}"
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _store():
    from repro.experiments.runner import GLOBAL_CACHE

    return GLOBAL_CACHE.store


def _tel_verdict(outcome: str) -> None:
    """Count one verdict-cache lookup.  Disk locality depends on prior
    runs, so the series is ``invariant=False``."""
    if not TELEMETRY.enabled:
        return
    TELEMETRY.counter(
        "repro_fuzz_verdict_cache_total", {"outcome": outcome},
        help="Fuzz verdict-cache lookups by outcome", invariant=False,
    ).inc()


def count_reuse(kind: str) -> None:
    """Count one piece of oracle work answered by an earlier identical
    one (``replay`` or ``dynamic``).  Reuse depends only on the
    program, so the series is ``invariant=True``."""
    if not TELEMETRY.enabled:
        return
    TELEMETRY.counter(
        "repro_fuzz_oracle_reuses_total", {"kind": kind},
        help="Fuzz oracle replays and dynamic checks reused within a run",
    ).inc()


def _count_opcode(traces: list[KernelTrace], *opcodes: Opcode) -> int:
    return sum(
        1
        for trace in traces
        for warp in trace.warps
        for di in warp.instrs
        if di.opcode in opcodes
    )


def _queue_balance(traces: list[KernelTrace]) -> dict[int, tuple[int, int]]:
    """Per queue id: (pushes, pops) over all thread blocks.

    TMA jobs push ``num_vectors`` entries per dynamic instruction; a
    plain queue destination pushes one.
    """
    balance: dict[int, list[int]] = {}
    for trace in traces:
        for warp in trace.warps:
            for di in warp.instrs:
                if di.queue_push is not None:
                    entry = balance.setdefault(di.queue_push, [0, 0])
                    if di.tma_job is not None:
                        entry[0] += di.tma_job.num_vectors
                    else:
                        entry[0] += 1
                if di.queue_pop is not None:
                    entry = balance.setdefault(di.queue_pop, [0, 0])
                    entry[1] += 1
    return {qid: (p, c) for qid, (p, c) in balance.items()}


def _verifier_rules(facts: PipelineFacts) -> list[str]:
    """Rule ids the static verifier reports for ``facts.program``."""
    try:
        report = facts.report
    except ReproError as exc:
        return [f"verifier-crash:{type(exc).__name__}"]
    return sorted({d.rule for d in report.diagnostics})


def run_oracle(
    spec: FuzzSpec,
    metamorphic: bool = True,
    inject: str | None = None,
    use_verdict_cache: bool = True,
) -> OracleReport:
    """Run every oracle check for ``spec``.

    ``inject`` names a :mod:`repro.fuzz.mutate` corruption applied to
    each compiled program before execution — the self-test proving the
    oracle catches real stage-split bugs.  Injected runs never touch
    the verdict cache.
    """
    report = OracleReport(spec=spec)
    kernel = build_kernel(spec)

    cacheable = use_verdict_cache and inject is None
    store = _store() if cacheable else None
    key = verdict_key(kernel, metamorphic) if store is not None else None
    if store is not None and key is not None:
        payload = store.load(key)
        hit = (
            payload is not None
            and payload.get("fuzz_verdict") == "pass"
        )
        _tel_verdict("hit" if hit else "miss")
        if hit:
            report.from_cache = True
            report.specialized_under = list(
                payload.get("specialized_under", [])
            )
            report.warnings = [
                FuzzWarning.from_json(doc)
                for doc in payload.get("warnings", [])
            ]
            report.transval_verdicts = dict(
                payload.get("transval_verdicts", {})
            )
            return report

    reference = kernel.image_factory()
    ref_result = run_kernel(kernel.program, reference, kernel.launch)
    want = reference.snapshot()
    ref_stores = _count_opcode(ref_result.traces, Opcode.STG)

    # Dynamic-check outcome per compiled-program digest.
    outcomes: dict[str, list[tuple[str, str]]] = {}
    for name, options in OPTION_SETS:
        _check_one_variant(
            report, kernel, name, options, want, ref_stores, inject,
            outcomes,
        )

    if metamorphic and not report.failures:
        from repro.fuzz.metamorphic import check_timing_invariants

        report.failures.extend(
            check_timing_invariants(spec, kernel, ref_result.traces)
        )

    if store is not None and key is not None and report.passed:
        store.save(
            key, [], fuzz_verdict="pass",
            specialized_under=report.specialized_under,
            warnings=[w.to_json() for w in report.warnings],
            transval_verdicts=dict(report.transval_verdicts),
        )
    return report


def _check_one_variant(
    report: OracleReport,
    kernel: Kernel,
    name: str,
    options: WaspCompilerOptions,
    want: np.ndarray,
    ref_stores: int,
    inject: str | None,
    outcomes: dict[str, list[tuple[str, str]]],
) -> None:
    spec = report.spec

    def fail(check: str, message: str, facts=None) -> None:
        report.failures.append(FuzzFailure(
            seed=spec.seed,
            spec=spec,
            check=check,
            message=message,
            options_name=name,
            verifier_rules=(
                _verifier_rules(facts) if facts is not None else []
            ),
        ))

    try:
        # Translation validation is disabled *inside* the compile and
        # run explicitly below: the oracle needs the raw verdict (on
        # the possibly-mutated program) for the static/dynamic
        # cross-check, not an exception mid-compile.
        result = WaspCompiler(replace(options, validate=False)).compile(
            kernel.program, num_warps=kernel.launch.num_warps
        )
    except VerificationError as exc:
        report.failures.append(FuzzFailure(
            seed=spec.seed, spec=spec, check="static-verifier",
            message=str(exc)[:300], options_name=name,
            verifier_rules=sorted({d.rule for d in exc.diagnostics}),
        ))
        return
    except CompilerError as exc:
        fail("compiler-crash", f"{type(exc).__name__}: {exc}")
        return
    if not result.specialized:
        return
    report.specialized_under.append(name)
    for diag in result.diagnostics:
        if diag.severity is Severity.WARNING:
            report.warnings.append(FuzzWarning(
                seed=spec.seed,
                options_name=name,
                rule=diag.rule,
                message=diag.message,
                location=diag.location,
            ))

    facts = result.facts
    if inject is not None:
        from repro.fuzz.mutate import apply_mutation

        mutated = apply_mutation(result.program, inject)
        if mutated is None:
            return  # no applicable site in this variant
        facts = PipelineFacts(mutated)

    verdict = _transval_verdict(kernel, facts, fail)
    report.transval_verdicts[name] = verdict

    def dynamic() -> list[tuple[str, str]]:
        return _dynamic_outcome(
            kernel, facts.program, result.num_stages, want, ref_stores,
            inject,
        )

    if inject is not None:
        outcome = dynamic()  # each mutated variant runs
    else:
        digest = facts.program_digest
        if digest in outcomes:
            count_reuse("dynamic")
        else:
            outcomes[digest] = dynamic()
        outcome = outcomes[digest]
    before = len(report.failures)
    for check, message in outcome:
        fail(check, message, facts=facts)
    dynamic_failed = bool(outcome)

    # Static/dynamic agreement: the validator must never certify a
    # program the functional oracle rejects, and on clean compiles it
    # must not reject a program the oracle accepts.  Abstention agrees
    # with everything — it claims nothing.  (An injected corruption the
    # validator flags but this input happens to tolerate is the static
    # side being *stronger*, which is fine.)
    if verdict == "equivalent" and dynamic_failed:
        fail(
            "transval-false-equivalent",
            "translation validator certified a program the functional "
            f"oracle rejected ({report.failures[before].check})",
            facts=facts,
        )
    elif verdict == "not-equivalent" and inject is None and not dynamic_failed:
        fail(
            "transval-disagreement",
            "translation validator rejected a clean compile the "
            "functional oracle accepted",
            facts=facts,
        )


def _transval_verdict(kernel: Kernel, facts: PipelineFacts, fail) -> str:
    """Static verdict for one compiled (possibly mutated) variant.

    A validator crash is itself an oracle failure — the certificate
    machinery must hold up on everything the generator produces.
    """
    from repro.analysis.transval import validate_programs

    try:
        return validate_programs(
            kernel.program, facts.program, facts=facts
        ).verdict
    except ReproError as exc:
        fail(
            "transval-crash",
            f"{type(exc).__name__}: {str(exc)[:300]}",
            facts=facts,
        )
        return "crash"


def _dynamic_outcome(
    kernel: Kernel,
    program: Program,
    num_stages: int,
    want: np.ndarray,
    ref_stores: int,
    inject: str | None,
) -> list[tuple[str, str]]:
    """Functionally execute one compiled variant against the reference.

    Returns the ``(check, message)`` pairs it violates, in report
    order; empty means every dynamic check held.
    """
    launch = replace(
        kernel.launch, num_warps=kernel.launch.num_warps * num_stages,
    )
    image = kernel.image_factory()
    try:
        # Injected corruptions additionally run under the SMEM
        # sanitizer: orderings a mutation breaks without deadlocking
        # (e.g. reorder-push, phase-off-by-one) must still be caught
        # dynamically.
        spec_result = run_kernel(
            program, image, launch, sanitize=inject is not None
        )
    except ReproError as exc:
        return [(
            "deadlock" if "deadlock" in type(exc).__name__.lower()
            else "runtime-crash",
            f"{type(exc).__name__}: {str(exc)[:300]}",
        )]

    if spec_result.races:
        return [(
            "sanitizer-race",
            f"{len(spec_result.races)} unordered SMEM access pair(s); "
            f"first: {spec_result.races[0].format()}",
        )]

    if not np.array_equal(image.snapshot(), want):
        got, exp = image.snapshot(), want
        diff = np.flatnonzero(got != exp)
        first = int(diff[0]) if diff.size else -1
        return [(
            "memory-divergence",
            f"{diff.size} words differ; first at {first} "
            f"(got {got[first]!r}, want {exp[first]!r})",
        )]

    violations = []
    spec_stores = _count_opcode(spec_result.traces, Opcode.STG)
    if spec_stores != ref_stores:
        violations.append((
            "instr-accounting",
            f"dynamic STG count changed: {ref_stores} -> {spec_stores}",
        ))
    for qid, (pushes, pops) in _queue_balance(spec_result.traces).items():
        if pushes != pops:
            violations.append((
                "queue-balance",
                f"queue {qid}: {pushes} pushes vs {pops} pops",
            ))
    return violations
