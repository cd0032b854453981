"""Static-verifier output is pinned for every compile the toolchain makes.

Every digest in ``tests/verify_digests.json`` is the SHA-256 of one
compile's verifier output: for the clean compiled program and for each
:mod:`repro.fuzz.mutate` corruption that applies to it, the normalized
:func:`~repro.analysis.verify_program` report (rule, severity, message,
location and hint of every finding) plus the happens-before solve
(``num_events``, ``num_edges`` and every pair verdict with its events,
rule and both minimum shifts).

Programs are compiled with ``verify`` and ``validate`` off, so a
compile that the verifier would reject still yields a digest.  The
entry set matches ``tests/test_compile_identity.py``:

* every registry kernel at scale 0.25 under each
  ``standard_option_sets()`` entry at ring depths 2, 4 and 8, one
  digest per compile;
* every ``tests/corpus/`` entry's spec under each fuzz-oracle option
  set, one digest per entry;
* fuzz seeds 0..199 the same way, one digest per seed.

Tier 1 checks the toolchain benchmark's 11-kernel certify subset (every
fifth registry kernel).  CI checks the whole file::

    python -m tests.test_verify_identity            # check every entry
    python -m tests.test_verify_identity --write    # re-record the file
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis import verify_program
from repro.analysis.dataflow.hb import Event
from repro.analysis.facts import PipelineFacts
from repro.analysis.lint import standard_option_sets
from repro.core.compiler import WaspCompiler
from repro.errors import ReproError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import build_kernel
from repro.fuzz.mutate import MUTATIONS
from repro.fuzz.oracle import OPTION_SETS
from repro.fuzz.spec import generate_spec
from repro.isa.program import Program
from repro.sweeps import registry_kernels

DIGESTS = Path(__file__).resolve().parent / "verify_digests.json"
SCALE = 0.25
DEPTHS = (2, 4, 8)
FUZZ_SEEDS = range(200)


def _event(event: Event) -> list[object]:
    return [event.stage, event.block_ord, event.instr_ord, event.block]


def program_doc(program: Program) -> dict[str, object]:
    """The verifier report and happens-before solve of one program."""
    facts = PipelineFacts(program)
    report = verify_program(program, facts=facts)
    hb = facts.hb
    return {
        "report": report.to_json(),
        "hb": {
            "num_events": hb.num_events,
            "num_edges": hb.num_edges,
            "verdicts": [
                [v.group, _event(v.writer.event), _event(v.other.event),
                 v.verdict, v.rule, repr(v.d_wt), repr(v.d_tw)]
                for v in hb.verdicts
            ],
        },
    }


def _verify_text(kernel, options) -> str:
    compiler = WaspCompiler(replace(options, verify=False, validate=False))
    try:
        result = compiler.compile(kernel.program, kernel.launch.num_warps)
    except ReproError as exc:
        return f"error {type(exc).__name__}: {exc}"
    doc = {"clean": program_doc(result.program)}
    if result.specialized:
        for name, mutation in MUTATIONS.items():
            mutant = mutation(result.program)
            if mutant is not None:
                doc[name] = program_doc(mutant)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def registry_digests(kernels) -> dict[str, str]:
    """One digest per (kernel, standard option set, ring depth)."""
    out = {}
    for bench, kernel in kernels:
        for opts_name, options in standard_option_sets():
            for depth in DEPTHS:
                opts = replace(options, pipeline_depth=depth)
                label = f"{bench}/{kernel.name}[{opts_name}]@{depth}"
                out[label] = _sha(_verify_text(kernel, opts))
    return out


def _spec_digest(spec) -> str:
    kernel = build_kernel(spec)
    return _sha("\n".join(
        f"{name}\n{_verify_text(kernel, options)}"
        for name, options in OPTION_SETS
    ))


def corpus_digests() -> dict[str, str]:
    return {
        f"corpus/{entry.name}": _spec_digest(entry.spec)
        for entry in load_corpus()
    }


def fuzz_digests(seeds) -> dict[str, str]:
    return {f"fuzz/{seed}": _spec_digest(generate_spec(seed)) for seed in seeds}


def all_digests() -> dict[str, str]:
    out = registry_digests(registry_kernels(None, SCALE))
    out.update(corpus_digests())
    out.update(fuzz_digests(FUZZ_SEEDS))
    return out


def _pinned() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_certify_subset_is_pinned():
    # The toolchain benchmark's certify subset: every fifth registry kernel.
    got = registry_digests(registry_kernels(None, SCALE)[::5])
    assert len(got) == 11 * len(standard_option_sets()) * len(DEPTHS)
    pinned = _pinned()
    assert got == {label: pinned[label] for label in got}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.test_verify_identity",
        description="Check (or re-record) the verifier-output digest of "
        "every registry compile at ring depths 2, 4 and 8, every corpus "
        "entry and 200 fuzz seeds, clean and under every mutation.",
    )
    parser.add_argument("--write", action="store_true",
                        help="re-record tests/verify_digests.json")
    args = parser.parse_args(argv)
    digests = all_digests()
    if args.write:
        DIGESTS.write_text(
            json.dumps(digests, indent=0, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"verify digests: wrote {len(digests)} entries to {DIGESTS}")
        return 0
    pinned = _pinned()
    bad = sorted(
        label for label in pinned.keys() | digests.keys()
        if pinned.get(label) != digests.get(label)
    )
    for label in bad:
        print(f"MISMATCH {label}", file=sys.stderr)
    print(f"verify digests: {len(digests) - len(bad)}/{len(digests)} "
          f"entries match {DIGESTS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
