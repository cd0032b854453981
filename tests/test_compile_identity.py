"""Compiled programs are pinned bit for bit.

Every digest in ``tests/compile_digests.json`` is the SHA-256 of one
compile's canonical JSON:
:func:`~repro.isa.serialize.canonical_program_doc` of the output
program (``encode_program`` with the uid-derived ``key`` attrs
renumbered by first appearance) plus ``specialized``, ``num_stages``,
``reason``, ``double_buffered``, ``fused_ldgsts`` and the WASP-TMA
offload report.  Renumbering keeps the digest independent of what the
process compiled before while still pinning which instructions share
an origin.

Three families are pinned, all compiled with ``verify`` and
``validate`` off (neither changes the output program):

* every registry kernel at scale 0.25 under each
  ``standard_option_sets()`` entry at ring depths 2, 4 and 8, one
  digest per compile;
* every ``tests/corpus/`` entry's spec under each fuzz-oracle option
  set, one digest per entry;
* fuzz seeds 0..199 the same way, one digest per seed.

Each kernel's cells are compiled back to back, so the compiler's
per-source slot answers every compile that coincides with an earlier
one, at whichever lookup point it first can (DESIGN.md §1e); the
command-line check also prints how many compiles each point answered.
Tier 1 checks the toolchain benchmark's 11-kernel certify subset (every
fifth registry kernel).  CI checks the whole file::

    python -m tests.test_compile_identity            # check every entry
    python -m tests.test_compile_identity --write    # re-record the file
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis.lint import standard_option_sets
from repro.core.compiler import CompileResult, WaspCompiler
from repro.errors import ReproError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import build_kernel
from repro.fuzz.oracle import OPTION_SETS
from repro.fuzz.spec import generate_spec
from repro.isa.serialize import canonical_program_doc
from repro.sweeps import registry_kernels
from repro.telemetry.registry import TELEMETRY

DIGESTS = Path(__file__).resolve().parent / "compile_digests.json"
SCALE = 0.25
DEPTHS = (2, 4, 8)
FUZZ_SEEDS = range(200)


def result_text(result: CompileResult) -> str:
    """Canonical JSON of one compile's output."""
    program = canonical_program_doc(result.program)
    offload = result.offload
    doc = {
        "program": program,
        "specialized": result.specialized,
        "num_stages": result.num_stages,
        "reason": result.reason,
        "double_buffered": result.double_buffered,
        "fused_ldgsts": result.fused_ldgsts,
        "offload": None if offload is None else [
            offload.streams, offload.gathers, offload.dropped_stages,
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _compile_text(kernel, options) -> str:
    compiler = WaspCompiler(replace(options, verify=False, validate=False))
    try:
        result = compiler.compile(kernel.program, kernel.launch.num_warps)
    except ReproError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return result_text(result)


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
                out[label] = _sha(_compile_text(kernel, opts))
    return out


def _spec_digest(spec) -> str:
    kernel = build_kernel(spec)
    return _sha("\n".join(
        f"{name}\n{_compile_text(kernel, options)}"
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


def test_digest_ignores_uid_history():
    kernel = registry_kernels(["pointnet"], SCALE)[0][1]
    options = dict(standard_option_sets())["full"]
    first = _compile_text(kernel, options)
    build_kernel(generate_spec(3))  # advance the uid counter
    assert _compile_text(kernel, options) == first
    assert '"key":0' in first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.test_compile_identity",
        description="Check (or re-record) the compiled-program digest of "
        "every registry compile at ring depths 2, 4 and 8, every corpus "
        "entry and 200 fuzz seeds.",
    )
    parser.add_argument("--write", action="store_true",
                        help="re-record tests/compile_digests.json")
    args = parser.parse_args(argv)
    TELEMETRY.enable()
    digests = all_digests()
    if args.write:
        DIGESTS.write_text(
            json.dumps(digests, indent=0, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"compile digests: wrote {len(digests)} entries to {DIGESTS}")
        return 0
    pinned = _pinned()
    bad = sorted(
        label for label in pinned.keys() | digests.keys()
        if pinned.get(label) != digests.get(label)
    )
    for label in bad:
        print(f"MISMATCH {label}", file=sys.stderr)
    print(f"compile digests: {len(digests) - len(bad)}/{len(digests)} "
          f"entries match {DIGESTS.name}")
    reuses = {
        at: int(TELEMETRY.counter(
            "repro_compile_reuses_total", labels={"at": at}
        ).value)
        for at in ("options", "plan", "offload")
    }
    print(f"compile reuses: {sum(reuses.values())} compiles answered by an "
          "earlier compile (" + ", ".join(
              f"{at} {count}" for at, count in reuses.items()
          ) + ")")
    prepasses, digests_taken = (
        int(TELEMETRY.counter(name).value)
        for name in ("repro_compile_prepass_reuses_total",
                     "repro_compile_source_digests_total")
    )
    print(f"pre-pass reuses: {prepasses} compiles skipped the pre-passes; "
          f"{digests_taken} source digest(s) taken")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
