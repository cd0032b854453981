"""Fuzz oracle reports are pinned per seed.

Every digest in ``tests/fuzz_report_digests.json`` is the SHA-256 of
one seed's :class:`~repro.fuzz.oracle.OracleReport` in canonical JSON:
its failures (check, message, option set and verifier rules, in report
order), its W-level verifier warnings, its translation-validation
verdict per compiled variant and the option sets it specialized under.
The oracle runs with the verdict cache off, so every check executes.

The file covers generated seeds 0-199; tier 1 checks the toolchain
benchmark's fuzz-oracle programs.  CI checks the whole file::

    python -m tests.test_fuzz_identity            # check every seed
    python -m tests.test_fuzz_identity --write    # re-record the file
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from benchmarks.toolchain.workloads import FUZZ_SEEDS
from repro.fuzz.oracle import (
    FuzzFailure, FuzzWarning, OracleReport, run_oracle,
)
from repro.fuzz.spec import generate_spec

DIGESTS = Path(__file__).resolve().parent / "fuzz_report_digests.json"
SEEDS = range(200)


def report_digest(report: OracleReport) -> str:
    """SHA-256 of ``report``'s canonical JSON."""
    doc = {
        "failures": [f.to_json() for f in report.failures],
        "warnings": [w.to_json() for w in report.warnings],
        "transval_verdicts": sorted(report.transval_verdicts.items()),
        "specialized_under": list(report.specialized_under),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_seeds(seeds) -> dict[str, str]:
    return {
        str(seed): report_digest(
            run_oracle(generate_spec(seed), use_verdict_cache=False)
        )
        for seed in seeds
    }


def _pinned() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_toolchain_seeds_are_pinned():
    pinned = _pinned()
    got = digest_seeds(FUZZ_SEEDS)
    assert got == {seed: pinned[seed] for seed in got}


def test_digest_covers_every_report_field():
    spec = generate_spec(0)
    report = OracleReport(
        spec=spec,
        failures=[FuzzFailure(seed=0, spec=spec, check="c", message="m")],
        specialized_under=["full"],
        warnings=[FuzzWarning(0, "full", "WASP-Q006", "m")],
        transval_verdicts={"full": "equivalent"},
    )
    digest = report_digest(report)
    for name in ("failures", "warnings", "transval_verdicts",
                 "specialized_under"):
        emptied = replace(report, **{name: type(getattr(report, name))()})
        assert report_digest(emptied) != digest, name
    # Where the report came from is not part of it.
    assert report_digest(replace(report, from_cache=True)) == digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.test_fuzz_identity",
        description="Check (or re-record) the oracle report digest of "
        "every generated fuzz seed in 0-199.",
    )
    parser.add_argument("--write", action="store_true",
                        help="re-record tests/fuzz_report_digests.json")
    args = parser.parse_args(argv)
    digests = digest_seeds(SEEDS)
    if args.write:
        DIGESTS.write_text(
            json.dumps(digests, indent=0, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"fuzz digests: wrote {len(digests)} seeds to {DIGESTS}")
        return 0
    pinned = _pinned()
    bad = sorted(
        (seed for seed in pinned.keys() | digests.keys()
         if pinned.get(seed) != digests.get(seed)),
        key=int,
    )
    for seed in bad:
        print(f"MISMATCH seed {seed}", file=sys.stderr)
    print(f"fuzz digests: {len(digests) - len(bad)}/{len(digests)} "
          f"seeds match {DIGESTS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
