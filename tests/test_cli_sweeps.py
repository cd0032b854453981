"""The CLI's parser tree and the shared sweep driver.

Pins every subcommand's flags and defaults, the ``--depths`` parse-time
check, the empty-sweep failure rule, and the corediff/racediff JSON
documents.
"""

from __future__ import annotations

import argparse
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.sweeps import expand_depths

_ARTIFACT_FLAGS = {
    "--benchmarks": None, "--cache-dir": None, "--clear-cache": False,
    "--jobs": None, "--metrics-out": None, "--metrics-prom": None,
    "--no-cache": False, "--profile": False, "--profile-json": None,
    "--scale": 0.5, "--trace-out": None,
}
_CACHE_AND_METRICS = {
    "--cache-dir": None, "--clear-cache": False, "--no-cache": False,
    "--metrics-out": None, "--metrics-prom": None,
}
_DIFF_FLAGS = {
    **_CACHE_AND_METRICS,
    "--corpus": False, "--corpus-dir": None, "--depths": "2",
    "--json-out": None, "--registry": False, "--scale": 0.25,
    "--seed-base": 0, "--seeds": 0,
}

#: Every subcommand's flags and their defaults, as the CLI accepted
#: them before the parser tree was unified.
EXPECTED_FLAGS = {
    **{name: _ARTIFACT_FLAGS for name in (
        "fig3", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
        "fig20", "fig21", "table2", "table4", "list", "all",
    )},
    "profile": {
        **_CACHE_AND_METRICS,
        "--config": "WASP_GPU", "--json-out": None, "--kernel": None,
        "--sanitize": False, "--scale": 0.25, "--trace-capacity": None,
        "--trace-out": None,
    },
    "lint": {
        "--all": False, "--corpus": False, "--corpus-dir": None,
        "--json-out": None, "--list-rules": False, "--sarif": None,
        "--scale": 0.25, "--strict": False, "--validate": False,
        "--verbose": False,
    },
    "validate": {
        "--all": False, "--corpus": False, "--corpus-dir": None,
        "--depths": "2", "--json-out": None, "--options": "full",
        "--sarif": None, "--scale": 0.25, "--verbose": False,
    },
    "fuzz": {
        **_CACHE_AND_METRICS,
        "--corpus": False, "--corpus-dir": None,
        "--expect-failures": False, "--inject": None, "--jobs": None,
        "--json-out": None, "--no-metamorphic": False,
        "--no-shrink": False, "--save-corpus": False, "--seed-base": 0,
        "--seeds": 100, "--time-budget": None,
    },
    "advise": {
        **_CACHE_AND_METRICS,
        "--config": "WASP_GPU", "--json-out": None, "--margin": None,
        "--no-simulate": False, "--scale": 0.25,
    },
    "corediff": _DIFF_FLAGS,
    "racediff": _DIFF_FLAGS,
    "metrics": {
        "--benchmarks": ["pointnet"], "--cache-dir": None,
        "--clear-cache": False, "--jobs": None, "--json-out": None,
        "--no-cache": False, "--prom-out": None, "--scale": 0.25,
    },
    "bench report": {
        "--baseline": "BENCH_core", "--current": None, "--dir": ".",
        "--json-out": None, "--tolerance": 0.2,
    },
}

_TOOLS = ("profile", "lint", "validate", "fuzz", "advise", "corediff",
          "racediff", "metrics", "bench")


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _all_subcommands() -> dict[str, argparse.ArgumentParser]:
    out = {}
    for name, sub in _subparsers(build_parser()).items():
        nested = _subparsers(sub)
        if nested:
            out.update({f"{name} {n}": p for n, p in nested.items()})
        else:
            out[name] = sub
    return out


def _flags(parser: argparse.ArgumentParser) -> dict:
    return {
        max(action.option_strings, key=len): action.default
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    }


def test_every_subcommand_keeps_its_flags_and_defaults():
    subcommands = _all_subcommands()
    assert sorted(subcommands) == sorted(EXPECTED_FLAGS)
    for name, parser in subcommands.items():
        assert _flags(parser) == EXPECTED_FLAGS[name], name


def test_list_names_every_subcommand(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^  (\S+)\s", out, re.MULTILINE)
    names = {name.split()[0] for name in EXPECTED_FLAGS} - {"list", "all"}
    assert set(listed) == names
    assert listed[-len(_TOOLS):] == list(_TOOLS)


@pytest.mark.parametrize("command", ["validate", "corediff", "racediff"])
@pytest.mark.parametrize("depths", ["2,x", "9", "1", ""])
def test_bad_depths_are_usage_errors(command, depths, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--depths", depths])
    assert excinfo.value.code == 2
    assert "--depths" in capsys.readouterr().err


def test_depths_parse_to_integers():
    args = build_parser().parse_args(["corediff", "--depths", "2,4,8"])
    assert args.depths == (2, 4, 8)
    assert build_parser().parse_args(["validate"]).depths == (2,)


@pytest.mark.parametrize(
    "command", ["lint", "validate", "corediff", "racediff"]
)
def test_empty_corpus_sweep_fails(command, tmp_path, capsys):
    rc = main([command, "--corpus", "--corpus-dir", str(tmp_path)])
    assert rc == 1
    assert "nothing was checked" in capsys.readouterr().out


def test_depth_expansion_drops_compilerless_entries_off_depth_2():
    from repro.experiments.configs import standard_configs

    configs = standard_configs()
    cells = expand_depths(configs, (2, 4), depths_outer=True)
    with_compiler = [c for c in configs if c.compiler is not None]
    assert len(cells) == len(configs) + len(with_compiler)
    assert [d for _, d, _ in cells] == (
        [2] * len(configs) + [4] * len(with_compiler)
    )
    for entry, depth, options in cells:
        if entry.compiler is None:
            assert options is None
        else:
            assert options.pipeline_depth == depth


def test_corediff_seed_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    path = tmp_path / "corediff.json"
    rc = main(["corediff", "--seeds", "1", "--json-out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "[seeds: 1 specs diffed]" in out
    match = re.search(
        r"corediff: (\d+)/(\d+) comparisons bit-identical", out
    )
    assert match and match.group(1) == match.group(2) != "0"
    doc = json.loads(path.read_text())
    assert set(doc) == {
        "comparisons", "ref_wall_s", "event_wall_s", "overall_speedup"
    }
    assert len(doc["comparisons"]) == int(match.group(2))
    assert all(c["ok"] for c in doc["comparisons"])


def test_racediff_seed_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    path = tmp_path / "racediff.json"
    rc = main(["racediff", "--seeds", "1", "--json-out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "[seeds: 1 specs diffed]" in out
    match = re.search(r"racediff: (\d+)/(\d+) comparisons agree", out)
    assert match and match.group(1) == match.group(2) != "0"
    doc = json.loads(path.read_text())
    assert set(doc) == {"schema", "comparisons"}
    assert doc["schema"] == "repro-racediff-report-v1"
    assert len(doc["comparisons"]) == int(match.group(2))
