"""PDG construction: def-use edges, loop-carried dependences.

The property tests compare the bit-vector builder with the dict-of-sets
solver it replaced (kept here verbatim as the oracle) and check the
claim that lets dead-code elimination hand its graph on: the graph
restricted to the survivors equals the graph rebuilt after DCE.
"""

import importlib
import pkgutil
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.compiler
from repro.core.compiler import WaspCompiler, WaspCompilerOptions, stagesplit
from repro.core.compiler.memo import clear_source_slot
from repro.core.compiler.pdg import PDG, build_pdg
from repro.fuzz.generator import build_kernel
from repro.fuzz.oracle import OPTION_SETS
from repro.fuzz.spec import generate_spec
from repro.isa import Opcode, ProgramBuilder
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.serialize import program_digest
from repro.sweeps import registry_kernels


def _simple():
    b = ProgramBuilder("p")
    a = b.mov(1)            # 0
    c = b.iadd(a, 2)        # 1
    d = b.imul(c, a)        # 2
    b.stg(d, c)             # 3
    b.exit()
    return b.finish()


def test_direct_def_use_edges():
    prog = _simple()
    pdg = build_pdg(prog)
    instrs = list(prog.instructions())
    mov, add, mul, stg = instrs[0], instrs[1], instrs[2], instrs[3]
    assert add.uid in pdg.data_succs[mov.uid]
    assert mul.uid in pdg.data_succs[mov.uid]  # a used twice
    assert mul.uid in pdg.data_succs[add.uid]
    assert stg.uid in pdg.data_succs[mul.uid]
    assert stg.uid in pdg.data_succs[add.uid]


def test_kill_cuts_stale_defs():
    b = ProgramBuilder("p")
    a = b.mov(1)          # def1
    b.mov(2, dst=a)       # def2 kills def1
    use = b.iadd(a, 0)    # uses def2 only
    b.stg(use, use)
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    instrs = list(prog.instructions())
    def1, def2, add = instrs[0], instrs[1], instrs[2]
    assert add.uid in pdg.data_succs[def2.uid]
    assert add.uid not in pdg.data_succs[def1.uid]


def test_loop_carried_dependence():
    b = ProgramBuilder("p")
    i = b.mov(0)
    b.label("loop")
    b.iadd(i, 1, dst=i)
    p = b.isetp("lt", i, 4)
    b.bra("loop", guard=p)
    b.label("end")
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    update = prog.find_block("loop").instructions[0]
    # The induction update reaches itself around the backedge.
    assert update.uid in pdg.data_succs[update.uid]


def test_loop_carried_dependence_through_later_block():
    # The back edge carries x's redefinition in ``body`` to the use in
    # ``head``; a single forward pass over the blocks would miss it.
    b = ProgramBuilder("p")
    x = b.mov(0)
    b.label("head")
    y = b.iadd(x, 1)
    b.label("body")
    b.mov(y, dst=x)
    b.label("tail")
    p = b.isetp("lt", y, 4)
    b.bra("head", guard=p)
    b.label("end")
    b.stg(y, y)
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    init = prog.find_block("entry").instructions[0]
    add = prog.find_block("head").instructions[0]
    redef = prog.find_block("body").instructions[0]
    assert pdg.data_preds[add.uid] == {init.uid, redef.uid}
    assert _fields(pdg) == _fields(reference_pdg(prog))


def test_predicate_edges():
    b = ProgramBuilder("p")
    i = b.mov(0)
    b.label("loop")
    b.iadd(i, 1, dst=i)
    p = b.isetp("lt", i, 4)
    b.bra("loop", guard=p)
    b.label("end")
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    setp = prog.find_block("loop").instructions[1]
    branch = prog.find_block("loop").instructions[2]
    assert branch.uid in pdg.data_succs[setp.uid]


def test_global_loads_enumeration():
    b = ProgramBuilder("p")
    a = b.ldg(b.mov(64))
    b.ldgsts(b.mov(64), b.mov(0))
    b.stg(b.mov(128), a)
    b.exit()
    pdg = build_pdg(b.finish())
    loads = pdg.global_loads()
    assert [l.opcode for l in loads] == [Opcode.LDG, Opcode.LDGSTS]


def test_consumers_of_load():
    b = ProgramBuilder("p")
    v = b.ldg(b.mov(64))
    use1 = b.fadd(v, 1.0)
    use2 = b.fmul(v, 2.0)
    b.stg(b.mov(128), use1)
    b.stg(b.mov(129), use2)
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    load = pdg.global_loads()[0]
    consumers = pdg.consumers_of_load(load)
    assert {c.opcode for c in consumers} == {Opcode.FADD, Opcode.FMUL}


# -- the previous solver, verbatim, as the oracle ---------------------------

_DefKey = tuple[str, int]  # ('r', idx) or ('p', idx)


def _def_keys(instr: Instruction) -> list[_DefKey]:
    keys: list[_DefKey] = [("r", r.index) for r in instr.defined_registers()]
    keys.extend(("p", p.index) for p in instr.defined_predicates())
    return keys


def _use_keys(instr: Instruction) -> list[_DefKey]:
    keys: list[_DefKey] = [("r", r.index) for r in instr.used_registers()]
    keys.extend(("p", p.index) for p in instr.used_predicates())
    return keys


def reference_pdg(program: Program) -> PDG:
    """Build the PDG for ``program`` (reaching-definitions dataflow)."""
    pdg = PDG(program=program)
    for block in program.blocks:
        for instr in block.instructions:
            pdg.instr_by_uid[instr.uid] = instr
            pdg.block_of[instr.uid] = block.label
            pdg.data_preds[instr.uid] = set()
            pdg.data_succs[instr.uid] = set()

    # Block-level GEN (last def per key) and KILL (keys defined).
    gen: dict[str, dict[_DefKey, int]] = {}
    kill: dict[str, set[_DefKey]] = {}
    for block in program.blocks:
        block_gen: dict[_DefKey, int] = {}
        for instr in block.instructions:
            for key in _def_keys(instr):
                block_gen[key] = instr.uid
        gen[block.label] = block_gen
        kill[block.label] = set(block_gen)

    preds = program.predecessors()
    # IN/OUT sets: key -> set of def uids.
    in_sets: dict[str, dict[_DefKey, set[int]]] = {
        b.label: {} for b in program.blocks
    }
    out_sets: dict[str, dict[_DefKey, set[int]]] = {
        b.label: {} for b in program.blocks
    }

    changed = True
    while changed:
        changed = False
        for block in program.blocks:
            label = block.label
            new_in: dict[_DefKey, set[int]] = {}
            for pred_label in preds[label]:
                for key, uids in out_sets[pred_label].items():
                    new_in.setdefault(key, set()).update(uids)
            new_out: dict[_DefKey, set[int]] = {
                key: set(uids)
                for key, uids in new_in.items()
                if key not in kill[label]
            }
            for key, uid in gen[label].items():
                new_out[key] = {uid}
            if new_in != in_sets[label] or new_out != out_sets[label]:
                in_sets[label] = new_in
                out_sets[label] = new_out
                changed = True

    # Per-instruction def-use edges, walking each block with a live map.
    for block in program.blocks:
        live: dict[_DefKey, set[int]] = {
            key: set(uids) for key, uids in in_sets[block.label].items()
        }
        for instr in block.instructions:
            for key in _use_keys(instr):
                for def_uid in live.get(key, ()):
                    pdg.data_preds[instr.uid].add(def_uid)
                    pdg.data_succs[def_uid].add(instr.uid)
            for key in _def_keys(instr):
                live[key] = {instr.uid}
    return pdg


# -- properties -------------------------------------------------------------


def _fields(pdg: PDG) -> tuple:
    return (pdg.instr_by_uid, pdg.block_of, pdg.data_preds, pdg.data_succs)


def _compile_watching_dce(seed: int, options) -> list[dict]:
    """Compile fuzz seed ``seed``; snapshot each stage program's graphs
    around dead-code elimination (later passes rewrite stage programs in
    place, so they are taken on the spot), then the kernel's and the
    compiled pipeline's."""
    # A compile the per-source slot answers runs no pass, so an earlier
    # compile of the same seed (another example of these property
    # tests) would leave nothing to watch.
    clear_source_slot()
    kernel = build_kernel(generate_spec(seed))
    real_dce = stagesplit._eliminate_dead_code
    snaps = []

    def watching_dce(program):
        snap = {"before": build_pdg(program),
                "reference_before": reference_pdg(program)}
        snap["pruned"] = real_dce(program)
        snap["survivors"] = {i.uid for i in program.instructions()}
        snap["rebuilt"] = build_pdg(program)
        snap["reference_after"] = reference_pdg(program)
        snaps.append(snap)
        return snap["pruned"]

    with mock.patch.object(stagesplit, "_eliminate_dead_code", watching_dce):
        result = WaspCompiler(
            replace(options, verify=False, validate=False)
        ).compile(kernel.program, kernel.launch.num_warps)
    for program in (kernel.program, result.program):
        snaps.append({"before": build_pdg(program),
                      "reference_before": reference_pdg(program)})
    return snaps


# Every compile of these seeds specializes (tests/compile_digests.json).
_SEEDS = st.integers(0, 199)
_OPTIONS = st.sampled_from([options for _, options in OPTION_SETS])


@settings(max_examples=25, deadline=None)
@given(_SEEDS, _OPTIONS)
def test_bitset_builder_matches_reference_solver(seed, options):
    # Pre- and post-DCE stage programs, the kernel and the compiled
    # pipeline (jump table plus every stage's CFG).
    for snap in _compile_watching_dce(seed, options):
        assert _fields(snap["before"]) == _fields(snap["reference_before"])
        if "rebuilt" in snap:
            assert _fields(snap["rebuilt"]) == _fields(snap["reference_after"])


@settings(max_examples=25, deadline=None)
@given(_SEEDS, _OPTIONS)
def test_dead_code_elimination_keeps_survivor_edges(seed, options):
    stages = [s for s in _compile_watching_dce(seed, options) if "pruned" in s]
    assert stages
    for snap in stages:
        before, survivors = snap["before"], snap["survivors"]
        restricted = (
            {u: before.instr_by_uid[u] for u in survivors},
            {u: before.block_of[u] for u in survivors},
            {u: before.data_preds[u] for u in survivors},
            {u: before.data_succs[u] & survivors for u in survivors},
        )
        assert restricted == _fields(snap["rebuilt"])
        assert _fields(snap["pruned"]) == _fields(snap["rebuilt"])


def _compile_fingerprinting_builds(kernel, options):
    """Compile ``kernel``; also fingerprint every program a PDG is built
    for by its instruction uids plus its program digest."""
    versions = []

    def fingerprinting(program):
        versions.append((
            tuple(instr.uid for instr in program.instructions()),
            program_digest(program),
        ))
        return build_pdg(program)

    package = repro.core.compiler
    with ExitStack() as stack:
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            if getattr(module, "build_pdg", None) is build_pdg:
                stack.enter_context(
                    mock.patch.object(module, "build_pdg", fingerprinting)
                )
        result = WaspCompiler(options).compile(
            kernel.program, kernel.launch.num_warps
        )
    return result, versions


def test_one_graph_per_program_version():
    options = WaspCompilerOptions(verify=False, validate=False)
    for _, kernel in registry_kernels(None, 0.25):
        result, versions = _compile_fingerprinting_builds(kernel, options)
        assert versions, kernel.name
        assert len(versions) == len(set(versions)), kernel.name
        if result.specialized:
            # The working program, rebuilt only after fusion or ring
            # buffering rewrote it, plus one graph per stage program
            # (a gather fusion may add one for a rewritten stage).
            rewritten = bool(result.fused_ldgsts or result.double_buffered)
            gathers = result.offload.gathers if result.offload else 0
            assert len(versions) <= (
                1 + rewritten + result.plan.num_stages + gathers
            ), kernel.name
