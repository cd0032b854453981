"""Program dependence graph construction.

Data dependences are computed with a classic reaching-definitions
dataflow analysis over the CFG, so loop-carried dependences (e.g. an
induction variable feeding its own update) are captured.  Nodes are
instruction ``uid`` values; an edge ``d -> u`` means a definition at
``d`` may reach a use at ``u``.

The solve runs on bit vectors.  Register ``i`` is key ``2i`` and
predicate ``i`` is key ``2i+1``; every instruction defines at most one
key, and each definition gets one bit, so GEN, KILL, IN and OUT are
Python ints.  The paper's second extraction phase walks basic blocks
rather than a formal control-dependence graph, so only ``block_of`` is
kept for control structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import is_global_load
from repro.isa.operands import Predicate, Register
from repro.isa.program import Program
from repro.telemetry.registry import TELEMETRY


@dataclass
class PDG:
    """Data-dependence graph plus CFG lookup tables for one program."""

    program: Program
    instr_by_uid: dict[int, Instruction] = field(default_factory=dict)
    block_of: dict[int, str] = field(default_factory=dict)
    data_preds: dict[int, set[int]] = field(default_factory=dict)
    data_succs: dict[int, set[int]] = field(default_factory=dict)

    def successors_of(self, instr: Instruction) -> set[Instruction]:
        return {
            self.instr_by_uid[uid] for uid in self.data_succs.get(instr.uid, ())
        }

    def consumers_of_load(self, load: Instruction) -> set[Instruction]:
        """Instructions consuming the value produced by a global load."""
        return self.successors_of(load)

    def global_loads(self) -> list[Instruction]:
        """All LDG/LDGSTS instructions in layout order."""
        return [
            instr
            for instr in self.program.instructions()
            if is_global_load(instr.opcode)
        ]


def build_pdg(program: Program) -> PDG:
    """Build the PDG for ``program`` (reaching-definitions dataflow)."""
    if TELEMETRY.enabled:
        # How many compiles a sweep runs depends on which processes
        # recompile a kernel, hence invariant=False.
        TELEMETRY.counter(
            "repro_compiler_pdg_builds_total",
            help="Program dependence graphs built by the compiler",
            invariant=False,
        ).inc()
    pdg = PDG(program=program)
    data_preds = pdg.data_preds
    data_succs = pdg.data_succs
    site_uid: list[int] = []  # def site -> defining instruction uid
    key_sites: dict[int, int] = {}  # key -> bitset of its def sites
    # Per block: (uid, keys read, key defined, its def site) per
    # instruction, and each defined key's last def site (GEN).
    walks: list[list[tuple[int, list[int], int, int]]] = []
    last_defs: list[dict[int, int]] = []
    for block in program.blocks:
        steps = []
        last: dict[int, int] = {}
        for instr in block.instructions:
            uid = instr.uid
            pdg.instr_by_uid[uid] = instr
            pdg.block_of[uid] = block.label
            data_preds[uid] = set()
            data_succs[uid] = set()
            uses = [
                2 * op.index + isinstance(op, Predicate)
                for op in instr.srcs
                if isinstance(op, (Register, Predicate))
            ]
            if instr.guard is not None:
                uses.append(2 * instr.guard.index + 1)
            dst = instr.dst
            key = site = -1
            if isinstance(dst, (Register, Predicate)):
                key = 2 * dst.index + isinstance(dst, Predicate)
                site = len(site_uid)
                site_uid.append(uid)
                key_sites[key] = key_sites.get(key, 0) | (1 << site)
                last[key] = site
            steps.append((uid, uses, key, site))
        walks.append(steps)
        last_defs.append(last)

    # Distinct keys have disjoint site sets, so these sums are unions.
    gen = [sum(1 << site for site in last.values()) for last in last_defs]
    kill = [sum(key_sites[key] for key in last) for last in last_defs]

    index = {block.label: i for i, block in enumerate(program.blocks)}
    preds = [
        [index[label] for label in labels]
        for labels in program.predecessors().values()
    ]
    live_in = [0] * len(walks)
    live_out = list(gen)
    changed = True
    while changed:
        changed = False
        for b, block_preds in enumerate(preds):
            reach = 0
            for p in block_preds:
                reach |= live_out[p]
            live_in[b] = reach
            out = gen[b] | (reach & ~kill[b])
            if out != live_out[b]:
                live_out[b] = out
                changed = True

    # Def-use edges: walk each block from its IN set, decoding only the
    # def sites of the keys an instruction reads.
    for steps, live in zip(walks, live_in):
        for uid, uses, key, site in steps:
            for use in uses:
                reach = live & key_sites.get(use, 0)
                while reach:
                    low = reach & -reach
                    def_uid = site_uid[low.bit_length() - 1]
                    data_preds[uid].add(def_uid)
                    data_succs[def_uid].add(uid)
                    reach ^= low
            if site >= 0:
                live = (live & ~key_sites[key]) | (1 << site)
    return pdg
