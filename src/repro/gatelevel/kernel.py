"""Compiled bit-parallel fault-simulation kernel.

The reference interpreter (:mod:`repro.gatelevel.simulate`) re-walks a
name-keyed gate dict per gate, per fault, per cycle.  This module
compiles a :class:`~repro.gatelevel.gates.Netlist` **once** into a flat
integer-indexed program and evaluates it over numpy ``uint64`` words:

* **Levelized instruction stream** — gates are indexed in topological
  order and grouped by ``(level, opcode)``, and each level runs as one
  step (:func:`_run_level`): every operand slot is gathered once for
  the whole level, each group's op runs in place on its slice of the
  gathered block, and one scatter writes the level back.  So the
  per-gate Python overhead of the interpreter disappears, and a level
  costs a few numpy calls plus one or two per group.
* **Wide words** — net values are ``(n_words,)`` vectors of ``uint64``,
  simulating ``width = 64 * n_words`` packed patterns per pass instead
  of capping at 64.
* **Cone-restricted faulty evaluation** — a fault can change only the
  fanout closure of its site (:meth:`CompiledNetlist.cone`), so a
  faulty machine re-evaluates only the gates in it and keeps
  good-machine values everywhere else.  A single capture cycle
  (random pre-drop masks, transition-fault pairs) stops the closure at
  every flip-flop: a reached flip-flop is an observation sink (its
  captured next state), but its output is present state the fault
  cannot change within the cycle.  Multi-cycle fault simulation stops
  only at scan flip-flops, which reload from the good machine every
  cycle, and still crosses non-scan flip-flops.  Kept instructions are
  gathered through one compile-time row -> (group, position) map, so
  building a closure's program costs its size, not the program's.
* **Fault-batched blocks** — every scan-observed faulty machine runs in
  a fault batch: faulty machines packed side by side along the word
  axis (fault *b* owns columns ``b*n_words:(b+1)*n_words`` and forces
  its site to its own word vector -- its stuck value, or a transition
  fault's late value) evaluate the *union* of their cones in one pass,
  re-forcing each site inside its own block when its level completes.
  Blocks are column-disjoint, and a row outside fault *b*'s cone
  recomputes to good-machine values in block *b* (its inputs are good
  there), so per-block detection masks against the union's observation
  rows are exact.  One-cycle callers keep those masks; multi-cycle
  fault simulation keeps each fault's first detecting cycle.  A batch
  holds as many faults as fit :data:`BATCH_SCRATCH_WORDS` of scratch
  (never fewer than :data:`FAULT_BATCH`), and once detection has
  thinned the live columns to :data:`REPACK_LIVE_SHARE` of those held,
  the survivors are rebuilt into fresh batches, each carrying its
  faulty state.  Both keep each numpy call wide, amortising the
  per-call overhead that would otherwise dominate on per-fault-sized
  arrays (see ``docs/fault_batches.md``).
* **Bit-column sequential batches** -- BIST attribution
  (:meth:`CompiledNetlist.sequential_fault_detect`) packs one faulty
  machine per bit column of the whole design, as many columns as the
  same :data:`BATCH_SCRATCH_WORDS` budget holds.  Its caller first
  drops, exactly, every fault that one memoized fault-free run shows
  cannot reach an observed flip-flop (:meth:`CompiledNetlist.screen`;
  see ``docs/sequential_fault_sim.md``).

Results are bit-identical to the interpreter (property-tested in
``tests/test_kernel_equivalence.py``): stuck-at forcing applies after a
net evaluates, scan flip-flops observe each cycle and reload from the
good machine, and a fault on a scan FF keeps corrupting its own state.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from contextlib import contextmanager
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as _np

from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist, NetlistError


def have_kernel() -> bool:
    """Always True: numpy is a declared dependency, so the compiled
    kernel always runs (kept for the environment perfbench prints)."""
    return True


# Opcodes.  Sources first, then unary, then the binary/ternary ops.
OP_INPUT, OP_CONST0, OP_CONST1, OP_DFF = 0, 1, 2, 3
OP_BUF, OP_NOT = 4, 5
OP_AND, OP_OR, OP_NAND, OP_NOR, OP_XOR, OP_XNOR, OP_MUX = 6, 7, 8, 9, 10, 11, 12

_OPCODE = {
    "input": OP_INPUT, "const0": OP_CONST0, "const1": OP_CONST1,
    "dff": OP_DFF, "buf": OP_BUF, "not": OP_NOT, "and": OP_AND,
    "or": OP_OR, "nand": OP_NAND, "nor": OP_NOR, "xor": OP_XOR,
    "xnor": OP_XNOR, "mux": OP_MUX,
}
_MASKED_OPS = frozenset({OP_NOT, OP_NAND, OP_NOR, OP_XNOR})
#: the input value that fixes a gate's output, whatever its other input
_CONTROLLING = {OP_AND: 0, OP_NAND: 0, OP_OR: 1, OP_NOR: 1}


def _n_words(width: int) -> int:
    return (width + 63) // 64


#: the fewest faulty machines a batched pass evaluates side by side
FAULT_BATCH = 32

#: ``uint64`` words of scratch (4 MiB) that size both batch engines: a
#: fault batch's ``(n_gates, B * n_words)`` block (a small design gets
#: batches wider than :data:`FAULT_BATCH`, a large one stays at it) and
#: a sequential batch's ``(n_gates, n_words)`` bit columns (never
#: fewer than 4 words)
BATCH_SCRATCH_WORDS = 1 << 19

#: survivors are repacked at a cycle boundary once the live fault
#: columns have fallen to this share of the columns the batches hold
REPACK_LIVE_SHARE = 0.5

#: per-row flip-flop kinds, which are also :meth:`CompiledNetlist.cone`
#: stop levels: a single capture cycle stops at every flip-flop
#: (``FF_ANY``), a multi-cycle fault batch only at scan ones (``FF_SCAN``)
FF_ANY, FF_SCAN = 1, 2


class _FaultBatch:
    """Faulty machines sharing one pass over a ``(n_gates, size*nw)``
    scratch view, fault *b* in word columns ``b*nw:(b+1)*nw``.

    Fault *b* forces gate row ``sites[b]`` to ``words[b]``.  ``levels``
    is the union-of-cones program as level steps.  A forcing is a
    pair ``(flat indices, words)`` that writes each fault's words into
    its own columns of a C-ordered array with rows ``size*nw`` words
    wide: ``force`` writes every site into the scratch before the
    program runs, each level carries the forcing of the sites it
    evaluates (or None), and ``force_state`` writes the next state of
    flip-flop sites.  ``state`` holds every flip-flop's faulty present
    state.
    """

    __slots__ = ("faults", "sites", "words", "size", "alive", "levels",
                 "force", "force_state", "obs_out", "obs_scan", "state")

    def __init__(self, faults, sites, words, levels, force, force_state,
                 obs_out, obs_scan, state) -> None:
        self.faults = faults
        self.sites = sites            # (size,) gate rows
        self.words = words            # (size, nw) forced words
        self.size = len(faults)
        self.alive = _np.ones(self.size, dtype=bool)
        self.levels = levels          # [(_Level, forcing or None)]
        self.force = force            # every site, into the scratch
        self.force_state = force_state  # flip-flop sites, into bnxt
        self.obs_out = obs_out        # union observation: output rows
        self.obs_scan = obs_scan      # union observation: scan DFF pos
        self.state = state            # (n_dffs, size*nw) faulty state


def _group_index(program: Sequence[tuple], level):
    """A levelized ``program`` stored once, with the compile-time map
    :meth:`CompiledNetlist._kept_levels` gathers kept instructions by.

    Returns ``(program, row_flat, flat_group, flat, group_level)``:
    ``flat`` is the ``(dst, a, b, c)`` operand arrays concatenated group
    after group (0 where a group has no such operand), and the returned
    program's operands are views into it.  ``row_flat`` is each row's
    position in ``flat`` (-1 for sources, which no group writes),
    ``flat_group`` each position's group and ``group_level`` each
    group's level.
    """
    sizes = [len(instr[1]) for instr in program]
    flat = tuple(
        _np.concatenate([
            instr[k] if instr[k] is not None
            else _np.zeros(len(instr[1]), dtype=_np.int64)
            for instr in program
        ]) if program else _np.zeros(0, dtype=_np.int64)
        for k in (1, 2, 3, 4)
    )
    d, a, b, c = flat
    program = [
        (op, d[e - n:e], a[e - n:e],
         b[e - n:e] if b_ is not None else None,
         c[e - n:e] if c_ is not None else None)
        for (op, _d, _a, b_, c_), n, e in zip(
            program, sizes, _np.cumsum(sizes, dtype=_np.int64).tolist())
    ]
    row_flat = _np.full(len(level), -1, dtype=_np.int64)
    row_flat[flat[0]] = _np.arange(len(flat[0]))
    flat_group = _np.repeat(_np.arange(len(program), dtype=_np.int32), sizes)
    group_level = [int(level[instr[1][0]]) for instr in program]
    return program, row_flat, flat_group, flat, group_level


def _masked_fix(keys, clear, put):
    """Bit fixes merged per flat array index: ``(keys, keep, put)`` for
    :func:`_apply_fix`, or ``None`` when there are none.  Several fixes
    may share an index (faults in one word of one row)."""
    if not len(keys):
        return None
    keys, inv = _np.unique(keys, return_inverse=True)
    merged = _np.zeros((2, len(keys)), dtype=_np.uint64)
    _np.bitwise_or.at(merged[0], inv, clear)
    _np.bitwise_or.at(merged[1], inv, put)
    return keys, ~merged[0], merged[1]


def _apply_fix(flat, fix) -> None:
    """``flat[keys] = flat[keys] & keep | put``: every fix at once."""
    if fix is not None:
        keys, keep, put = fix
        flat[keys] = flat[keys] & keep | put


class _Level(NamedTuple):
    """One level's kept instructions as a single evaluation step.

    ``dst`` and ``a`` are the level's rows and first operands, group
    after group in program order; ``b`` covers the rows from the first
    binary group on and ``c`` those from the first mux (``None`` when
    the level has none).  ``groups`` holds each group's ``(opcode,
    a-slice, b-slice, c-slice)``, the slices cutting the gathered
    operand blocks.
    """

    level: int
    dst: object
    a: object
    b: object
    c: object
    groups: list


def _level_step(lvl: int, flat, groups) -> _Level:
    """The :class:`_Level` of ``groups``, ``[(opcode, start, end)]``
    positions into the kept ``flat = [dst, a, b, c]`` arrays."""
    lo, hi = groups[0][1], groups[-1][2]
    # Opcodes ascend within a level, so the binary groups and then the
    # muxes are suffixes of it.
    nb = next((s for op, s, _e in groups if op >= OP_AND), hi)
    nc = next((s for op, s, _e in groups if op == OP_MUX), hi)
    dst, a, b, c = flat
    return _Level(
        lvl, dst[lo:hi], a[lo:hi],
        b[nb:hi] if nb < hi else None, c[nc:hi] if nc < hi else None,
        [(op, slice(s - lo, e - lo), slice(s - nb, e - nb),
          slice(s - nc, e - nc)) for op, s, e in groups],
    )


_BINARY = {OP_AND: _np.bitwise_and, OP_NAND: _np.bitwise_and,
           OP_OR: _np.bitwise_or, OP_NOR: _np.bitwise_or,
           OP_XOR: _np.bitwise_xor, OP_XNOR: _np.bitwise_xor}


def _run_level(V, step: _Level, mask) -> None:
    """Evaluate one level of ``V`` in place.

    Each operand slot is gathered once; every group's op then runs in
    place on its slice of the first operand's block, which one scatter
    writes back.  Operands never hold bits outside ``mask``, so an
    inverting op XORs the mask, a BUF row needs no op at all (the
    gather holds its value) and a mux is ``c ^ (s & (b ^ c))``.
    """
    _lvl, dst, a, b, c, groups = step
    A = V.take(a, axis=0)
    B = V.take(b, axis=0) if b is not None else None
    C = V.take(c, axis=0) if c is not None else None
    xor = _np.bitwise_xor
    for op, sa, sb, sc in groups:
        if op == OP_BUF:
            continue
        x = A[sa]
        if op == OP_MUX:
            y, z = B[sb], C[sc]
            xor(y, z, y)
            _np.bitwise_and(x, y, x)
            xor(x, z, x)
            continue
        if op >= OP_AND:
            _BINARY[op](x, B[sb], x)
        if op in _MASKED_OPS:
            xor(x, mask, x)
    V[dst] = A


class CompiledNetlist:
    """A :class:`Netlist` levelized into a flat numpy program."""

    def __init__(self, netlist: Netlist) -> None:
        # Fail on malformed structure here, with a NetlistError naming
        # the offending net, rather than as a numpy shape error three
        # layers down in the levelized program.
        netlist.validate()
        order = netlist.topo_order()
        levels = netlist.levels()
        self.names: list[str] = list(order)
        self.index: dict[str, int] = {n: i for i, n in enumerate(order)}
        n = len(order)
        self.n_gates = n

        opcode = _np.zeros(n, dtype=_np.uint8)
        fanin = _np.zeros((n, 3), dtype=_np.int64)
        level = _np.zeros(n, dtype=_np.int64)
        input_rows: list[int] = []
        const0_rows: list[int] = []
        const1_rows: list[int] = []
        dff_rows: list[int] = []
        dff_d_rows: list[int] = []
        scan_flags: list[bool] = []
        for i, name in enumerate(order):
            g = netlist.gate(name)
            op = _OPCODE[g.kind]
            opcode[i] = op
            level[i] = levels[name]
            for j, src in enumerate(g.inputs):
                fanin[i, j] = self.index[src]
            if op == OP_INPUT:
                input_rows.append(i)
            elif op == OP_CONST0:
                const0_rows.append(i)
            elif op == OP_CONST1:
                const1_rows.append(i)
            elif op == OP_DFF:
                dff_rows.append(i)
                dff_d_rows.append(self.index[g.inputs[0]])
                scan_flags.append(g.scan)
        self.opcode = opcode
        self.fanin = fanin
        self.level = level
        self.input_rows = _np.array(input_rows, dtype=_np.int64)
        self.input_names = [order[i] for i in input_rows]
        self.const0_rows = _np.array(const0_rows, dtype=_np.int64)
        self.const1_rows = _np.array(const1_rows, dtype=_np.int64)
        self.dff_rows = _np.array(dff_rows, dtype=_np.int64)
        self.dff_names = [order[i] for i in dff_rows]
        self.dff_d_rows = _np.array(dff_d_rows, dtype=_np.int64)
        self.dff_pos = {row: pos for pos, row in enumerate(dff_rows)}
        self.scan_pos = _np.array(
            [pos for pos, s in enumerate(scan_flags) if s],
            dtype=_np.int64,
        )
        self.output_rows = _np.array(
            [self.index[o] for o in netlist.outputs], dtype=_np.int64
        )

        # The levelized instruction stream: gates grouped by
        # (level, opcode), indices ascending within a group.
        groups: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            op = int(opcode[i])
            if op >= OP_BUF:
                groups.setdefault((int(level[i]), op), []).append(i)
        self.program: list[tuple] = []
        for (lvl, op), rows in sorted(groups.items()):
            dst = _np.array(rows, dtype=_np.int64)
            a = fanin[dst, 0]
            b = fanin[dst, 1] if op >= OP_AND else None
            c = fanin[dst, 2] if op == OP_MUX else None
            self.program.append((op, dst, a, b, c))
        (self.program, self._row_flat, self._flat_group, self._flat,
         self._group_level) = _group_index(self.program, level)
        #: the whole program as one :class:`_Level` step per level
        self.program_levels = self._kept_levels(range(n))

        # Fanout adjacency (a DFF "consumes" its D input, which folds
        # the cross-cycle edge D -> state into the closure), and each
        # row's flip-flop kind, where closures stop (see :meth:`cone`).
        consumers: list[list[int]] = [[] for _ in range(n)]
        for i, name in enumerate(order):
            g = netlist.gate(name)
            for src in g.inputs:
                consumers[self.index[src]].append(i)
        self._consumers = consumers
        self._ff_kind = bytearray(n)
        for row, scan in zip(dff_rows, scan_flags):
            self._ff_kind[row] = FF_SCAN if scan else FF_ANY
        # (pin values, cycles) -> golden constants (see :meth:`screen`)
        self._golden: dict[tuple, list[int]] = {}

    # ------------------------------------------------------------------
    # word packing

    def words_from_int(self, value: int, width: int):
        """Packed Python int -> little-endian ``uint64`` word vector."""
        nw = _n_words(width)
        value &= (1 << width) - 1
        return _np.frombuffer(
            value.to_bytes(nw * 8, "little"), dtype="<u8"
        ).astype(_np.uint64)

    @staticmethod
    def int_from_words(words) -> int:
        """Inverse of :meth:`words_from_int`."""
        return int.from_bytes(words.astype("<u8").tobytes(), "little")

    def _mask_words(self, width: int):
        nw = _n_words(width)
        mask = _np.full(nw, _np.uint64(0xFFFFFFFFFFFFFFFF))
        top = width - 64 * (nw - 1)
        if top < 64:
            mask[-1] = _np.uint64((1 << top) - 1)
        return mask

    def _value_matrix(self, names: Sequence[str],
                      values: Mapping[str, int], width: int):
        """``values`` packed as ``(len(names), n_words)`` words, one row
        per name (absent names are 0)."""
        nw = _n_words(width)
        if nw == 1 and values:
            # One word per row: a single fromiter over the names, not a
            # words_from_int round trip per non-zero row.
            keep = (1 << width) - 1
            get = values.get
            return _np.fromiter(
                (get(name, 0) & keep for name in names),
                dtype=_np.uint64, count=len(names),
            ).reshape(len(names), 1)
        m = _np.zeros((len(names), nw), dtype=_np.uint64)
        if values:
            for k, name in enumerate(names):
                v = values.get(name, 0)
                if v:
                    m[k] = self.words_from_int(v, width)
        return m

    def _pi_matrix(self, pi_values: Mapping[str, int], width: int):
        return self._value_matrix(self.input_names, pi_values, width)

    def pack_pi_sequence(self, pi_sequence, width: int):
        """``pi_sequence`` packed as one ``(cycles, inputs, n_words)``
        ``uint64`` array -- the shard-dispatch payload format.  Row *c*
        is exactly ``self._pi_matrix(pi_sequence[c], width)``, so a
        simulation fed the packed form is bit-identical to one packing
        per cycle."""
        nw = _n_words(width)
        if not pi_sequence:
            return _np.zeros((0, len(self.input_names), nw),
                             dtype=_np.uint64)
        return _np.stack(
            [self._pi_matrix(piv, width) for piv in pi_sequence]
        )

    def _state_matrix(self, state: Mapping[str, int] | None, width: int):
        return self._value_matrix(self.dff_names, state or {}, width)

    # ------------------------------------------------------------------
    # evaluation

    def good_cycle(self, pi_words, state_words, width: int,
                   forced: Mapping[int, object] | None = None):
        """Full evaluation of one cycle; returns ``(V, next_state)``.

        ``forced`` maps gate row -> word vector, applied the moment the
        net's level completes (so downstream gates see forced values,
        matching the interpreter's in-order override).
        """
        mask = self._mask_words(width)
        V = _np.zeros((self.n_gates, _n_words(width)), dtype=_np.uint64)
        if len(self.input_rows):
            V[self.input_rows] = pi_words
        if len(self.const1_rows):
            V[self.const1_rows] = mask
        if len(self.dff_rows):
            V[self.dff_rows] = state_words
        by_level: dict[int, list[tuple[int, object]]] = {}
        if forced:
            for row, words in forced.items():
                by_level.setdefault(int(self.level[row]), []).append(
                    (row, words)
                )
            for row, words in by_level.get(0, ()):
                V[row] = words
        # A level reads only lower levels, so a forced net is applied
        # once, after its own level has run.
        for step in self.program_levels:
            _run_level(V, step, mask)
            for row, words in by_level.get(step.level, ()):
                V[row] = words
        nxt = V[self.dff_d_rows].copy() if len(self.dff_rows) else (
            _np.zeros((0, _n_words(width)), dtype=_np.uint64)
        )
        if forced:
            for row, words in forced.items():
                pos = self.dff_pos.get(row)
                if pos is not None:
                    nxt[pos] = words
        return V, nxt

    # ------------------------------------------------------------------
    # cone-restricted faulty evaluation

    def cone(self, sites, stop: int) -> set[int]:
        """Rows reachable from the gate rows ``sites`` along fanout
        edges: the union of their fault cones, the sites included.

        A reached flip-flop of kind ``stop`` or above joins the closure
        -- as an observation sink -- but is not expanded; a site always
        expands, since its fault forces its output.  A single capture
        cycle stops at every flip-flop (``FF_ANY``): within one cycle a
        flip-flop's output is present state the fault cannot change.
        """
        consumers, kind = self._consumers, self._ff_kind
        seen = set(sites)
        stack = list(seen)
        while stack:
            for k in consumers[stack.pop()]:
                if k not in seen:
                    seen.add(k)
                    if kind[k] < stop:
                        stack.append(k)
        return seen

    def _kept_levels(self, rows) -> list[_Level]:
        """:attr:`program` restricted to the gates in ``rows``, as one
        :class:`_Level` step per level, in program order.

        Each row's position in the concatenated program comes from the
        compile-time map, so one sort and one gather per operand cut
        every kept instruction at once; the cost follows ``len(rows)``,
        not the program.
        """
        at = self._row_flat[
            _np.fromiter(rows, dtype=_np.int64, count=len(rows))
        ]
        at = _np.sort(at[at >= 0])
        if not len(at):
            return []
        grp = self._flat_group[at]
        cut = (_np.flatnonzero(grp[1:] != grp[:-1]) + 1).tolist()
        flat = [arr[at] for arr in self._flat]
        by_level: dict[int, list] = {}
        for g, s, e in zip(grp[[0] + cut].tolist(), [0] + cut,
                           cut + [len(at)]):
            by_level.setdefault(self._group_level[g], []).append(
                (self.program[g][0], s, e))
        return [_level_step(lvl, flat, groups)
                for lvl, groups in by_level.items()]

    def _observed(self, rows):
        """``(output rows, scan-DFF positions)`` that lie in ``rows``,
        in output-list and position order."""
        member = _np.zeros(self.n_gates, dtype=bool)
        member[_np.fromiter(rows, dtype=_np.int64, count=len(rows))] = True
        return (self.output_rows[member[self.output_rows]],
                self.scan_pos[member[self.dff_rows[self.scan_pos]]])

    # ------------------------------------------------------------------
    # interpreter-compatible façades

    def simulate(
        self,
        pi_values: Mapping[str, int],
        state: Mapping[str, int] | None = None,
        width: int = 64,
        forced: Mapping[str, int] | None = None,
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Drop-in for :func:`repro.gatelevel.simulate.parallel_simulate`."""
        forced_rows = None
        if forced:
            forced_rows = {
                self.index[name]: self.words_from_int(v, width)
                for name, v in forced.items() if name in self.index
            }
        V, nxt = self.good_cycle(
            self._pi_matrix(pi_values, width),
            self._state_matrix(state, width),
            width, forced_rows,
        )
        values = {
            name: self.int_from_words(V[i])
            for i, name in enumerate(self.names)
        }
        next_state = {
            name: self.int_from_words(nxt[pos])
            for pos, name in enumerate(self.dff_names)
        }
        return values, next_state

    def state_checkpoints(
        self,
        pi_values: Mapping[str, int],
        checkpoints: Sequence[int],
        width: int = 1,
        forced: Mapping[str, int] | None = None,
    ) -> dict[int, dict[str, int]]:
        """Free-run with constant inputs from the all-zero state;
        snapshot DFF state at the given cycle counts (cycle 1 = state
        after one clock edge)."""
        forced_rows = None
        if forced:
            forced_rows = {
                self.index[name]: self.words_from_int(v, width)
                for name, v in forced.items() if name in self.index
            }
        pw = self._pi_matrix(pi_values, width)
        state = self._state_matrix(None, width)
        marks = sorted(set(checkpoints))
        out: dict[int, dict[str, int]] = {}
        for cycle in range(1, marks[-1] + 1):
            _V, state = self.good_cycle(pw, state, width, forced_rows)
            if cycle in marks:
                out[cycle] = {
                    name: self.int_from_words(state[pos])
                    for pos, name in enumerate(self.dff_names)
                }
        return out

    # ------------------------------------------------------------------
    # fault-parallel sequential simulation

    def sequential_fault_detect(
        self,
        faults: Sequence[Fault],
        pi_values: Mapping[str, int],
        checkpoints: Sequence[int],
        observe: Sequence[str],
        columns: int | None = None,
    ) -> dict[Fault, int | None]:
        """Free-run every fault's full sequential machine **at once**.

        Packs up to ``columns - 1`` faults as bit columns of one wide
        state vector (column 0 is the golden machine; every column sees
        the same constant ``pi_values``), injects each fault by
        re-forcing its net's column whenever the net's level completes
        -- the same per-level re-forcing trick the combinational path
        uses -- and free-runs all cycles once.  At each checkpoint the
        ``observe`` flip-flops (signature-register bits) of every fault
        column are compared against column 0.

        Returns fault -> first detecting checkpoint cycle (``None`` if
        no checkpoint shows a difference), bit-identical to running the
        interpreter once per fault with ``forced={fault.net: stuck}``.
        A batch whose columns are all detected stops simulating early;
        larger fault lists are processed in successive batches.  Every
        fault given is simulated: :meth:`screen` is the exact filter a
        caller runs first, and tests hold it against this engine.
        ``columns`` defaults to as many ``uint64`` words per row as fit
        :data:`BATCH_SCRATCH_WORDS` across the design's rows, never
        fewer than 4 (256 columns); :meth:`seq_fault_columns` is that
        width's fault count.
        """
        marks = sorted({int(c) for c in checkpoints})
        result: dict[Fault, int | None] = {f: None for f in faults}
        known = [f for f in faults if f.net in self.index]
        pos: set[int] = set()
        for name in observe:
            row = self.index.get(name)
            if row is not None and row in self.dff_pos:
                pos.add(self.dff_pos[row])
        obs_pos = _np.array(sorted(pos), dtype=_np.int64)
        if not marks or not known or not len(obs_pos):
            return result
        per_batch = (max(1, int(columns) - 1) if columns
                     else self.seq_fault_columns())
        for start in range(0, len(known), per_batch):
            self._seq_fault_batch(
                known[start:start + per_batch], pi_values, marks,
                obs_pos, result,
            )
        return result

    def seq_fault_columns(self) -> int:
        """Faults one sequential batch packs by default: ``64 * max(4,
        BATCH_SCRATCH_WORDS // n_gates)`` bit columns, less column 0
        (the golden machine)."""
        return 64 * max(4, BATCH_SCRATCH_WORDS // self.n_gates) - 1

    def screen(
        self,
        faults: Sequence[Fault],
        pi_values: Mapping[str, int],
        checkpoints: Sequence[int],
        observe: Sequence[str],
    ) -> list[Fault]:
        """The faults of ``faults`` that may change an ``observe``
        flip-flop in the free-run :meth:`sequential_fault_detect` makes
        of the same arguments; it reports every other fault ``None``,
        so simulating only these is exact.

        One fault-free run (:meth:`_golden_constants`) says which rows
        hold one value throughout.  A fault is kept only if it is
        activated -- its net leaves the stuck value in some cycle --
        and its may-differ set reaches an observed flip-flop.  The set
        starts at the site and closes under fanout, flip-flops
        included, except through an AND/NAND (OR/NOR) with an input
        outside the set that is golden-constant 0 (1), and through a mux
        data input that a golden-constant select outside the set never
        picks.  A row outside the set equals golden in every cycle, by
        induction over cycles and evaluation order: its inputs outside
        the set equal golden, and a blocking input holds the golden
        output.  So no signature bit outside the set ever differs.
        """
        marks = [int(c) for c in checkpoints]
        obs = {row for row in map(self.index.get, observe)
               if row in self.dff_pos}
        if not marks or not obs:
            return []
        const = self._golden_constants(pi_values, max(marks))
        kept = []
        for f in faults:
            site = self.index.get(f.net)
            if (site is not None and const[site] != f.stuck_at
                    and self._may_reach(site, const, obs)):
                kept.append(f)
        return kept

    def _may_reach(self, site: int, const: list[int],
                   obs: set[int]) -> bool:
        """Whether the may-differ set of a fault at row ``site`` (see
        :meth:`screen`) meets ``obs``; ``const`` holds each row's golden
        constant (-1: it toggles)."""
        ops, fanin = self._gate_lists
        consumers = self._consumers
        seen, stack = {site}, [site]
        while stack:
            row = stack.pop()
            if row in obs:
                return True
            for g in consumers[row]:
                if g in seen:
                    continue
                ctl = _CONTROLLING.get(ops[g])
                if ctl is not None:
                    if any(x not in seen and const[x] == ctl
                           for x in fanin[g][:2]):
                        continue
                elif ops[g] == OP_MUX:
                    sel, one, zero = fanin[g]
                    pick = const[sel]
                    if (sel not in seen and pick >= 0
                            and (one if pick else zero) not in seen):
                        continue
                seen.add(g)
                stack.append(g)
        return False

    @cached_property
    def _gate_lists(self) -> tuple[list[int], list[list[int]]]:
        """Each row's opcode and fanin rows as lists, the form
        :meth:`_may_reach` walks fastest."""
        return self.opcode.tolist(), self.fanin.tolist()

    def _golden_constants(self, pi_values: Mapping[str, int],
                          cycles: int) -> list[int]:
        """Each row's fault-free value under constant ``pi_values``
        from the all-zero state: 0 or 1 when the row holds it in every
        one of ``cycles + 1`` cycles (so flip-flop rows cover every
        state up to the last checkpoint), -1 when it toggles.  Run once
        at width 1 and kept per ``(pin values, cycles)``."""
        pw = self._pi_matrix(pi_values, 1)
        key = (pw.tobytes(), cycles)
        const = self._golden.get(key)
        if const is None:
            state = self._state_matrix(None, 1)
            hi = _np.zeros(self.n_gates, dtype=_np.uint64)
            lo = _np.ones(self.n_gates, dtype=_np.uint64)
            for _ in range(cycles + 1):
                V, state = self.good_cycle(pw, state, 1)
                hi |= V[:, 0]
                lo &= V[:, 0]
            const = self._golden[key] = _np.where(
                lo == 1, 1, _np.where(hi == 0, 0, -1)).tolist()
        return const

    def _seq_fault_batch(self, batch, pi_values, marks, obs_pos,
                         result) -> None:
        """One packed free-run: golden in column 0, fault *b* in column
        ``b + 1``; first-detection checkpoints land in ``result``."""
        nbits = len(batch) + 1
        nw = _n_words(nbits)
        mask = self._mask_words(nbits)

        # Broadcast packing: every column runs the same session, so a
        # pin held at 1 is set in every column.
        pw = _np.zeros((len(self.input_names), nw), dtype=_np.uint64)
        for k, name in enumerate(self.input_names):
            if pi_values.get(name, 0) & 1:
                pw[k] = mask
        state = _np.zeros((len(self.dff_names), nw), dtype=_np.uint64)

        # Column fixes: fault b's column of its net is re-set to the
        # stuck value whenever the row is (re)written -- once per level
        # (level 0: the source rows, right after they load) and in the
        # next state of a flip-flop site -- as one masked update over
        # (row, word) keys into the flattened arrays.
        sites = _np.array([self.index[f.net] for f in batch],
                          dtype=_np.int64)
        col = _np.arange(1, nbits, dtype=_np.int64)
        bits = _np.left_shift(_np.uint64(1), (col % 64).astype(_np.uint64))
        put = bits * _np.array([f.stuck_at for f in batch],
                               dtype=_np.uint64)
        word = col // 64
        site_level = self.level[sites]
        fixes = {}
        for lvl in set(site_level.tolist()):
            at = site_level == lvl
            fixes[lvl] = _masked_fix(sites[at] * nw + word[at], bits[at],
                                     put[at])
        pos = _np.array([self.dff_pos.get(r, -1) for r in sites.tolist()],
                        dtype=_np.int64)
        at = pos >= 0
        state_fix = _masked_fix(pos[at] * nw + word[at], bits[at], put[at])

        steps = [(step, fixes.get(step.level))
                 for step in self.program_levels]
        alive = (1 << nbits) - 2  # columns 1..len(batch)
        V = _np.zeros((self.n_gates, nw), dtype=_np.uint64)
        flat = V.reshape(-1)
        mark_set = set(marks)
        for cycle in range(1, marks[-1] + 1):
            # Every row is rewritten each cycle but the constant-0 ones,
            # which only their own fixes touch (idempotently).
            V[self.input_rows] = pw
            V[self.const1_rows] = mask
            V[self.dff_rows] = state
            _apply_fix(flat, fixes.get(0))
            for step, fix in steps:
                _run_level(V, step, mask)
                if fix is not None:
                    _apply_fix(flat, fix)
            state = V[self.dff_d_rows]
            _apply_fix(state.reshape(-1), state_fix)
            if cycle in mark_set:
                S = state[obs_pos]
                golden = (S[:, 0] & _np.uint64(1)).astype(bool)
                diff = _np.bitwise_or.reduce(
                    S ^ _np.where(golden[:, None], mask, _np.uint64(0)),
                    axis=0,
                )
                hits = self.int_from_words(diff) & alive
                if hits:
                    for b, f in enumerate(batch):
                        if (hits >> (b + 1)) & 1:
                            result[f] = cycle
                    alive &= ~hits
                    if not alive:
                        break

    def detect_masks(
        self,
        faults: Sequence[Fault],
        pi_values: Mapping[str, int],
        state: Mapping[str, int] | None = None,
        width: int = 64,
    ) -> dict[Fault, int]:
        """Per-fault packed masks of detecting patterns, one capture cycle.

        The single-cycle analogue of :func:`transition_pair_detect`:
        the good machine evaluates once for the whole packed block and
        the faults run as one-cycle fault batches.  Bit *p* of the
        returned mask is set when pattern *p* of the block detects the
        fault at an output or a scan flip-flop's captured state —
        exactly the condition the interpreter's
        ``_observable_difference`` checks.  Used by the random-pattern
        pre-drop stage of
        :func:`repro.gatelevel.test_generation.generate_tests`.
        """
        mask = self._mask_words(width)
        sw = self._state_matrix(state, width)
        VG, gnxt = self.good_cycle(self._pi_matrix(pi_values, width), sw,
                                   width)
        known = [f for f in faults if f.net in self.index]
        diff = self._capture_masks(*self._stuck(known, mask), VG, gnxt, sw,
                                   mask)
        out = dict.fromkeys(faults, 0)
        out.update(zip(known, map(self.int_from_words, diff)))
        return out

    def _capture_masks(self, sites, words, VG, gnxt, state, mask):
        """``(n, n_words)`` detection masks of one capture cycle from
        present ``state``, whose good values and next state are ``VG``
        and ``gnxt``; faulty machine *i* forces row ``sites[i]`` to
        ``words[i]``."""
        # Each batch names its machines by their row in the result.
        batches, scratch, mask_b = self._batches(
            range(len(sites)), sites, words, state, FF_ANY, mask)
        diff = _np.zeros_like(words)
        for batch in batches:
            diff[batch.faults] = self._batch_step(batch, scratch, mask_b,
                                                  VG, gnxt)
        return diff

    # ------------------------------------------------------------------
    # fault batches

    def _stuck(self, faults: Sequence[Fault], mask):
        """``(sites, words)`` of stuck-at ``faults`` on known nets."""
        sites = _np.array([self.index[f.net] for f in faults],
                          dtype=_np.int64)
        words = _np.array([f.stuck_at for f in faults], dtype=_np.uint64)
        return sites, words[:, None] * mask

    def fault_batch_size(self, width: int) -> int:
        """Faults one fault batch holds at ``width`` patterns: as many
        ``(n_gates, n_words)`` blocks as fit :data:`BATCH_SCRATCH_WORDS`,
        never fewer than :data:`FAULT_BATCH`."""
        return max(FAULT_BATCH,
                   BATCH_SCRATCH_WORDS // (self.n_gates * _n_words(width)))

    def _batches(self, faults, sites, words, state, stop: int, mask):
        """``faults`` as batches from one shared present ``state``, plus
        the flat scratch and tiled mask every batch step runs on.

        Sorting by site keeps each batch's union of cones tight, and a
        batch holds :meth:`fault_batch_size` faults; one buffer serves
        every batch, a narrower one as a leading view.
        """
        nw = len(mask)
        per = self.fault_batch_size(64 * nw)
        order = _np.argsort(sites, kind="stable")
        faults = [faults[i] for i in order.tolist()]
        sites, words = sites[order], words[order]
        widest = min(per, len(faults))
        batches = [
            self._make_batch(faults[i:i + per], sites[i:i + per],
                             words[i:i + per], state, stop)
            for i in range(0, len(faults), per)
        ]
        return (batches,
                _np.zeros(self.n_gates * widest * nw, dtype=_np.uint64),
                _np.tile(mask, widest))

    def _make_batch(self, faults, sites, words, state,
                    stop: int) -> _FaultBatch:
        """Compile one fault batch: union-of-cones program plus
        per-fault forcing/observation bookkeeping.

        Fault *b* forces gate row ``sites[b]`` to ``words[b]``, a row of
        the ``(size, n_words)`` ``words``.  ``state`` is the faults'
        present state: ``(n_dffs, n_words)`` shared by every fault, or
        one ``n_words`` column block each.

        ``stop`` ends the union (see :meth:`cone`).  A single capture
        cycle stops at every flip-flop.  A multi-cycle batch stops at
        scan flip-flops other than the batch's own sites --
        :meth:`fault_simulate_cycles` reloads those from the good
        machine every cycle, so no fault effect leaves through them --
        and crosses non-scan flip-flops, whose faulty state carries
        into the next cycle.
        """
        size, nw = words.shape
        seen = self.cone(sites.tolist(), stop)
        # Where fault b's words go in a row of the (., size*nw) batch
        # arrays: columns b*nw .. b*nw + nw - 1.
        cols = _np.arange(size * nw).reshape(size, nw)
        at = sites[:, None] * (size * nw) + cols
        # Site re-forcings, keyed by the level whose evaluation would
        # overwrite them (source-row sites are never overwritten).
        by_level: dict[int, list[int]] = {}
        dff_blocks: list[int] = []
        for blk, site in enumerate(sites.tolist()):
            if self.opcode[site] >= OP_BUF:
                by_level.setdefault(int(self.level[site]), []).append(blk)
            elif site in self.dff_pos:
                dff_blocks.append(blk)
        fixes = {lvl: (at[blks].ravel(), words[blks].ravel())
                 for lvl, blks in by_level.items()}
        levels = [(step, fixes.get(step.level))
                  for step in self._kept_levels(seen)]
        obs_out, obs_scan = self._observed(seen)
        # A flip-flop site captures its forced words as next state.
        at_state = _np.array(
            [self.dff_pos[int(sites[blk])] for blk in dff_blocks],
            dtype=_np.int64,
        )[:, None] * (size * nw) + cols[dff_blocks]
        ndff = len(self.dff_rows)
        state = _np.broadcast_to(
            state.reshape(ndff, state.shape[1] // nw, nw),
            (ndff, size, nw),
        ).reshape(ndff, size * nw)
        return _FaultBatch(
            list(faults), sites, words, levels,
            (at.ravel(), words.ravel()),
            (at_state.ravel(), words[dff_blocks].ravel()), obs_out,
            obs_scan, state,
        )

    def _batch_step(self, batch: _FaultBatch, scratch, mask_b, VG,
                    gnxt):
        """One clock edge for every fault block in ``batch``, as
        whole-batch numpy operations on a leading view of the flat
        ``scratch`` (``mask_b``: the word mask tiled per block).

        Returns the ``(size, n_words)`` detection masks: the patterns
        where block *b* differs from the good machine (``VG``,
        ``gnxt``) at an output or in a scan flip-flop's captured state.
        Each block's next state lands in ``batch.state``.
        """
        B, nw = batch.words.shape
        cols = B * nw
        VS = scratch[:self.n_gates * cols].reshape(self.n_gates, cols)
        VS.reshape(self.n_gates, B, nw)[:] = VG[:, None, :]
        VS[self.dff_rows] = batch.state
        flat = VS.reshape(-1)
        flat[batch.force[0]] = batch.force[1]
        mask = mask_b[:cols]
        for step, fix in batch.levels:
            _run_level(VS, step, mask)
            if fix is not None:
                flat[fix[0]] = fix[1]
        bnxt = VS[self.dff_d_rows]
        bnxt.reshape(-1)[batch.force_state[0]] = batch.force_state[1]
        batch.state = bnxt
        diff = _np.zeros((B, nw), dtype=_np.uint64)
        for rows, faulty, good in ((batch.obs_out, VS, VG),
                                   (batch.obs_scan, bnxt, gnxt)):
            if len(rows):
                diff |= _np.bitwise_or.reduce(
                    faulty[rows].reshape(-1, B, nw) ^ good[rows, None, :],
                    axis=0,
                )
        return diff

    def _repack(self, batches: Sequence[_FaultBatch],
                per: int) -> list[_FaultBatch]:
        """The live faults of ``batches`` rebuilt into batches of
        ``per``, in site order, each carrying its faulty state."""
        nw = batches[0].words.shape[1]
        ndff = len(self.dff_rows)
        live = [(b, _np.flatnonzero(b.alive)) for b in batches]
        faults = [b.faults[i] for b, at in live for i in at.tolist()]
        sites = _np.concatenate([b.sites[at] for b, at in live])
        words = _np.concatenate([b.words[at] for b, at in live])
        state = _np.concatenate(
            [b.state.reshape(ndff, b.size, nw)[:, at]
             .reshape(ndff, len(at) * nw) for b, at in live], axis=1)
        return [
            self._make_batch(faults[i:i + per], sites[i:i + per],
                             words[i:i + per],
                             state[:, i * nw:(i + per) * nw], FF_SCAN)
            for i in range(0, len(faults), per)
        ]

    # ------------------------------------------------------------------
    # fault simulation

    def fault_simulate_cycles(
        self,
        faults: Sequence[Fault],
        pi_sequence: Sequence[Mapping[str, int]] | None,
        width: int = 64,
        initial_state: Mapping[str, int] | None = None,
        pi_words=None,
    ) -> dict[Fault, int | None]:
        """Array-native fault-batched PPSFP; bit-identical to the
        interpreter's :func:`repro.gatelevel.fault_sim.fault_simulate_cycles`.

        Every fault retires at its first detecting cycle.  ``pi_words``
        optionally supplies the patterns pre-packed as a ``(cycles,
        inputs, n_words)`` array (see :meth:`pack_pi_sequence`); shard
        workers pass a zero-copy shared-memory view here, skipping
        per-worker re-packing.
        """
        mask = self._mask_words(width)
        nw = _n_words(width)
        known = [f for f in faults if f.net in self.index]
        detected: dict[Fault, int | None] = dict.fromkeys(faults)
        if pi_words is not None:
            pw_seq = list(pi_words)
        else:
            pw_seq = [self._pi_matrix(piv, width)
                      for piv in (pi_sequence or ())]
        if not known or not pw_seq:
            return detected
        good_state = self._state_matrix(initial_state, width)
        batches, scratch, mask_b = self._batches(
            known, *self._stuck(known, mask), good_state, FF_SCAN, mask)
        per = batches[0].size  # repacks refill to the initial width
        sp = self.scan_pos
        for cycle, pw in enumerate(pw_seq):
            VG, good_state = self.good_cycle(pw, good_state, width)
            for batch in batches:
                hit = self._batch_step(
                    batch, scratch, mask_b, VG, good_state,
                ).any(axis=1) & batch.alive
                for blk in _np.flatnonzero(hit).tolist():
                    detected[batch.faults[blk]] = cycle
                batch.alive &= ~hit
                # Scan reload: scanned state follows the good machine.
                # A scan FF carrying the fault itself needs no
                # exception: a site is forced again right after state
                # loads, so its stored state is unread.  A detected
                # block still evaluates until the batch is repacked or
                # dies, but nothing reads its columns again.
                if len(sp):
                    batch.state.reshape(-1, batch.size, nw)[sp] = \
                        good_state[sp, None, :]
            batches = [b for b in batches if b.alive.any()]
            if not batches:
                break
            live = sum(int(_np.count_nonzero(b.alive)) for b in batches)
            if (cycle + 1 < len(pw_seq) and live
                    <= REPACK_LIVE_SHARE * sum(b.size for b in batches)):
                batches = self._repack(batches, per)
        return detected


# ---------------------------------------------------------------------------
# per-netlist memo entries

def compiled(netlist: Netlist) -> CompiledNetlist:
    """The compiled form of ``netlist``, kept in its
    :meth:`~repro.gatelevel.gates.Netlist.derived` memo, so in-place
    growth or output changes trigger a recompile."""
    memo = netlist.derived()
    comp = memo.get("compiled")
    if comp is None:
        comp = memo["compiled"] = CompiledNetlist(netlist)
    return comp


#: per-process content-hash -> Netlist registry.  Holding the netlist
#: keeps its derived memo -- and with it the :class:`CompiledNetlist`
#: -- alive, so a warm worker that has seen a design serves every later
#: shard/job from the compiled program without ever re-running
#: levelization -- and, under the shm transport, without even
#: unpickling the body again.
_BY_HASH: "OrderedDict[str, Netlist]" = OrderedDict()
_HASH_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def netlist_hash(netlist: Netlist) -> str:
    """The content digest of ``netlist``, memoised in its derived memo.

    The digest follows the recipe-hash discipline of
    :mod:`repro.flow.cache`: a sha256 over a canonical rendering of the
    gate graph (name, kind, fanins, scan flag, in insertion order) plus
    the output list -- equal-content netlists hash equal across
    processes, unlike ``id``- or pickle-byte-based keys.
    """
    memo = netlist.derived()
    digest = memo.get("digest")
    if digest is None:
        h = hashlib.sha256()
        h.update(netlist.name.encode())
        for g in netlist:
            h.update(
                f"\n{g.name}|{g.kind}|{','.join(g.inputs)}|{int(g.scan)}"
                .encode()
            )
        h.update(("\nouts:" + ",".join(netlist.outputs)).encode())
        digest = memo["digest"] = h.hexdigest()
    return digest


def netlist_blob(netlist: Netlist) -> tuple[str, bytes]:
    """``(content digest, pickled body)`` for ``netlist``, memoised
    like :func:`netlist_hash`, so repeated sharded dispatches of one
    netlist pickle it exactly once."""
    memo = netlist.derived()
    blob = memo.get("blob")
    if blob is None:
        blob = memo["blob"] = pickle.dumps(
            netlist, protocol=pickle.HIGHEST_PROTOCOL)
    return netlist_hash(netlist), blob


def resolve_netlist(digest: str, payload) -> Netlist:
    """The process-local netlist for ``digest``, decoding at most once.

    ``payload`` supplies the body on a cache miss: a :class:`Netlist`
    or a zero-argument callable returning one (a shard worker's lazy
    :func:`repro.flow.shm.fetch`, so a warm worker never reads the
    payload on a hit).  The registry is an LRU bounded by
    :data:`repro.flow.shm.WORKER_CACHE_SIZE`.
    """
    hit = _BY_HASH.get(digest)
    if hit is not None:
        _BY_HASH.move_to_end(digest)
        _HASH_STATS["hits"] += 1
        return hit
    _HASH_STATS["misses"] += 1
    if callable(payload):
        payload = payload()
    if not isinstance(payload, Netlist):
        raise NetlistError(
            f"no cached netlist for {digest[:12]} and no body provided"
        )
    _BY_HASH[digest] = payload
    from repro.flow import shm

    while len(_BY_HASH) > shm.WORKER_CACHE_SIZE:
        _BY_HASH.popitem(last=False)
        _HASH_STATS["evictions"] += 1
    return payload


@contextmanager
def lend_netlist(digest: str, netlist: Netlist) -> Iterator[None]:
    """Hold ``netlist`` in the content-hash registry under ``digest``
    while the block runs.

    A shard worker forked inside the block starts with the registry as
    it stands, so :func:`resolve_netlist` hands it this very object,
    derived memo (compiled program, structural analysis, PODEM context)
    included, without fetching, unpickling or compiling anything; an
    in-process fallback resolves to it too.  An entry already under
    ``digest`` is left alone.  The lent entry goes when the block exits,
    normally or by an exception, so the registry pins nothing.
    """
    if digest in _BY_HASH:
        yield
        return
    _BY_HASH[digest] = netlist
    try:
        yield
    finally:
        if _BY_HASH.get(digest) is netlist:
            _BY_HASH.pop(digest, None)


def netlist_cache_stats() -> dict[str, int]:
    """Per-process hash-cache counters (asserted by the dispatch tests)."""
    return dict(_HASH_STATS, entries=len(_BY_HASH))


# ---------------------------------------------------------------------------
# transition-fault support (vector pairs)

def transition_pair_detect(
    netlist: Netlist,
    pair: tuple[Mapping[str, int], Mapping[str, int]],
    fault_sites: Sequence[tuple[str, bool]],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
) -> dict[tuple[str, bool], int]:
    """Detection masks for transition faults under one vector pair.

    ``fault_sites`` is a list of ``(net, rising)`` tuples; the return
    maps each to the packed mask of detecting patterns.  The good
    machine runs once per pair (the interpreter re-ran it per fault);
    the faults whose slow transition launches in some pattern run as
    one-cycle fault batches of the launch cycle, each site forced to
    its late value.
    """
    k = compiled(netlist)
    v1, v2 = pair
    mask = k._mask_words(width)
    VG1, gs1 = k.good_cycle(k._pi_matrix(v1, width),
                            k._state_matrix(initial_state, width), width)
    VG2, gs2 = k.good_cycle(k._pi_matrix(v2, width), gs1, width)
    known = [f for f in fault_sites if f[0] in k.index]
    sites = _np.array([k.index[net] for net, _r in known], dtype=_np.int64)
    before, after = VG1[sites], VG2[sites]
    rising = _np.array([r for _n, r in known], dtype=bool)[:, None]
    slow = _np.where(rising, ~before & after, before & ~after) & mask
    # The late (still-old) value wherever the slow transition launches.
    late = after ^ slow
    act = slow.any(axis=1)
    diff = k._capture_masks(sites[act], late[act], VG2, gs2, gs1, mask)
    out = dict.fromkeys(fault_sites, 0)
    out.update(zip([f for f, a in zip(known, act.tolist()) if a],
                   map(k.int_from_words, diff & slow[act])))
    return out
