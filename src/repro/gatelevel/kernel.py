"""Compiled bit-parallel fault-simulation kernel.

The reference interpreter (:mod:`repro.gatelevel.simulate`) re-walks a
name-keyed gate dict per gate, per fault, per cycle.  This module
compiles a :class:`~repro.gatelevel.gates.Netlist` **once** into a flat
integer-indexed program and evaluates it over numpy ``uint64`` words:

* **Levelized instruction stream** — gates are indexed in topological
  order and grouped by ``(level, opcode)``; one numpy call evaluates
  every same-kind gate of a level (``V[dst] = V[a] & V[b]``), so the
  per-gate Python overhead of the interpreter disappears.
* **Wide words** — net values are ``(n_words,)`` vectors of ``uint64``,
  simulating ``width = 64 * n_words`` packed patterns per pass instead
  of capping at 64.
* **Cone-restricted faulty evaluation** — for each fault site the
  kernel precomputes the fanout closure the fault can change, and the
  faulty machine re-evaluates only the gates in it, splicing
  good-machine values everywhere else; a scratch/restore discipline
  keeps the per-fault cost proportional to the cone, not the netlist.
  A single capture cycle (:meth:`CompiledNetlist.cone`) stops the
  closure at every flip-flop: a reached flip-flop is an observation
  sink (its captured next state), but its output is present state the
  fault cannot change within the cycle.  Multi-cycle fault batches stop
  only at scan flip-flops, which reload from the good machine every
  cycle, and still cross non-scan flip-flops.  Both closures gather
  their kept instructions through one compile-time row -> (group,
  position) map, so building a cone costs its size, not the program's.
* **Fault-batched blocks** — fault simulation packs faulty machines
  side by side along the word axis (fault *b* owns columns
  ``b*n_words:(b+1)*n_words``) and evaluates the *union* of their cones
  in one pass, re-forcing each site inside its own block when its level
  completes.  Blocks are column-disjoint, and a row outside fault *b*'s
  cone recomputes to good-machine values in block *b* (its inputs are
  good there), so per-block detection against the union's observation
  rows is exact.  A batch holds as many faults as fit
  :data:`BATCH_SCRATCH_WORDS` of scratch (never fewer than
  :data:`FAULT_BATCH`), and once detection has thinned the live columns
  to :data:`REPACK_LIVE_SHARE` of those held, the survivors are rebuilt
  into fresh batches, each carrying its faulty state.  Both keep each
  numpy call wide, amortising the per-call overhead that would
  otherwise dominate on per-fault-sized arrays (see
  ``docs/fault_batches.md``).

Results are bit-identical to the interpreter (property-tested in
``tests/test_kernel_equivalence.py``): stuck-at forcing applies after a
net evaluates, scan flip-flops observe each cycle and reload from the
good machine, and a fault on a scan FF keeps corrupting its own state.

The kernel degrades gracefully: when numpy is unavailable,
:func:`have_kernel` is False and callers fall back to the interpreter.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from typing import Mapping, Sequence
from weakref import WeakKeyDictionary

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import COMBINATIONAL_KINDS, Netlist, NetlistError


def have_kernel() -> bool:
    """True when the compiled kernel can run (numpy importable)."""
    return _np is not None


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


def _n_words(width: int) -> int:
    return (width + 63) // 64


#: the fewest faulty machines a batched pass evaluates side by side
FAULT_BATCH = 32

#: ``uint64`` words of ``(n_gates, B * n_words)`` scratch that size a
#: fault batch (1 MiB): a small design gets batches wider than
#: :data:`FAULT_BATCH`, a large one stays at it
BATCH_SCRATCH_WORDS = 1 << 17

#: survivors are repacked at a cycle boundary once the live fault
#: columns have fallen to this share of the columns the batches hold
REPACK_LIVE_SHARE = 0.5

#: packed columns per fault-parallel *sequential* pass (column 0 is the
#: golden machine, so each pass carries ``SEQ_FAULT_COLUMNS - 1`` faults)
SEQ_FAULT_COLUMNS = 256

#: per-row flip-flop kinds, which are also :meth:`CompiledNetlist._closure`
#: stop levels: a single capture cycle stops at every flip-flop
#: (``FF_ANY``), a multi-cycle fault batch only at scan ones (``FF_SCAN``)
FF_ANY, FF_SCAN = 1, 2


class _FaultBatch:
    """Faulty machines sharing one pass over a ``(n_gates, size*nw)``
    scratch view, fault *b* in word columns ``b*nw:(b+1)*nw``.

    ``levels`` is the union-of-cones program grouped by level.  A
    forcing is a pair ``(flat indices, words)`` that writes each fault's
    stuck words into its own columns of a C-ordered array with rows
    ``size*nw`` words wide: ``force`` writes every site into the scratch
    before the program runs, each level carries the forcing of the
    sites it evaluates (or None), and ``force_state`` writes the next
    state of flip-flop sites.  ``state`` holds every flip-flop's faulty
    present state.
    """

    __slots__ = ("faults", "size", "alive", "levels", "force",
                 "force_state", "obs_out", "obs_scan", "state")

    def __init__(self, faults, levels, force, force_state, obs_out,
                 obs_scan, state) -> None:
        self.faults = faults
        self.size = len(faults)
        self.alive = _np.ones(self.size, dtype=bool)
        self.levels = levels          # [(instructions, forcing or None)]
        self.force = force            # every site, into the scratch
        self.force_state = force_state  # flip-flop sites, into bnxt
        self.obs_out = obs_out        # union observation: output rows
        self.obs_scan = obs_scan      # union observation: scan DFF pos
        self.state = state            # (n_dffs, size*nw) faulty state


class _Cone:
    """Per-fault-site restricted program: the site's one-cycle closure."""

    __slots__ = ("site", "program", "touched", "obs_out", "obs_scan",
                 "obs_d", "site_obs")

    def __init__(self, site: int, program: list, touched, obs_out,
                 obs_scan, obs_d, site_obs: int | None) -> None:
        self.site = site
        self.program = program        # [(op, dst, a, b, c)] in level order
        self.touched = touched        # comb gate rows the faulty eval writes
        self.obs_out = obs_out        # output rows that can differ
        self.obs_scan = obs_scan      # scan-DFF positions that can differ
        self.obs_d = obs_d            # their D-input rows
        self.site_obs = site_obs      # index of the site in obs_scan


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


class CompiledNetlist:
    """A :class:`Netlist` levelized into a flat numpy program."""

    def __init__(self, netlist: Netlist) -> None:
        if _np is None:
            raise NetlistError("compiled kernel requires numpy")
        # Fail on malformed structure here, with a NetlistError naming
        # the offending net, rather than as a numpy shape error three
        # layers down in the levelized program.
        netlist.validate()
        self.netlist = netlist
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

        # Fanout adjacency (a DFF "consumes" its D input, which folds
        # the cross-cycle edge D -> state into the closure), and each
        # row's flip-flop kind, where closures stop (see :meth:`_closure`).
        consumers: list[list[int]] = [[] for _ in range(n)]
        for i, name in enumerate(order):
            g = netlist.gate(name)
            for src in g.inputs:
                consumers[self.index[src]].append(i)
        self._consumers = consumers
        self._ff_kind = bytearray(n)
        for row, scan in zip(dff_rows, scan_flags):
            self._ff_kind[row] = FF_SCAN if scan else FF_ANY
        self._cones: dict[int, _Cone] = {}
        self._level_program_cache: list[tuple[int, list]] | None = None

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

    def _run_program(self, V, program, mask) -> None:
        for op, dst, a, b, c in program:
            if op == OP_BUF:
                V[dst] = V[a]
            elif op == OP_NOT:
                V[dst] = ~V[a] & mask
            elif op == OP_AND:
                V[dst] = V[a] & V[b]
            elif op == OP_OR:
                V[dst] = V[a] | V[b]
            elif op == OP_NAND:
                V[dst] = ~(V[a] & V[b]) & mask
            elif op == OP_NOR:
                V[dst] = ~(V[a] | V[b]) & mask
            elif op == OP_XOR:
                V[dst] = V[a] ^ V[b]
            elif op == OP_XNOR:
                V[dst] = ~(V[a] ^ V[b]) & mask
            else:  # OP_MUX: (s & a) | (~s & b); operands stay masked
                s = V[a]
                V[dst] = (s & V[b]) | (~s & V[c])

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
        cur = 0
        for op, dst, a, b, c in self.program:
            lvl = int(self.level[dst[0]])
            while cur < lvl:
                cur += 1
                for row, words in by_level.get(cur, ()):
                    V[row] = words
            # A forced net at this level must not be overwritten by its
            # own gate evaluation: re-apply after the group runs.
            self._run_program(V, [(op, dst, a, b, c)], mask)
            for row, words in by_level.get(lvl, ()):
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

    def _closure(self, roots, stop: int) -> set[int]:
        """Rows reachable from ``roots`` along fanout edges.

        A reached flip-flop of kind ``stop`` or above joins the closure
        -- as an observation sink -- but is not expanded; roots always
        expand.
        """
        consumers, kind = self._consumers, self._ff_kind
        seen = set(roots)
        stack = list(seen)
        while stack:
            for k in consumers[stack.pop()]:
                if k not in seen:
                    seen.add(k)
                    if kind[k] < stop:
                        stack.append(k)
        return seen

    def _kept_levels(self, rows) -> list[tuple[int, list]]:
        """:attr:`program` restricted to the gates in ``rows``, as
        ``[(level, [instructions])]`` in program order.

        Each row's position in the concatenated program comes from the
        compile-time map, so one sort and one gather per operand cut
        every kept instruction at once; the cost follows ``len(rows)``,
        not the program.  A group kept whole is reused as is.
        """
        at = self._row_flat[
            _np.fromiter(rows, dtype=_np.int64, count=len(rows))
        ]
        at = _np.sort(at[at >= 0])
        if not len(at):
            return []
        grp = self._flat_group[at]
        cut = (_np.flatnonzero(grp[1:] != grp[:-1]) + 1).tolist()
        dst, a, b, c = (arr[at] for arr in self._flat)
        levels: list[tuple[int, list]] = []
        for g, s, e in zip(grp[[0] + cut].tolist(), [0] + cut,
                           cut + [len(at)]):
            instr = self.program[g]
            op = instr[0]
            if e - s < len(instr[1]):
                instr = (op, dst[s:e], a[s:e],
                         b[s:e] if op >= OP_AND else None,
                         c[s:e] if op == OP_MUX else None)
            lvl = self._group_level[g]
            if not levels or levels[-1][0] != lvl:
                levels.append((lvl, []))
            levels[-1][1].append(instr)
        return levels

    def _observed(self, rows):
        """``(output rows, scan-DFF positions)`` that lie in ``rows``,
        in output-list and position order."""
        member = _np.zeros(self.n_gates, dtype=bool)
        member[_np.fromiter(rows, dtype=_np.int64, count=len(rows))] = True
        return (self.output_rows[member[self.output_rows]],
                self.scan_pos[member[self.dff_rows[self.scan_pos]]])

    def cone(self, site: int) -> _Cone:
        """The single-capture-cycle fanout closure of gate row ``site``
        (cached).

        It stops at every flip-flop: within one cycle a flip-flop's
        output is present state the fault cannot change, so a reached
        flip-flop only observes (captures) the fault.  A flip-flop site
        still expands, since the fault forces its output.
        """
        c = self._cones.get(site)
        if c is not None:
            return c
        seen = self._closure((site,), FF_ANY)
        program = [
            instr
            for _lvl, instrs in self._kept_levels(seen - {site})
            for instr in instrs
        ]
        touched = (_np.sort(_np.concatenate([i[1] for i in program]))
                   if program else _np.zeros(0, dtype=_np.int64))
        obs_out, obs_scan = self._observed(seen)
        site_obs = _np.flatnonzero(
            obs_scan == self.dff_pos.get(site, -1)
        )
        cone = _Cone(
            site, program, touched, obs_out, obs_scan,
            self.dff_d_rows[obs_scan],
            int(site_obs[0]) if len(site_obs) else None,
        )
        self._cones[site] = cone
        return cone

    def _faulty_cycle(self, VS, cone: _Cone, forced_words, mask) -> None:
        """Evaluate the faulty machine into scratch ``VS``.

        ``VS`` must hold this cycle's good-machine values on entry
        (present state included); only the site and the cone's gates
        are rewritten.  Call :meth:`_restore` before reusing ``VS`` as
        good values.
        """
        VS[cone.site] = forced_words
        self._run_program(VS, cone.program, mask)

    def _restore(self, VS, VG, cone: _Cone) -> None:
        if len(cone.touched):
            VS[cone.touched] = VG[cone.touched]
        VS[cone.site] = VG[cone.site]

    def diff_words(self, VS, VG, gnxt, cone: _Cone, forced_words):
        """Packed mask of patterns where the fault is observable: at an
        output, or in a scan flip-flop's captured state (a fault on the
        flip-flop itself captures its stuck value)."""
        nw = VS.shape[1]
        diff = _np.zeros(nw, dtype=_np.uint64)
        if len(cone.obs_out):
            diff |= _np.bitwise_or.reduce(
                VS[cone.obs_out] ^ VG[cone.obs_out], axis=0
            )
        if len(cone.obs_scan):
            bnxt = VS[cone.obs_d]
            if cone.site_obs is not None:
                bnxt[cone.site_obs] = forced_words
            diff |= _np.bitwise_or.reduce(
                bnxt ^ gnxt[cone.obs_scan], axis=0
            )
        return diff

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
        initial_state: Mapping[str, int] | None = None,
    ) -> dict[int, dict[str, int]]:
        """Free-run with constant inputs; snapshot DFF state at the
        given cycle counts (cycle 1 = state after one clock edge)."""
        forced_rows = None
        if forced:
            forced_rows = {
                self.index[name]: self.words_from_int(v, width)
                for name, v in forced.items() if name in self.index
            }
        pw = self._pi_matrix(pi_values, width)
        state = self._state_matrix(initial_state, width)
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

    def _level_program(self) -> list[tuple[int, list]]:
        """:attr:`program` regrouped as ``[(level, [instructions])]``.

        The fault-parallel sequential path re-forces fault columns once
        per level, so it wants level boundaries rather than the flat
        (level, opcode) stream.  Built once per compile.
        """
        cached = self._level_program_cache
        if cached is None:
            cached = []
            for instr in self.program:
                lvl = int(self.level[instr[1][0]])
                if not cached or cached[-1][0] != lvl:
                    cached.append((lvl, []))
                cached[-1][1].append(instr)
            self._level_program_cache = cached
        return cached

    def sequential_fault_detect(
        self,
        faults: Sequence[Fault],
        pi_values: Mapping[str, int],
        checkpoints: Sequence[int],
        observe: Sequence[str],
        forced: Mapping[str, int] | None = None,
        initial_state: Mapping[str, int] | None = None,
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
        larger fault lists are processed in successive batches.
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
        per_batch = max(1, int(columns or SEQ_FAULT_COLUMNS) - 1)
        for start in range(0, len(known), per_batch):
            self._seq_fault_batch(
                known[start:start + per_batch], pi_values, marks,
                obs_pos, forced, initial_state, result,
            )
        return result

    def _seq_fault_batch(self, batch, pi_values, marks, obs_pos, forced,
                         initial_state, result) -> None:
        """One packed free-run: golden in column 0, fault *b* in column
        ``b + 1``; first-detection checkpoints land in ``result``."""
        nbits = len(batch) + 1
        nw = _n_words(nbits)
        all1 = _np.uint64(0xFFFFFFFFFFFFFFFF)
        ones = _np.full(nw, all1)
        zeros = _np.zeros(nw, dtype=_np.uint64)

        # Broadcast packing: every column runs the same session, so a
        # pin held at 1 is all-ones across the whole word vector.
        pw = _np.zeros((len(self.input_names), nw), dtype=_np.uint64)
        for k, name in enumerate(self.input_names):
            if pi_values.get(name, 0) & 1:
                pw[k] = ones
        state = _np.zeros((len(self.dff_names), nw), dtype=_np.uint64)
        if initial_state:
            for p, name in enumerate(self.dff_names):
                if initial_state.get(name, 0) & 1:
                    state[p] = ones

        # Session-level pin forcing (broadcast, golden included),
        # applied with good_cycle's level-completion semantics.
        forced_by_level: dict[int, list[tuple[int, object]]] = {}
        forced_state: list[tuple[int, object]] = []
        if forced:
            for name, v in forced.items():
                row = self.index.get(name)
                if row is None:
                    continue
                words = ones if v & 1 else zeros
                forced_by_level.setdefault(
                    int(self.level[row]), []
                ).append((row, words))
                p = self.dff_pos.get(row)
                if p is not None:
                    forced_state.append((p, words))

        # Per-site column fixes: fault b's column of its net is re-set
        # to the stuck value whenever the row is (re)written.  Multiple
        # faults on one net (s-a-0 and s-a-1) share a masked update.
        col_clear: dict[int, int] = {}
        col_set: dict[int, int] = {}
        for b, f in enumerate(batch):
            site = self.index[f.net]
            bit = 1 << (b + 1)
            col_clear[site] = col_clear.get(site, 0) | bit
            col_set[site] = col_set.get(site, 0) | (
                bit if f.stuck_at else 0
            )
        source_fixes: list[tuple] = []
        level_fixes: dict[int, list[tuple]] = {}
        state_fixes: list[tuple] = []
        width = 64 * nw
        for site, clear_bits in col_clear.items():
            keep = ~self.words_from_int(clear_bits, width)
            setw = self.words_from_int(col_set[site], width)
            fix = (site, keep, setw)
            if int(self.opcode[site]) >= OP_BUF:
                level_fixes.setdefault(
                    int(self.level[site]), []
                ).append(fix)
            else:
                source_fixes.append(fix)
            p = self.dff_pos.get(site)
            if p is not None:
                state_fixes.append((p, keep, setw))

        alive = (1 << nbits) - 2  # columns 1..len(batch)
        levels = self._level_program()
        V = _np.zeros((self.n_gates, nw), dtype=_np.uint64)
        mark_set = set(marks)
        for cycle in range(1, marks[-1] + 1):
            V[:] = 0
            if len(self.input_rows):
                V[self.input_rows] = pw
            if len(self.const1_rows):
                V[self.const1_rows] = ones
            if len(self.dff_rows):
                V[self.dff_rows] = state
            for row, words in forced_by_level.get(0, ()):
                V[row] = words
            for site, keep, setw in source_fixes:
                V[site] = (V[site] & keep) | setw
            for lvl, instrs in levels:
                self._run_program(V, instrs, ones)
                for row, words in forced_by_level.get(lvl, ()):
                    V[row] = words
                for site, keep, setw in level_fixes.get(lvl, ()):
                    V[site] = (V[site] & keep) | setw
            if len(self.dff_rows):
                nxt = V[self.dff_d_rows].copy()
                for p, words in forced_state:
                    nxt[p] = words
                for p, keep, setw in state_fixes:
                    nxt[p] = (nxt[p] & keep) | setw
                state = nxt
            self._pattern_cycles = getattr(
                self, "_pattern_cycles", 0
            ) + bin(alive).count("1")
            if cycle in mark_set:
                S = state[obs_pos]
                golden = (S[:, 0] & _np.uint64(1)).astype(bool)
                bcast = _np.where(golden, all1, _np.uint64(0))
                diff = _np.bitwise_or.reduce(
                    S ^ bcast[:, None], axis=0
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
        each fault replays only its cone.  Bit *p* of the returned mask
        is set when pattern *p* of the block detects the fault at an
        output or a scan flip-flop's captured state — exactly the
        condition the interpreter's ``_observable_difference`` checks.
        Used by the random-pattern pre-drop stage of
        :func:`repro.gatelevel.test_generation.generate_tests`.
        """
        mask = self._mask_words(width)
        pw = self._pi_matrix(pi_values, width)
        sw = self._state_matrix(state, width)
        VG, gnxt = self.good_cycle(pw, sw, width)
        VS = VG.copy()
        nw = _n_words(width)
        zero = _np.zeros(nw, dtype=_np.uint64)
        out: dict[Fault, int] = {}
        for f in faults:
            site = self.index.get(f.net)
            if site is None:
                out[f] = 0
                continue
            forced_words = zero if f.stuck_at == 0 else mask
            cone = self.cone(site)
            self._faulty_cycle(VS, cone, forced_words, mask)
            diff = self.diff_words(VS, VG, gnxt, cone, forced_words)
            self._restore(VS, VG, cone)
            out[f] = self.int_from_words(diff)
        return out

    # ------------------------------------------------------------------
    # fault simulation

    def _make_batch(self, faults: Sequence[Fault], width: int, state,
                    mask) -> _FaultBatch:
        """Compile one fault batch: union-of-cones program plus
        per-fault forcing/observation bookkeeping.

        ``state`` is the faults' present state: ``(n_dffs, n_words)``
        shared by every fault, or one ``n_words`` column block each.

        The union stops at scan flip-flops other than the batch's own
        sites -- :meth:`_batch_cycle` reloads those from the good
        machine every cycle, so no fault effect leaves through them --
        and crosses non-scan flip-flops, whose faulty state carries
        into the next cycle.
        """
        nw = _n_words(width)
        size = len(faults)
        sites = [self.index[f.net] for f in faults]
        seen = self._closure(sites, FF_SCAN)
        # Fault b's forced words, and where they go in a row of the
        # (., size*nw) batch arrays: columns b*nw .. b*nw + nw - 1.
        words = _np.array([f.stuck_at for f in faults],
                          dtype=_np.uint64)[:, None] * mask
        cols = _np.arange(size * nw).reshape(size, nw)
        at = _np.array(sites, dtype=_np.int64)[:, None] * (size * nw) + cols
        # Site re-forcings, keyed by the level whose evaluation would
        # overwrite them (source-row sites are never overwritten).
        by_level: dict[int, list[int]] = {}
        dff_blocks: list[int] = []
        for blk, site in enumerate(sites):
            if self.opcode[site] >= OP_BUF:
                by_level.setdefault(int(self.level[site]), []).append(blk)
            elif site in self.dff_pos:
                dff_blocks.append(blk)
        fixes = {lvl: (at[blks].ravel(), words[blks].ravel())
                 for lvl, blks in by_level.items()}
        levels = [(instrs, fixes.get(lvl))
                  for lvl, instrs in self._kept_levels(seen)]
        obs_out, obs_scan = self._observed(seen)
        # A flip-flop site captures its stuck value as next state.
        at_state = _np.array(
            [self.dff_pos[sites[blk]] for blk in dff_blocks],
            dtype=_np.int64,
        )[:, None] * (size * nw) + cols[dff_blocks]
        ndff = len(self.dff_rows)
        state = _np.broadcast_to(
            state.reshape(ndff, state.shape[1] // nw, nw),
            (ndff, size, nw),
        ).reshape(ndff, size * nw)
        return _FaultBatch(
            list(faults), levels, (at.ravel(), words.ravel()),
            (at_state.ravel(), words[dff_blocks].ravel()), obs_out,
            obs_scan, state,
        )

    def _batch_cycle(self, batch: _FaultBatch, VS, mask_b, VG, gnxt,
                     nw: int, width: int, cycle: int,
                     detected: dict) -> None:
        """One clock edge for every fault block in ``batch``, as
        whole-batch numpy operations; detected faults land in
        ``detected`` and leave ``batch.alive``.

        A detected block still evaluates until the batch is repacked or
        dies, but nothing reads its columns again.
        """
        B = batch.size
        VS.reshape(self.n_gates, B, nw)[:] = VG[:, None, :]
        VS[self.dff_rows] = batch.state
        flat = VS.reshape(-1)
        flat[batch.force[0]] = batch.force[1]
        for instrs, fix in batch.levels:
            self._run_program(VS, instrs, mask_b)
            if fix is not None:
                flat[fix[0]] = fix[1]
        bnxt = VS[self.dff_d_rows]
        bnxt.reshape(-1)[batch.force_state[0]] = batch.force_state[1]
        hit = _np.zeros(B, dtype=bool)
        if len(batch.obs_out):
            hit |= (VS[batch.obs_out].reshape(-1, B, nw)
                    != VG[batch.obs_out, None, :]).any(axis=(0, 2))
        if len(batch.obs_scan):
            hit |= (bnxt[batch.obs_scan].reshape(-1, B, nw)
                    != gnxt[batch.obs_scan, None, :]).any(axis=(0, 2))
        alive = batch.alive
        self._pattern_cycles += width * int(_np.count_nonzero(alive))
        hit &= alive
        for blk in _np.flatnonzero(hit).tolist():
            detected[batch.faults[blk]] = cycle
        alive &= ~hit
        # Scan reload: scanned state follows the good machine.  A scan FF
        # carrying the fault itself needs no exception: a site is forced
        # again right after state loads, so its stored state is unread.
        sp = self.scan_pos
        if len(sp):
            bnxt.reshape(-1, B, nw)[sp] = gnxt[sp, None, :]
        batch.state = bnxt

    def _repack(self, batches: Sequence[_FaultBatch], per: int,
                width: int, mask) -> list[_FaultBatch]:
        """The live faults of ``batches`` rebuilt into batches of
        ``per``, in site order, each carrying its faulty state."""
        nw = _n_words(width)
        ndff = len(self.dff_rows)
        faults: list[Fault] = []
        states = []
        for b in batches:
            live = _np.flatnonzero(b.alive)
            faults += [b.faults[i] for i in live.tolist()]
            states.append(b.state.reshape(ndff, b.size, nw)[:, live]
                          .reshape(ndff, len(live) * nw))
        state = _np.concatenate(states, axis=1)
        return [
            self._make_batch(faults[i:i + per], width,
                             state[:, i * nw:(i + per) * nw], mask)
            for i in range(0, len(faults), per)
        ]

    def fault_simulate_cycles(
        self,
        faults: Sequence[Fault],
        pi_sequence: Sequence[Mapping[str, int]] | None,
        width: int = 64,
        initial_state: Mapping[str, int] | None = None,
        drop_detected: bool = False,
        pi_words=None,
    ) -> dict[Fault, int | None]:
        """Array-native fault-batched PPSFP; bit-identical to the
        interpreter's :func:`repro.gatelevel.fault_sim.fault_simulate_cycles`.

        The kernel always retires a fault at its first detection, which
        is exactly what ``drop_detected`` asks for and also what the
        non-dropping interpreter computes per fault (it breaks at first
        detection) -- so the flag changes nothing here and is accepted
        for signature parity.

        ``pi_words`` optionally supplies the patterns pre-packed as a
        ``(cycles, inputs, n_words)`` array (see
        :meth:`pack_pi_sequence`); shard workers pass a zero-copy
        shared-memory view here, skipping per-worker re-packing.
        """
        mask = self._mask_words(width)
        nw = _n_words(width)
        known = [f for f in faults if f.net in self.index]
        detected: dict[Fault, int | None] = {f: None for f in faults}
        self._pattern_cycles = 0  # bookkeeping for patterns/sec metrics
        if pi_words is not None:
            pw_seq = list(pi_words)
        else:
            pw_seq = [self._pi_matrix(piv, width)
                      for piv in (pi_sequence or ())]
        if not known or not pw_seq:
            return detected
        init = self._state_matrix(initial_state, width)
        # Sorting by site keeps each batch's union-of-cones tight.
        by_site = sorted(
            known, key=lambda f: (self.index[f.net], f.stuck_at)
        )
        # As many faults per batch as fit the scratch budget; one
        # buffer serves every batch, a narrower one as a leading view.
        per = max(FAULT_BATCH, BATCH_SCRATCH_WORDS // (self.n_gates * nw))
        widest = min(per, len(by_site)) * nw
        scratch = _np.zeros(self.n_gates * widest, dtype=_np.uint64)
        mask_b = _np.tile(mask, widest // nw)
        batches = [
            self._make_batch(by_site[i:i + per], width, init, mask)
            for i in range(0, len(by_site), per)
        ]
        good_state = init
        for cycle, pw in enumerate(pw_seq):
            VG, good_state = self.good_cycle(pw, good_state, width)
            for batch in batches:
                cols = batch.size * nw
                self._batch_cycle(
                    batch,
                    scratch[:self.n_gates * cols].reshape(self.n_gates,
                                                          cols),
                    mask_b[:cols], VG, good_state, nw, width, cycle,
                    detected,
                )
            batches = [b for b in batches if b.alive.any()]
            if not batches:
                break
            live = sum(int(_np.count_nonzero(b.alive)) for b in batches)
            if (cycle + 1 < len(pw_seq) and live
                    <= REPACK_LIVE_SHARE * sum(b.size for b in batches)):
                batches = self._repack(batches, per, width, mask)
        return detected


# ---------------------------------------------------------------------------
# compile cache

_COMPILED: "WeakKeyDictionary[Netlist, tuple]" = WeakKeyDictionary()


def compiled(netlist: Netlist) -> CompiledNetlist:
    """The cached compiled form of ``netlist``.

    Keyed by the netlist's mutation counter plus its output list (the
    outputs are observation points but not part of the gate graph), so
    in-place growth or output changes trigger a recompile.
    """
    sig = (netlist.version, tuple(netlist.outputs))
    hit = _COMPILED.get(netlist)
    if hit is not None and hit[0] == sig:
        return hit[1]
    comp = CompiledNetlist(netlist)
    _COMPILED[netlist] = (sig, comp)
    return comp


# ---------------------------------------------------------------------------
# content-hash netlist cache (warm-worker compiled-program reuse)

#: per-instance (version, outputs) -> (digest, blob) memo, so repeated
#: sharded dispatches of one netlist hash and pickle it exactly once.
_CONTENT_MEMO: "WeakKeyDictionary[Netlist, tuple]" = WeakKeyDictionary()

#: per-process content-hash -> Netlist registry.  Holding the netlist
#: object alive keeps its :data:`_COMPILED` entry (a WeakKeyDictionary)
#: alive too, so a warm worker that has seen a design serves every later
#: shard/job from the cached :class:`CompiledNetlist` without ever
#: re-running levelization -- and, under the shm transport, without even
#: unpickling the body again.
_BY_HASH: "OrderedDict[str, Netlist]" = OrderedDict()
_HASH_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def netlist_blob(netlist: Netlist) -> tuple[str, bytes]:
    """``(content digest, pickled body)`` for ``netlist``, memoised.

    The digest follows the recipe-hash discipline of
    :mod:`repro.flow.cache`: a sha256 over a canonical rendering of the
    gate graph (name, kind, fanins, scan flag, in insertion order) plus
    the output list -- equal-content netlists hash equal across
    processes, unlike ``id``- or pickle-byte-based keys.  The memo is
    invalidated by the netlist's mutation counter and output list.
    """
    sig = (netlist.version, tuple(netlist.outputs))
    hit = _CONTENT_MEMO.get(netlist)
    if hit is not None and hit[0] == sig:
        return hit[1], hit[2]
    h = hashlib.sha256()
    h.update(netlist.name.encode())
    for g in netlist:
        h.update(
            f"\n{g.name}|{g.kind}|{','.join(g.inputs)}|{int(g.scan)}"
            .encode()
        )
    h.update(("\nouts:" + ",".join(netlist.outputs)).encode())
    digest = h.hexdigest()
    blob = pickle.dumps(netlist, protocol=pickle.HIGHEST_PROTOCOL)
    _CONTENT_MEMO[netlist] = (sig, digest, blob)
    return digest, blob


def netlist_hash(netlist: Netlist) -> str:
    """The content digest alone (see :func:`netlist_blob`)."""
    return netlist_blob(netlist)[0]


def resolve_netlist(digest: str, payload) -> Netlist:
    """The process-local netlist for ``digest``, decoding at most once.

    ``payload`` supplies the body on a cache miss: a :class:`Netlist`,
    raw pickled ``bytes``, or a zero-argument callable returning either
    (a shard worker's lazy :func:`repro.flow.shm.fetch`, so a warm
    worker never reads the payload on a hit).  The registry is a
    bounded LRU (``REPRO_WORKER_CACHE_SIZE``).
    """
    hit = _BY_HASH.get(digest)
    if hit is not None:
        _BY_HASH.move_to_end(digest)
        _HASH_STATS["hits"] += 1
        return hit
    _HASH_STATS["misses"] += 1
    if callable(payload):
        payload = payload()
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = pickle.loads(payload)
    if not isinstance(payload, Netlist):
        raise NetlistError(
            f"no cached netlist for {digest[:12]} and no body provided"
        )
    _BY_HASH[digest] = payload
    from repro.flow.shm import default_cache_size

    limit = default_cache_size()
    while len(_BY_HASH) > limit:
        _BY_HASH.popitem(last=False)
        _HASH_STATS["evictions"] += 1
    return payload


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
    each faulty machine is a cone-restricted launch-cycle replay.
    """
    k = compiled(netlist)
    v1, v2 = pair
    mask = k._mask_words(width)
    pw1 = k._pi_matrix(v1, width)
    pw2 = k._pi_matrix(v2, width)
    state0 = k._state_matrix(initial_state, width)
    VG1, gs1 = k.good_cycle(pw1, state0, width)
    VG2, gs2 = k.good_cycle(pw2, gs1, width)
    VS = VG2.copy()
    out: dict[tuple[str, bool], int] = {}
    for net, rising in fault_sites:
        if net not in k.index:
            out[(net, rising)] = 0
            continue
        site = k.index[net]
        before = VG1[site]
        after = VG2[site]
        if rising:
            slow = ~before & after & mask
        else:
            slow = before & ~after & mask
        if not slow.any():
            out[(net, rising)] = 0
            continue
        cone = k.cone(site)
        faulty_value = (after & ~slow) | (before & slow)
        k._faulty_cycle(VS, cone, faulty_value, mask)
        diff = k.diff_words(VS, VG2, gs2, cone, faulty_value) & slow
        k._restore(VS, VG2, cone)
        out[(net, rising)] = k.int_from_words(diff)
    return out
