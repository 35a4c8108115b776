"""Router interface and the stencil-based load computation engine.

A :class:`Stencil` describes, for one source-destination offset ``delta``,
which channels a unit flow touches and with what fraction, *relative to the
flow's source node*. Translation invariance of tori/meshes makes stencils
reusable across all flows sharing a ``delta``.

Every cached stencil's entries live in one concatenated entry table
(``indptr``-sliced, CSR style). :meth:`Router.entries` sorts the flows by
offset and expands each offset group as one (flows x stencil entries)
block, looking each channel slot up in a node-translation table.
:meth:`Router.link_loads`, :meth:`Router.link_loads_many` (all candidate
flow sets of a merge-phase block in one call) and the attribution engine
scatter those blocks; :meth:`Router.pair_scatter` lays out the same
stencil slices per flow for a batch of swaps' old and new endpoints.
The order is the (offset group, flow, entry) order of the plain
per-offset loop in :mod:`repro.routing.reference`, so per-slot
accumulation order — and therefore every float in the result — is
bitwise-identical to it. That
module shares only :meth:`Router.stencil` with this one and serves the
tests and the snapshot's MCL oracle; no production path imports it.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.observability.metrics import get_registry
from repro.topology.cartesian import CartesianTopology

__all__ = [
    "Stencil",
    "Router",
    "PairPlan",
    "clear_stencil_cache",
]


# Process-wide stencil memo. Stencils are pure functions of (router type
# and parameters, topology shape/wrap, delta), so routers with equal
# signatures share them across instances — repeated mapper runs (bench
# repeats, hierarchy levels, serve requests) skip rebuilding identical
# stencils. Sharing is bitwise-safe: the cached object is the exact array
# set a fresh build would produce, and consumers never mutate stencils.
_STENCIL_MEMO: dict[tuple, Stencil] = {}
_STENCIL_MEMO_CAP = 100_000


def clear_stencil_cache() -> None:
    """Drop the process-wide stencil memo (for tests and benchmarks)."""
    _STENCIL_MEMO.clear()


@dataclass(frozen=True)
class Stencil:
    """Per-channel unit-flow fractions for one source-relative offset.

    Attributes
    ----------
    offsets:
        (E, ndim) signed coordinate offsets of each channel's *source node*
        relative to the flow source.
    dims:
        (E,) dimension index of each channel.
    dirs:
        (E,) direction of each channel (0 = +, 1 = -).
    fracs:
        (E,) fraction of the flow volume carried (sums to hops-per-path
        averaged over paths, i.e. ``sum(fracs) == mean path length``).
    """

    offsets: np.ndarray
    dims: np.ndarray
    dirs: np.ndarray
    fracs: np.ndarray

    @property
    def num_entries(self) -> int:
        return len(self.fracs)

    @property
    def mean_path_length(self) -> float:
        """Expected hop count of the flow (== total fraction mass)."""
        return float(self.fracs.sum())


@dataclass(frozen=True)
class PairPlan:
    """The load updates of ``K`` swap proposals, one segment each.

    Proposal ``k``'s segment is ``slots[start:end]``/``contrib[start:end]``
    with ``(start, split, end) = segment(k)``: the old endpoints' entries
    negated in ``[start, split)``, then the new endpoints' entries.
    :meth:`apply` scatters the segment, which moves the proposal's
    flows; :meth:`rollback` moves them back, subtracting the new
    entries and then the old ones. IEEE negation is exact and ``x - y``
    is ``x + (-y)``, so each half replays ``link_loads`` of the signed
    volumes bitwise, and the rollback that of -new, then +old.
    """

    slots: np.ndarray    # (total,) channel-slot id per expanded entry
    contrib: np.ndarray  # (total,) signed volume x fraction per expanded entry
    offsets: list        # 2K+1 entry offsets: start_0, split_0, start_1, ...

    def segment(self, k: int = 0) -> tuple[int, int, int]:
        """``(start, split, end)`` entry offsets of proposal ``k``."""
        return tuple(self.offsets[2 * k:2 * k + 3])

    def apply(self, out: np.ndarray, k: int = 0) -> None:
        """Move proposal ``k``'s flows in the load vector ``out``."""
        start, end = self.offsets[2 * k], self.offsets[2 * k + 2]
        np.add.at(out, self.slots[start:end], self.contrib[start:end])

    def rollback(self, out: np.ndarray, k: int = 0) -> None:
        """Undo :meth:`apply` of proposal ``k``: -new, then +old."""
        start, split, end = self.segment(k)
        np.subtract.at(out, self.slots[split:end], self.contrib[split:end])
        np.subtract.at(out, self.slots[start:split], self.contrib[start:split])


class Router(abc.ABC):
    """Routing model bound to one topology.

    Subclasses implement :meth:`_build_stencil`; everything else (caching,
    grouping, scatter-adds, MCL) is shared.
    """

    name: str = "router"

    def __init__(self, topology: CartesianTopology):
        self.topology = topology
        self._stencils: dict[tuple[int, ...], Stencil] = {}
        # CSR stencil table: per-key ids into concatenated entry arrays,
        # rebuilt lazily whenever a new offset's stencil lands in the cache.
        self._stencil_seq: list[Stencil] = []
        self._stencil_ids: dict[tuple[int, ...], int] = {}
        self._table_dirty = True
        self._tab_indptr = np.zeros(1, dtype=np.int64)
        self._tab_offsets = np.empty((0, topology.ndim), dtype=np.int64)
        self._tab_fracs = np.empty(0, dtype=np.float64)
        # Per-entry slot-lookup columns (see _entry_slots): the node id of
        # the entry's offset reduced mod the shape, and 2*dim + dir.
        self._tab_offnode = np.empty(0, dtype=np.int64)
        self._tab_dimdir = np.empty(0, dtype=np.int64)
        # Pairwise (src*V + dst) -> offset-key lookup, built lazily for
        # small-enough topologies: hot callers (the refine loop) then skip
        # per-call delta reduction entirely. ``_translate`` rides along:
        # (src*V + w) -> first channel slot of node src (+) w.
        self._pair_keys: np.ndarray | None = None
        self._translate: np.ndarray | None = None
        # Dense offset keys (see _keys_for): one digit per dimension, the
        # offset shifted to start at 0, radix k on a wrapped dimension and
        # 2k-1 on a mesh one. The key space is then at most 2^ndim * V,
        # so the key -> stencil id map (-1 = unbuilt) is a plain array.
        self._key_radix = [k if w else 2 * k - 1
                           for k, w in zip(topology.shape, topology.wrap)]
        self._key_shift = [(k - 1) // 2 if w else k - 1
                           for k, w in zip(topology.shape, topology.wrap)]
        self._key_span = math.prod(self._key_radix)  # every key is below it
        self._sid_dense = np.full(self._key_span, -1, dtype=np.int64)
        self._wrap_dims = np.array(
            [d for d in range(topology.ndim) if topology.wrap[d]],
            dtype=np.int64,
        )
        self._shape_arr = np.asarray(topology.shape, dtype=np.int64)
        self._wrap_extents = self._shape_arr[self._wrap_dims]
        self._all_wrap = len(self._wrap_dims) == topology.ndim
        # Bound once: stencil cache traffic is hot-path telemetry.
        registry = get_registry()
        self._m_stencil_hits = registry.counter("router.stencil_hits")
        self._m_stencil_misses = registry.counter("router.stencil_misses")
        self._m_load_calls = registry.counter("router.link_load_calls")
        self._m_batch_calls = registry.counter("router.batch_load_calls")
        self._m_scatter_entries = registry.counter("router.scatter_entries")

    # -- stencils -----------------------------------------------------------------
    def stencil(self, delta) -> Stencil:
        """Stencil for a signed per-dimension offset (cached)."""
        key = tuple(int(x) for x in np.asarray(delta).ravel())
        if len(key) != self.topology.ndim:
            raise RoutingError(
                f"delta has {len(key)} entries for a {self.topology.ndim}-D topology"
            )
        st = self._stencils.get(key)
        if st is None:
            gkey = (self._stencil_signature(), key)
            st = _STENCIL_MEMO.get(gkey)
            if st is None:
                self._m_stencil_misses.inc()
                st = self._build_stencil(key)
                if len(_STENCIL_MEMO) < _STENCIL_MEMO_CAP:
                    _STENCIL_MEMO[gkey] = st
            else:
                self._m_stencil_hits.inc()
            self._stencils[key] = st
            self._stencil_ids[key] = len(self._stencil_seq)
            self._stencil_seq.append(st)
            self._table_dirty = True
        else:
            self._m_stencil_hits.inc()
        return st

    def _stencil_signature(self) -> tuple:
        """Hashable identity of this router's stencil function.

        Routers with equal signatures produce identical stencils for any
        delta and therefore share the process-wide memo. Subclasses whose
        stencils depend on extra parameters must extend this.
        """
        t = self.topology
        return (
            f"{type(self).__module__}.{type(self).__qualname__}",
            tuple(int(x) for x in t.shape),
            tuple(bool(w) for w in t.wrap),
        )

    @abc.abstractmethod
    def _build_stencil(self, delta: tuple[int, ...]) -> Stencil:
        """Compute the stencil for one offset; called once per distinct offset."""

    def _refresh_table(self) -> None:
        """Rebuild the concatenated CSR entry table after cache growth."""
        if not self._table_dirty:
            return
        sts = self._stencil_seq
        counts = np.array([s.num_entries for s in sts], dtype=np.int64)
        self._tab_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        if sts:
            self._tab_offsets = np.concatenate(
                [np.atleast_2d(s.offsets).reshape(-1, self.topology.ndim)
                 for s in sts]
            )
            self._tab_fracs = np.concatenate([s.fracs for s in sts])
            dims = np.concatenate([s.dims for s in sts])
            dirs = np.concatenate([s.dirs for s in sts])
            offsets = self._tab_offsets % self._shape_arr
            self._tab_offnode = offsets @ self.topology.strides
            self._tab_dimdir = 2 * dims + dirs
        self._table_dirty = False

    def _coord_slots(self, src_nodes, offsets, dimdir) -> np.ndarray:
        """Slot ids by coordinates: ``node(src + offset)`` with wrapped
        dimensions reduced mod the shape, times ``2*ndim``, plus
        ``2*dim + dir``. The slot lookup for topologies whose pair
        tables do not fit."""
        topo = self.topology
        c = topo.coords_array[src_nodes] + offsets
        if self._all_wrap:
            c %= self._shape_arr
        elif len(self._wrap_dims):
            c[..., self._wrap_dims] %= self._wrap_extents
        return (c @ topo.strides) * (2 * topo.ndim) + dimdir

    def _keys_for(self, deltas: np.ndarray) -> np.ndarray:
        """Dense mixed-radix key per offset row (sort == group).

        ``topology.delta`` keeps a wrapped offset in ``[-(k-1)//2, k//2]``
        and a mesh offset in ``[-(k-1), k-1]``, so each shifted digit is
        below its radix: keys are collision-free, fill ``[0, _key_span)``
        without gaps, and their order is the lexicographic order of the
        offset rows.
        """
        keys = np.zeros(deltas.shape[0], dtype=np.int64)
        for d, (radix, shift) in enumerate(zip(self._key_radix, self._key_shift)):
            keys = keys * radix + (deltas[:, d] + shift)
        return keys

    def _delta_of(self, key: int) -> tuple[int, ...]:
        """The offset whose :meth:`_keys_for` key is ``key``."""
        delta = []
        for radix, shift in zip(reversed(self._key_radix),
                                reversed(self._key_shift)):
            key, digit = divmod(key, radix)
            delta.append(digit - shift)
        return tuple(reversed(delta))

    @staticmethod
    def _group_sorted(keys: np.ndarray):
        """(order, starts, sizes) of a stable sort-and-group over keys."""
        order = np.argsort(keys, kind="stable")
        n = len(order)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return order, empty, empty.copy()
        keys_sorted = keys[order]
        mask = np.empty(n, dtype=bool)
        mask[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=mask[1:])
        starts = np.flatnonzero(mask)
        sizes = np.empty(len(starts), dtype=np.int64)
        sizes[:-1] = starts[1:] - starts[:-1]
        sizes[-1] = n - starts[-1]
        return order, starts, sizes

    # The all-pairs tables (offset keys and translation) cost 2 * V^2
    # int64 words; they are built only when V^2 * (ndim + 1) stays under
    # this many.
    _pair_table_limit = 16_000_000

    def pair_tables_available(self) -> bool:
        """True when the all-pairs tables exist, building them if they fit."""
        if self._pair_keys is not None:
            return True
        topo = self.topology
        V = topo.num_nodes
        if V * V * (topo.ndim + 1) > self._pair_table_limit:
            return False
        self._build_pair_tables()
        return True

    def _build_pair_tables(self) -> None:
        """Precompute the offset key of every (src, dst) pair, and the
        node-translation table behind :meth:`_entry_slots`."""
        topo = self.topology
        V = topo.num_nodes
        s = np.repeat(np.arange(V, dtype=np.int64), V)
        d = np.tile(np.arange(V, dtype=np.int64), V)
        self._pair_keys = self._keys_for(topo.delta(s, d))
        # translate[src*V + w] = first slot of node (coords[src] +
        # coords[w]) mod shape, built one dimension at a time so no
        # (V*V, ndim) temporary is needed.
        coords = topo.coords_array
        node = np.zeros((V, V), dtype=np.int64)
        for k in range(topo.ndim):
            shifted = coords[:, k, None] + coords[None, :, k]
            shifted %= topo.shape[k]
            shifted *= topo.strides[k]
            node += shifted
        node *= 2 * topo.ndim
        self._translate = node.ravel()

    # -- load computation -----------------------------------------------------------
    def link_loads(self, srcs, dsts, vols, out: np.ndarray | None = None) -> np.ndarray:
        """Dense per-channel-slot load vector for a set of flows.

        Parameters
        ----------
        srcs, dsts:
            Node ids (arrays of equal length). Flows with ``src == dst``
            stay on-node and contribute no network load.
        vols:
            Flow volumes (bytes or relative units).
        out:
            Optional preallocated/accumulating load vector of length
            ``topology.num_channel_slots``; loads are *added* into it.
        """
        topo = self.topology
        self._m_load_calls.inc()
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        if not (srcs.shape == dsts.shape == vols.shape) or srcs.ndim != 1:
            raise RoutingError("srcs, dsts, vols must be equal-length 1-D arrays")
        if out is None:
            out = np.zeros(topo.num_channel_slots)
        elif out.shape != (topo.num_channel_slots,):
            raise RoutingError(
                f"out has shape {out.shape}, expected ({topo.num_channel_slots},)"
            )
        if len(srcs) == 0:
            return out

        offnode = srcs != dsts
        if not offnode.all():
            srcs, dsts, vols = srcs[offnode], dsts[offnode], vols[offnode]
            if len(srcs) == 0:
                return out

        order, blocks = self.entries(srcs, dsts)
        vols = vols[order]
        for lo, hi, slots, fracs in blocks:
            np.add.at(out, slots.ravel(), (vols[lo:hi, None] * fracs).ravel())
        return out

    # Entries per block (flows x stencil entries). Bounding the block keeps
    # every temporary at a few MB, so the allocator reuses warm heap pages
    # and the working set stays cache-resident; one giant block spends
    # most of its time in soft page faults on fresh multi-GB arrays.
    # Splitting a group between consecutive blocks keeps the addition
    # sequence, so the bound never changes a bit of the result.
    _block_entries = 131_072

    def entries(self, srcs, dsts):
        """The channel-slot expansion of the flows ``srcs -> dsts``.

        Returns ``(order, blocks)``. ``order`` sorts the flows by offset
        key, stably; ``blocks`` yields ``(lo, hi, slots, fracs)`` for
        consecutive runs ``order[lo:hi]`` of flows that share one offset
        and hence one stencil: ``fracs`` (E,) is the stencil's fractions
        and ``slots`` (hi - lo, E) the channel slot of each (flow,
        stencil entry), a fresh array the caller may modify. A key group
        is split between blocks only so that none exceeds
        ``_block_entries`` entries unless one flow alone does. Raveling
        each block in C order and scattering the blocks in turn applies
        the additions of :func:`repro.routing.reference.reference_link_loads`
        in its order, bit for bit. Flows with ``src == dst`` are in
        ``order`` but in no block.

        Per-flow work (the sort, the source's translation-table row) is
        done once per flow; only the broadcast add, the table gather and
        the ``dimdir`` add run per entry.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        keys = self._offset_keys(srcs, dsts)
        order, starts, sizes = self._group_sorted(keys)
        sids = self._stencil_ids_of(keys[order[starts]])
        first, last = self._tab_indptr[sids], self._tab_indptr[sids + 1]
        self._m_scatter_entries.inc(int(((last - first) * sizes).sum()))
        src = srcs[order]
        if self._translate is not None:
            src *= self.topology.num_nodes  # each flow's translate row
        return order, self._blocks(src, starts.tolist(), sizes.tolist(),
                                   first.tolist(), last.tolist())

    def _blocks(self, src, starts, sizes, first, last):
        """The block generator behind :meth:`entries`."""
        translate = self._translate
        for g0, n, e0, e1 in zip(starts, sizes, first, last):
            if e0 == e1:
                continue  # the zero offset: on-node flows
            fracs = self._tab_fracs[e0:e1]
            dimdir = self._tab_dimdir[e0:e1]
            step = max(1, self._block_entries // (e1 - e0))
            for lo in range(g0, g0 + n, step):
                hi = min(lo + step, g0 + n)
                if translate is None:
                    slots = self._coord_slots(
                        src[lo:hi, None], self._tab_offsets[e0:e1], dimdir)
                else:
                    slots = translate[src[lo:hi, None] + self._tab_offnode[e0:e1]]
                    slots += dimdir
                yield lo, hi, slots, fracs

    def _offset_keys(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """:meth:`_keys_for` key of each flow's offset, gathered from the
        pair table when it exists."""
        if self.pair_tables_available():
            return self._pair_keys[srcs * self.topology.num_nodes + dsts]
        return self._keys_for(self.topology.delta(srcs, dsts))

    def _stencil_ids_of(self, keys: np.ndarray) -> np.ndarray:
        """Stencil-table id per offset key; a key whose stencil is not in
        the table yet gets it built (or fetched from the memo) once."""
        sids = self._sid_dense[keys]
        missing = 0
        if len(sids) and sids.min() < 0:
            for key in np.unique(keys[sids < 0]):
                delta = self._delta_of(int(key))
                self.stencil(delta)  # counts the hit/miss, builds if new
                self._sid_dense[key] = self._stencil_ids[delta]
                missing += 1
            sids = self._sid_dense[keys]
        if len(keys) > missing:
            self._m_stencil_hits.inc(len(keys) - missing)
        self._refresh_table()
        return sids

    def _entry_slots(self, src_nodes: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """Channel-slot ids for (source node, table entry) pairs.

        With the pair tables built this is two gathers and an add: the
        entry's channel leaves node ``src (+) offset``, looked up in the
        translation table by the offset's node id mod the shape. On a
        wrapped dimension that is the torus sum itself; on a mesh
        dimension a routed channel's source stays inside the mesh, so
        ``(x + (o mod k)) mod k == x + o`` there too and the lookup is
        exact everywhere.
        """
        dimdir = self._tab_dimdir[entries]
        if self._translate is None:
            return self._coord_slots(src_nodes, self._tab_offsets[entries], dimdir)
        pos = src_nodes * self.topology.num_nodes
        pos += self._tab_offnode[entries]
        slots = self._translate[pos]
        slots += dimdir
        return slots

    def link_loads_many(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        vols: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Accumulate loads for ``B`` candidate flow sets in one scatter.

        Parameters
        ----------
        srcs, dsts:
            (B, m) node-id matrices — row ``b`` is candidate ``b``'s
            endpoints for the same ``m`` logical flows.
        vols:
            (m,) shared flow volumes.
        out:
            (B, num_channel_slots) load matrix in any memory layout;
            loads are added in place, row ``b`` receiving exactly what
            ``link_loads(srcs[b], dsts[b], vols, out=out[b])`` would add
            (bitwise — candidates scatter into disjoint rows, and within
            each offset group a row's flows keep their single-call
            order).
        """
        topo = self.topology
        self._m_batch_calls.inc()
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        if srcs.ndim != 2 or srcs.shape != dsts.shape:
            raise RoutingError("srcs and dsts must be equal-shape (B, m) arrays")
        B, m = srcs.shape
        if vols.shape != (m,):
            raise RoutingError(f"vols must have shape ({m},), got {vols.shape}")
        S = topo.num_channel_slots
        if out.shape != (B, S):
            raise RoutingError(f"out has shape {out.shape}, expected ({B}, {S})")
        if m == 0 or B == 0:
            return out

        flat_s = srcs.ravel()
        flat_d = dsts.ravel()
        keep = np.flatnonzero(flat_s != flat_d)
        if len(keep) == 0:
            return out
        # reshape(-1) of a non-C-contiguous array is a copy, which would
        # swallow every load: scatter into a contiguous buffer instead.
        buf = out if out.flags.c_contiguous else np.ascontiguousarray(out)
        flat_out = buf.reshape(-1)
        order, blocks = self.entries(flat_s[keep], flat_d[keep])
        kept = keep[order]
        rowbase = (kept // m) * S  # each flow's row of flat_out
        vols = vols[kept % m]
        for lo, hi, slots, fracs in blocks:
            slots += rowbase[lo:hi, None]
            np.add.at(flat_out, slots.ravel(), (vols[lo:hi, None] * fracs).ravel())
        if buf is not out:
            out[...] = buf
        return out

    # Entries one batched pair_scatter call should hold. Callers that
    # batch proposals (the refine walk) size their batches by it, so the
    # call's dozen entry-length temporaries stay cache-resident.
    _pair_batch_entries = 8192

    def pair_scatter(self, srcs, dsts, vols, bounds=None) -> PairPlan:
        """The :class:`PairPlan` that moves ``K`` proposals' flows to new
        endpoints.

        ``srcs`` and ``dsts`` are (2, T): row 0 holds the flows' old
        endpoints, row 1 their new ones, for the concatenated flows of
        ``K`` proposals; ``vols`` is (T,). ``bounds`` (K+1,) gives each
        proposal's flow offsets: proposal ``k`` owns columns
        ``bounds[k]:bounds[k+1]``. The default is one proposal of all
        ``T`` flows.

        Proposal ``k``'s old half is bitwise the scatter of
        ``link_loads`` of its old endpoints with ``-vols``, and its new
        half that of its new endpoints with ``vols``: one stable sort by
        (proposal, row, offset key) puts each row's flows in
        ``link_loads``'s order, each pair's entry block is the identical
        stencil slice, and IEEE negation distributes exactly over the
        products. Each segment is therefore the plan a one-proposal call
        returns for that proposal alone.

        Each flow's entry run is laid out straight from the stencil
        table, so a call costs a fixed number of array operations
        whatever ``K`` and the topology, and keeps nothing between calls.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        if (srcs.ndim != 2 or len(srcs) != 2 or srcs.shape != dsts.shape
                or vols.shape != srcs.shape[1:]):
            raise RoutingError("srcs and dsts must be (2, T) arrays, vols (T,)")
        T = len(vols)
        if bounds is None:
            bounds = np.array([0, T], dtype=np.int64)
        else:
            bounds = np.asarray(bounds)
            if (bounds.ndim != 1 or len(bounds) < 2
                    or bounds.dtype.kind not in "iu" or bounds[0] != 0
                    or bounds[-1] != T or (bounds[1:] < bounds[:-1]).any()):
                raise RoutingError(
                    f"bounds must rise from 0 to {T} in one 1-D integer array")
            bounds = bounds.astype(np.int64, copy=False)
        K = len(bounds) - 1
        flat_s, flat_d = srcs.ravel(), dsts.ravel()
        keys = self._offset_keys(flat_s, flat_d)
        sids = self._stencil_ids_of(keys)
        # Sort by (proposal, row, key): proposal k's rows are groups 2k
        # and 2k+1, each shifted past every key of the group before.
        span = self._key_span
        grouped = keys.reshape(2, T)
        if K > 1:
            grouped += (np.arange(0, 2 * K * span, 2 * span)
                        .repeat(bounds[1:] - bounds[:-1]))
        grouped[1] += span
        order = keys.argsort(kind="stable")
        sids = sids[order]
        indptr = self._tab_indptr
        first = indptr[sids]
        counts = indptr[sids + 1] - first
        counts[(flat_s == flat_d)[order]] = 0  # on-node flows load nothing
        ends = np.zeros(2 * T + 1, dtype=np.int64)
        counts.cumsum(out=ends[1:])
        total = int(ends[-1])
        self._m_scatter_entries.inc(total)
        ents = (first - ends[:-1]).repeat(counts)
        ents += np.arange(total, dtype=np.int64)
        slots = self._entry_slots(flat_s[order].repeat(counts), ents)
        contrib = np.concatenate((-vols, vols))[order].repeat(counts)
        contrib *= self._tab_fracs[ents]
        # Proposal k's old row starts at sorted flow 2*bounds[k], its new
        # row at bounds[k] + bounds[k+1].
        twice = bounds.repeat(2)
        return PairPlan(slots, contrib, ends[twice[:-1] + twice[1:]].tolist())

    # -- metrics ---------------------------------------------------------------------
    def max_channel_load(self, srcs, dsts, vols) -> float:
        """MCL: the load on the most-loaded channel."""
        loads = self.link_loads(srcs, dsts, vols)
        return float(loads.max()) if loads.size else 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.topology!r})"

