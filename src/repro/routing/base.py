"""Router interface and the stencil-based load computation engine.

A :class:`Stencil` describes, for one source-destination offset ``delta``,
which channels a unit flow touches and with what fraction, *relative to the
flow's source node*. Translation invariance of tori/meshes makes stencils
reusable across all flows sharing a ``delta``.

Every cached stencil's entries live in one concatenated entry table
(``indptr``-sliced, CSR style). :meth:`Router.entries` is the one place
flows become channel slots: it expands all flows to table entries at
once, looks each entry's channel slot up in a node-translation table and
yields ``(flows, slots, fracs)`` chunks of one ordered stream.
:meth:`Router.link_loads`, :meth:`Router.link_loads_many` (all candidate
flow sets of a merge-phase block in one scatter), :meth:`Router.pair_scatter`
and the attribution engine all consume that stream. Its order is the
(offset group, flow, entry) order of the plain per-offset loop in
:mod:`repro.routing.reference`, so per-slot accumulation order — and
therefore every float in the result — is bitwise-identical to it. That
module shares only :meth:`Router.stencil` with this one and serves the
tests and the snapshot's MCL oracle; no production path imports it.
"""

from __future__ import annotations

import abc
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

# Entry budget of :meth:`Router.fill_pair_cache`, 16 bytes per entry in
# the pair cache's pool. bgq-cg's 4x4x4x2 table (1.18M entries) fits;
# paper-ci's 4x4x4x4x2 table (59.4M) fills lazily, pair by pair, under
# the per-router cap ``_pair_cache_cap`` on cached pairs.
PAIR_FILL_BUDGET = 2_000_000


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
    """One swap proposal's load update as a single scatter.

    ``slots``/``contrib`` hold the old endpoints' entries negated, then
    the new endpoints' entries: ``np.add.at(out, plan.slots,
    plan.contrib)`` moves the flows. :meth:`rollback` is the reverse
    move, new entries negated then old entries. IEEE negation is exact,
    so each half replays ``link_loads`` of the signed volumes bitwise.
    """

    slots: np.ndarray    # (T,) channel-slot id per expanded entry
    contrib: np.ndarray  # (T,) signed volume x fraction per expanded entry
    split: int           # entries [0, split) belong to the old endpoints

    def rollback(self) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, contrib)`` of the move back: -new, then +old."""
        k = self.split
        return (np.concatenate((self.slots[k:], self.slots[:k])),
                np.negative(np.concatenate((self.contrib[k:], self.contrib[:k]))))


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
        # Pairwise (src*V + dst) -> offset-key/delta lookup, built lazily
        # for small-enough topologies: hot callers (the refine loop) then
        # skip per-call delta reduction entirely. ``_translate`` rides
        # along: (src*V + w) -> first channel slot of node src (+) w.
        self._pair_keys: np.ndarray | None = None
        self._pair_deltas: np.ndarray | None = None
        self._translate: np.ndarray | None = None
        # Per-pair (slots, fracs) expansions: (src, dst) pairs recur
        # heavily in the refine loop, so their entry streams are cached
        # whole in a pooled CSR (pid -> cache id -> pooled slice) that a
        # hot call assembles with pure gathers. Bounded so pathological
        # pair churn cannot eat the heap.
        self._pair_cid: np.ndarray | None = None
        self._pp_count = 0
        self._pp_indptr = np.zeros(1024, dtype=np.int64)
        self._pp_slots = np.empty(0, dtype=np.int64)
        self._pp_fracs = np.empty(0, dtype=np.float64)
        self._pair_cache_cap = 262144
        self._sid_by_key: dict[int, int] = {}
        # Dense key -> stencil id map (-1 = unseen) when the key space is
        # small enough; replaces the per-group dict loop with one gather.
        kspace = 1
        for k in topology.shape:
            kspace *= 2 * int(k) + 1
        self._sid_dense: np.ndarray | None = (
            np.full(kspace, -1, dtype=np.int64) if kspace <= 4_000_000 else None
        )
        self._key_span = kspace  # every offset key is below it
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
        """Collision-free mixed-radix key per offset row (sort == group).

        Offsets are bounded by the shape, so shifting each dimension into
        ``[0, 2k]`` makes the key order the lexicographic order of the
        offset rows.
        """
        shape_arr = np.asarray(self.topology.shape, dtype=np.int64)
        keys = np.zeros(deltas.shape[0], dtype=np.int64)
        for d in range(self.topology.ndim):
            keys = keys * (2 * shape_arr[d] + 1) + (deltas[:, d] + shape_arr[d])
        return keys

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

    # The all-pairs tables cost about V^2 * (ndim + 1) int64 words; they
    # are built only when that stays under this many.
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
        """Precompute offset keys and deltas for every (src, dst) pair,
        and the node-translation table behind :meth:`_entry_slots`."""
        topo = self.topology
        V = topo.num_nodes
        s = np.repeat(np.arange(V, dtype=np.int64), V)
        d = np.tile(np.arange(V, dtype=np.int64), V)
        deltas = topo.delta(s, d)
        self._pair_deltas = deltas
        self._pair_keys = self._keys_for(deltas)
        self._pair_cid = np.full(V * V, -1, dtype=np.int64)
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

        for flows, slots, fracs in self.entries(srcs, dsts):
            np.add.at(out, slots, vols[flows] * fracs)
        return out

    def entries(self, srcs, dsts):
        """Yield the channel-slot expansion of the flows ``srcs -> dsts``.

        Each item is ``(flows, slots, fracs)``: per entry, the flow's
        index into ``srcs``/``dsts``, the channel slot it crosses and the
        fraction of the flow's volume that slot carries. The chunks are
        consecutive slices of one stream ordered by (ascending offset
        key, flow position within its key group, stencil entry); each
        holds at most ``_expansion_chunk`` entries unless one flow alone
        is larger, and no flow straddles two chunks. Scattering the
        chunks in order applies the additions of
        :func:`repro.routing.reference.reference_link_loads` in its
        order, bit for bit. Flows with ``src == dst`` yield nothing.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        for flows, ents in self._iter_expanded(srcs, dsts):
            yield flows, self._entry_slots(srcs[flows], ents), self._tab_fracs[ents]

    def _all_entries(self, srcs, dsts):
        """The whole :meth:`entries` stream as three flat arrays."""
        chunks = list(self.entries(srcs, dsts))
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        return tuple(np.concatenate(part) for part in zip(*chunks))

    def _expansion_parts(self, srcs: np.ndarray, dsts: np.ndarray):
        """Group-level expansion metadata for a set of off-node flows.

        Returns ``(order, per_flow, entry_start)`` — sorted flow indices
        (ascending offset key, stable), the table-entry count per sorted
        flow, and each sorted flow's first table-entry index. The full
        (flow, entry) stream is the per-flow runs laid out in this order;
        callers may materialize it whole or in consecutive chunks — both
        produce the identical stream.
        """
        topo = self.topology
        V = topo.num_nodes
        if self.pair_tables_available():
            pid = srcs * V + dsts
            keys = self._pair_keys[pid]
            deltas = None
        else:
            pid = None
            deltas = topo.delta(srcs, dsts)
            keys = self._keys_for(deltas)
        order, starts, sizes = self._group_sorted(keys)
        group_keys = keys[order[starts]]
        if self._sid_dense is not None:
            sids = self._sid_dense[group_keys]
            miss = np.flatnonzero(sids < 0)
        else:
            sids = np.array(
                [self._sid_by_key.get(int(k), -1) for k in group_keys],
                dtype=np.int64,
            )
            miss = np.flatnonzero(sids < 0)
        for j in miss:
            f = order[starts[j]]
            row = self._pair_deltas[pid[f]] if deltas is None else deltas[f]
            dkey = tuple(int(x) for x in row)
            self.stencil(dkey)  # counts the hit/miss, builds if new
            sid = self._stencil_ids[dkey]
            sids[j] = sid
            if self._sid_dense is not None:
                self._sid_dense[group_keys[j]] = sid
            else:
                self._sid_by_key[int(group_keys[j])] = sid
        hits = len(starts) - len(miss)
        if hits:
            self._m_stencil_hits.inc(hits)
        self._refresh_table()
        indptr = self._tab_indptr
        ecnt = indptr[sids + 1] - indptr[sids]            # entries per group
        per_flow = np.repeat(ecnt, sizes)                 # entries per sorted flow
        entry_start = np.repeat(indptr[sids], sizes)      # first entry per flow
        return order, per_flow, entry_start

    @staticmethod
    def _materialize_expansion(order, per_flow, entry_start):
        """Expand (flow, entry-count, entry-start) runs into flat pairs."""
        total = int(per_flow.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        flows_exp = np.repeat(order, per_flow)
        flow_start = np.cumsum(per_flow) - per_flow       # expansion offsets
        within = np.arange(total, dtype=np.int64) - np.repeat(
            flow_start, per_flow
        )
        entries_exp = np.repeat(entry_start, per_flow) + within
        return flows_exp, entries_exp

    # Expanded (flow, entry) pairs processed per scatter pass. Bounding the
    # pass keeps every temporary at a few MB so the allocator reuses warm
    # heap pages and the working set stays cache-resident — one giant pass
    # spends most of its time in soft page faults on multi-GB fresh
    # arrays. Sequential ``np.add.at`` over consecutive chunks of one
    # stream applies the identical addition sequence, so chunking never
    # changes a bit of the result.
    _expansion_chunk = 131_072

    def _iter_expanded(self, srcs: np.ndarray, dsts: np.ndarray):
        """Yield the (flow, entry) stream in bounded consecutive chunks."""
        order, per_flow, entry_start = self._expansion_parts(srcs, dsts)
        total = int(per_flow.sum())
        self._m_scatter_entries.inc(total)
        if total == 0:
            return
        if total <= self._expansion_chunk:
            yield self._materialize_expansion(order, per_flow, entry_start)
            return
        for i0, i1 in self._chunk_spans(per_flow):
            yield self._materialize_expansion(
                order[i0:i1], per_flow[i0:i1], entry_start[i0:i1]
            )

    def _chunk_spans(self, sizes: np.ndarray):
        """Yield ``(i0, i1)`` runs of consecutive items whose ``sizes``
        (entry counts) sum to at most ``_expansion_chunk``; an oversize
        item runs alone."""
        ends = np.cumsum(sizes)
        n = len(sizes)
        i0 = 0
        while i0 < n:
            base = int(ends[i0] - sizes[i0])
            i1 = int(np.searchsorted(ends, base + self._expansion_chunk,
                                     side="right"))
            i1 = min(max(i1, i0 + 1), n)
            yield i0, i1
            i0 = i1

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
            (B, num_channel_slots) load matrix; loads are added in place,
            row ``b`` receiving exactly what
            ``link_loads(srcs[b], dsts[b], vols, out=out[b])`` would add
            (bitwise — candidates scatter into disjoint rows and each
            row's entry stream keeps the single-call order).
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
        flat_out = out.reshape(-1)
        for flows, slots, fracs in self.entries(flat_s[keep], flat_d[keep]):
            flat_idx = keep[flows]
            np.add.at(flat_out, (flat_idx // m) * S + slots, vols[flat_idx % m] * fracs)
        return out

    def pair_scatter(self, srcs, dsts, vols) -> PairPlan:
        """The :class:`PairPlan` that moves ``m`` flows to new endpoints.

        ``srcs`` and ``dsts`` are (2, m): row 0 holds the flows' old
        endpoints, row 1 their new ones; ``vols`` is (m,). The plan's old
        half is bitwise the scatter of ``link_loads(srcs[0], dsts[0],
        -vols)`` and its new half that of ``link_loads(srcs[1], dsts[1],
        vols)``: one stable sort by (row, offset key) puts each row's
        flows in ``link_loads``'s order, each pair's entry block is the
        identical stencil slice, and IEEE negation distributes exactly
        over the products.

        Per-pair expansions are cached across calls, so hot loops that
        revisit the same endpoints (the refine pass) skip the
        grouping/expansion machinery entirely. When the all-pairs tables
        don't fit, or the cache is full, each half comes from the
        uncached expansion of its row, which yields the same stream.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        if (srcs.ndim != 2 or len(srcs) != 2 or srcs.shape != dsts.shape
                or vols.shape != srcs.shape[1:]):
            raise RoutingError("srcs and dsts must be (2, m) arrays, vols (m,)")
        m = len(vols)
        flat_s, flat_d = srcs.ravel(), dsts.ravel()
        keep = (flat_s != flat_d).nonzero()[0]
        signed = np.concatenate((-vols, vols))
        if len(keep) and self.pair_tables_available():
            n_old = int(keep.searchsorted(m))
            pid = flat_s[keep] * self.topology.num_nodes + flat_d[keep]
            keys = self._pair_keys[pid]
            keys[n_old:] += self._key_span  # new row sorts after old
            order = keys.argsort(kind="stable")
            pid = pid[order]
            cids = self._pair_cid[pid]
            if cids.min() < 0:
                self._pair_cache_fill(pid[cids < 0])
                cids = self._pair_cid[pid]
            if cids.min() >= 0:
                indptr = self._pp_indptr
                first = indptr[cids]
                counts = indptr[cids + 1] - first
                ends = counts.cumsum()
                total = int(ends[-1])
                self._m_scatter_entries.inc(total)
                idx = (first - (ends - counts)).repeat(counts)
                idx += np.arange(total, dtype=np.int64)
                contrib = signed[keep[order]].repeat(counts)
                contrib *= self._pp_fracs[idx]
                split = int(ends[n_old - 1]) if n_old else 0
                return PairPlan(self._pp_slots[idx], contrib, split)
        halves = []
        for row in (0, 1):
            off = np.flatnonzero(srcs[row] != dsts[row])
            flows, slots, fracs = self._all_entries(srcs[row][off], dsts[row][off])
            halves.append((slots, signed[row * m + off[flows]] * fracs))
        (old_slots, old_contrib), (new_slots, new_contrib) = halves
        return PairPlan(np.concatenate((old_slots, new_slots)),
                        np.concatenate((old_contrib, new_contrib)),
                        len(old_slots))

    def fill_pair_cache(self) -> bool:
        """Cache every off-node (src, dst) pair's expansion up front.

        Fills only when the whole table fits the cache cap and
        ``PAIR_FILL_BUDGET`` entries; the entry count is known before
        filling, one stencil size per offset key. The fill runs in
        passes of at most ``_expansion_chunk`` entries into a pool sized
        exactly for the table, so it peaks at the pool plus one pass.
        Returns whether every pair is cached.
        """
        if not self.pair_tables_available():
            return False
        V = self.topology.num_nodes
        pids = np.flatnonzero(self._pair_cid < 0)
        pids = pids[pids // V != pids % V]
        if len(pids) == 0:
            return True
        cnt = self._pp_count
        if len(pids) > self._pair_cache_cap - cnt:
            return False
        _, first, inverse = np.unique(
            self._pair_keys[pids], return_index=True, return_inverse=True
        )
        rep = pids[first]
        order, per_flow, _ = self._expansion_parts(rep // V, rep % V)
        per_key = np.empty(len(rep), dtype=np.int64)
        per_key[order] = per_flow
        per_pair = per_key[inverse.ravel()]
        total = int(per_pair.sum())
        if total > PAIR_FILL_BUDGET:
            return False
        used = int(self._pp_indptr[cnt])
        self._pp_slots = _grown(self._pp_slots, used, used + total)
        self._pp_fracs = _grown(self._pp_fracs, used, used + total)
        self._pp_indptr = _grown(self._pp_indptr, cnt + 1, cnt + len(pids) + 1)
        for i0, i1 in self._chunk_spans(per_pair):
            self._pair_cache_fill(pids[i0:i1])
        return True

    def _pair_cache_fill(self, pids: np.ndarray) -> None:
        """Expand uncached (src*V + dst) pairs into the pooled CSR in one
        vectorized pass, as many as the cache cap leaves room for."""
        room = max(self._pair_cache_cap - self._pp_count, 0)
        pids = np.unique(pids)[:room]
        if len(pids) == 0:
            return
        V = self.topology.num_nodes
        flows, slots, fracs = self._all_entries(pids // V, pids % V)
        # Each pair's entries are one contiguous run in expansion order,
        # so appending the stream lays out one CSR row per pair.
        starts = np.flatnonzero(np.diff(flows, prepend=-1))
        order = flows[starts]
        per_flow = np.diff(starts, append=len(flows))
        cnt = self._pp_count
        end = int(self._pp_indptr[cnt])
        need = end + len(slots)
        if need > len(self._pp_slots):
            cap = max(1024, 2 * len(self._pp_slots), need)
            self._pp_slots = _grown(self._pp_slots, end, cap)
            self._pp_fracs = _grown(self._pp_fracs, end, cap)
        rows = cnt + len(order)
        if rows + 1 > len(self._pp_indptr):
            cap = max(2 * len(self._pp_indptr), rows + 1)
            self._pp_indptr = _grown(self._pp_indptr, cnt + 1, cap)
        self._pp_slots[end:need] = slots
        self._pp_fracs[end:need] = fracs
        self._pp_indptr[cnt + 1 : rows + 1] = end + np.cumsum(per_flow)
        self._pair_cid[pids[order]] = np.arange(cnt, rows, dtype=np.int64)
        self._pp_count = rows

    # -- metrics ---------------------------------------------------------------------
    def max_channel_load(self, srcs, dsts, vols) -> float:
        """MCL: the load on the most-loaded channel."""
        loads = self.link_loads(srcs, dsts, vols)
        return float(loads.max()) if loads.size else 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.topology!r})"


def _grown(arr: np.ndarray, used: int, cap: int) -> np.ndarray:
    """A ``cap``-long copy of ``arr`` keeping its first ``used`` items."""
    out = np.empty(cap, dtype=arr.dtype)
    out[:used] = arr[:used]
    return out
