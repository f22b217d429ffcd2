"""Compiled phases of ordered partition refinement.

Every function here operates on flat int64 arrays plus a small register file
(regs) so the same code drives two callers: the stepwise Refinement API calls
each phase once per step, and run_full() loops over rounds entirely inside
compiled code. With numba installed the functions are njit-compiled (cached);
without it the same code runs as plain Python over zero-copy memoryviews of
the engine arrays (kernel_view), whose items read and write as plain ints, so
behaviour is byte-for-byte equivalent. On that backend run_full can hand a
splitter with many out-edges back to partition.run_refinement, which splits
against it in numpy; compiled, every round stays here.

The engine arrays travel as one Engine namedtuple, so the public kernels take
(regs, st). split_kernel unpacks st into locals once per round and hands the
sub-kernels explicit arrays: on the pure-Python backend every namedtuple
attribute read is a descriptor call, and reading st.<name> inside each
sub-kernel (about 60 reads per round) made run_full about 6% slower on the
nfa-sort benchmark input (n = 12 000, 11 931 rounds).

Register layout (indices into regs), every register read or written here:
  counters:  NPARTS, NX, HSIZE, GEN, NREC, FREETOP, ROUNDS, MAXSPLIT, NDEL,
             NCREATED, NCOMP
  per-round: NXS, N12, N11 (reached states, D_12, D_11); SPART, BPART,
             BFIRST (the old splitter's X-part, B, and whether B was first);
             SLO, SHI (the X-part's span, read by Refinement.select_splitter)
  fixed:     KMOD (heap key modulus), STATUS (0 ok, nonzero = internal error)
"""

from __future__ import annotations

from collections import namedtuple

try:
    from numba import njit
    from numba.core.errors import NumbaError as KernelCompileError

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    class KernelCompileError(Exception):
        """numba's NumbaError (typing and lowering failures) when numba is
        installed; nothing raises it without numba."""

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(f):
            return f

        return deco


def kernel_view(a):
    """An engine array as the kernels take it: the array itself when compiled,
    else a memoryview sharing its buffer, which indexes as plain ints where the
    array would box a numpy scalar per access."""
    return a if HAVE_NUMBA else memoryview(a)


# The engine arrays: state sequence and part/X-part spans, edges and their
# CSR adjacency, count records, then per-round scratch.
Engine = namedtuple(
    "Engine",
    "heap xbeg xend xcnt xof elems pos partof pbeg pend"
    " esrc edst out_ptr out_len out_lst out_pos in_ptr in_len in_lst in_pos"
    " cnt_ref cnt_val free_stk binb_gen splitcnt seen_gen"
    " xs d12 d11 xrec moved_cnt touched created deleted",
)

NREGS = 21
(
    R_NPARTS,
    R_NX,
    R_HSIZE,
    R_GEN,
    R_NREC,
    R_FREETOP,
    R_ROUNDS,
    R_MAXSPLIT,
    R_NDEL,
    R_NCREATED,
    R_NCOMP,
    R_NXS,
    R_N12,
    R_N11,
    R_SPART,
    R_BPART,
    R_BFIRST,
    R_SLO,
    R_SHI,
    R_KMOD,
    R_STATUS,
) = range(NREGS)

STATUS_OK = 0
STATUS_PART_CAP = 1
STATUS_XPART_CAP = 2
STATUS_HEAP_CAP = 3
STATUS_RECORD_CAP = 4
STATUS_SPLITTER_SIZE = 5
STATUS_ROUND_OVERRUN = 6

PRUNE_OFF = 0
PRUNE_KEEP_FIRST = 1
PRUNE_KEEP_LAST = 2


@njit(cache=True)
def _heap_push(heap, regs, key):
    """Min-heap push of an encoded (begin, xpart) key."""
    i = regs[R_HSIZE]
    if i >= heap.shape[0]:
        regs[R_STATUS] = STATUS_HEAP_CAP
        return
    heap[i] = key
    regs[R_HSIZE] = i + 1
    while i > 0:
        parent = (i - 1) // 2
        if heap[parent] <= heap[i]:
            break
        heap[parent], heap[i] = heap[i], heap[parent]
        i = parent


@njit(cache=True)
def _heap_pop(heap, regs):
    """Min-heap pop; caller guarantees the heap is non-empty."""
    top = heap[0]
    size = regs[R_HSIZE] - 1
    regs[R_HSIZE] = size
    heap[0] = heap[size]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        small = left
        right = left + 1
        if right < size and heap[right] < heap[left]:
            small = right
        if heap[i] <= heap[small]:
            break
        heap[i], heap[small] = heap[small], heap[i]
        i = small
    return top


@njit(cache=True)
def select_splitter_kernel(regs, st):
    """Pop the first (leftmost) compound X-part and carve its smaller end part B.

    Lazily discards stale heap entries (an entry is valid only while its
    begin matches the X-part's current begin and the X-part is compound).
    Replaces S by B and S-minus-B in X, B taking a fresh X id on whichever
    end it occupied, and re-queues the remainder when it stays compound.
    Ties between equal-sized end parts go to the first. Sets SPART to -1
    when no compound X-part remains.
    """
    heap, xbeg, xend, xcnt, xof = st.heap, st.xbeg, st.xend, st.xcnt, st.xof
    elems, partof, pbeg, pend = st.elems, st.partof, st.pbeg, st.pend
    kmod = regs[R_KMOD]
    s = -1
    while regs[R_HSIZE] > 0:
        key = _heap_pop(heap, regs)
        beg = key // kmod
        xid = key % kmod
        if xbeg[xid] == beg and xcnt[xid] >= 2:
            s = xid
            break
    regs[R_SPART] = s
    if s < 0:
        return
    regs[R_SLO] = xbeg[s]
    regs[R_SHI] = xend[s]
    first = partof[elems[xbeg[s]]]
    last = partof[elems[xend[s] - 1]]
    size_first = pend[first] - pbeg[first]
    size_last = pend[last] - pbeg[last]
    if size_first <= size_last:
        b = first
        bfirst = 1
    else:
        b = last
        bfirst = 0
    if 2 * (pend[b] - pbeg[b]) > xend[s] - xbeg[s]:
        regs[R_STATUS] = STATUS_SPLITTER_SIZE
        return
    nb = regs[R_NX]
    if nb >= xbeg.shape[0]:
        regs[R_STATUS] = STATUS_XPART_CAP
        return
    regs[R_NX] = nb + 1
    xbeg[nb] = pbeg[b]
    xend[nb] = pend[b]
    xcnt[nb] = 1
    xof[b] = nb
    xcnt[s] -= 1
    if bfirst == 1:
        xbeg[s] = pend[b]
    else:
        xend[s] = pbeg[b]
    if xcnt[s] >= 2:
        _heap_push(heap, regs, xbeg[s] * kmod + s)
    else:
        regs[R_NCOMP] -= 1
    regs[R_BPART] = b
    regs[R_BFIRST] = bfirst


@njit(cache=True)
def _scan_splitter(regs, elems, pbeg, pend, out_ptr, out_len, out_lst, edst, binb_gen,
                   splitcnt, seen_gen, cnt_ref, cnt_val, free_stk, xs, d12, d11, xrec):
    """One pass over the splitter B' (B's members) and its out-edges.

    Marks B' for the round and collects the reached states xs. Each out-edge
    e -> x leaves its record of (x, old splitter S), which is decremented and
    freed at zero, and joins the record of (x, B's new X-part), taken from
    the free stack on x's first edge only after that decrement, so a record
    freed by x itself is reused at once. Free records and those at or past
    NREC count 0, so a taken record starts at 0. The old record keeps
    counting the remainder side without ever being rewritten. An old record
    reaching zero means every in-edge of x from S comes from B' and none is
    left to scan: x is D_12 (seen_gen is set to -g); the other reached
    states are D_11 (some in-edges from B', some from the remainder). No
    state of B moves during the pass.
    """
    regs[R_GEN] += 1
    g = regs[R_GEN]
    b = regs[R_BPART]
    maxsplit = regs[R_MAXSPLIT]
    ftop = regs[R_FREETOP]
    nxs = 0
    for i in range(pbeg[b], pend[b]):
        y = elems[i]
        binb_gen[y] = g
        c = splitcnt[y] + 1
        splitcnt[y] = c
        if c > maxsplit:
            maxsplit = c
        base = out_ptr[y]
        for j in range(base, base + out_len[y]):
            e = out_lst[j]
            x = edst[e]
            r = cnt_ref[e]
            left = cnt_val[r] - 1
            cnt_val[r] = left
            if left == 0:
                free_stk[ftop] = r
                ftop += 1
            if seen_gen[x] == g:
                nr = xrec[x]
            else:
                seen_gen[x] = g
                xs[nxs] = x
                nxs += 1
                if ftop > 0:
                    ftop -= 1
                    nr = free_stk[ftop]
                else:
                    nr = regs[R_NREC]
                    if nr >= cnt_val.shape[0]:
                        regs[R_STATUS] = STATUS_RECORD_CAP
                        return
                    regs[R_NREC] = nr + 1
                xrec[x] = nr
            cnt_val[nr] += 1
            cnt_ref[e] = nr
            if left == 0:
                seen_gen[x] = -g
    regs[R_MAXSPLIT] = maxsplit
    regs[R_FREETOP] = ftop
    regs[R_NXS] = nxs
    n12 = 0
    n11 = 0
    for i in range(nxs):
        x = xs[i]
        if seen_gen[x] == g:
            d11[n11] = x
            n11 += 1
        else:
            d12[n12] = x
            n12 += 1
    regs[R_N12] = n12
    regs[R_N11] = n11


@njit(cache=True)
def _prune_d11(
    regs,
    prune_mode,
    d11,
    esrc,
    in_ptr,
    in_len,
    in_lst,
    in_pos,
    out_ptr,
    out_len,
    out_lst,
    out_pos,
    binb_gen,
    partof,
    xof,
    cnt_ref,
    cnt_val,
    free_stk,
    deleted,
):
    """Delete the losing side's in-edges of every D_11 state.

    keep-first keeps edges from whichever side of the old splitter comes
    first in the part order, keep-last the mirror. Membership of the B' side
    is tested by the round mark; the remainder side additionally checks the
    source's X-part so only edges from inside the old splitter are touched.
    Deleted edges are unlinked from both adjacency lists (swap-remove) and
    their count record is decremented on the spot.
    """
    g = regs[R_GEN]
    s = regs[R_SPART]
    bfirst = regs[R_BFIRST]
    loser_marked = (prune_mode == PRUNE_KEEP_FIRST and bfirst == 0) or (
        prune_mode == PRUNE_KEEP_LAST and bfirst == 1
    )
    for i in range(regs[R_N11]):
        x = d11[i]
        base = in_ptr[x]
        j = 0
        while j < in_len[x]:
            e = in_lst[base + j]
            y = esrc[e]
            if loser_marked:
                doomed = binb_gen[y] == g
            else:
                doomed = binb_gen[y] != g and xof[partof[y]] == s
            if doomed:
                r = cnt_ref[e]
                cnt_val[r] -= 1
                if cnt_val[r] == 0:
                    free_stk[regs[R_FREETOP]] = r
                    regs[R_FREETOP] += 1
                oi = out_pos[e]
                olast = out_ptr[y] + out_len[y] - 1
                f = out_lst[olast]
                out_lst[oi] = f
                out_pos[f] = oi
                out_lst[olast] = e
                out_pos[e] = olast
                out_len[y] -= 1
                ilast = base + in_len[x] - 1
                f2 = in_lst[ilast]
                in_lst[base + j] = f2
                in_pos[f2] = base + j
                in_lst[ilast] = e
                in_pos[e] = ilast
                in_len[x] -= 1
                deleted[regs[R_NDEL]] = e
                regs[R_NDEL] += 1
            else:
                j += 1


@njit(cache=True)
def _move_split(
    regs,
    move,
    nmove,
    to_front,
    heap,
    xbeg,
    xcnt,
    xof,
    elems,
    pos,
    partof,
    pbeg,
    pend,
    moved_cnt,
    touched,
    created,
):
    """Move the given states to the front (or back) of their parts and split.

    Each touched part splits into the moved piece and the remainder; the
    remainder keeps the part id (and with it the count-record identity of
    its states' in-edges), the moved piece takes a fresh id in the same
    X-part. A part whose states all moved is left unsplit. X-parts turning
    compound are queued.
    """
    ntouched = 0
    for i in range(nmove):
        x = move[i]
        p = partof[x]
        if moved_cnt[p] == 0:
            touched[ntouched] = p
            ntouched += 1
        k = moved_cnt[p]
        moved_cnt[p] = k + 1
        if to_front == 1:
            tgt = pbeg[p] + k
        else:
            tgt = pend[p] - 1 - k
        px = pos[x]
        other = elems[tgt]
        elems[tgt] = x
        elems[px] = other
        pos[x] = tgt
        pos[other] = px
    kmod = regs[R_KMOD]
    for t in range(ntouched):
        p = touched[t]
        k = moved_cnt[p]
        moved_cnt[p] = 0
        if k == pend[p] - pbeg[p]:
            continue
        q = regs[R_NPARTS]
        if q >= pbeg.shape[0]:
            regs[R_STATUS] = STATUS_PART_CAP
            return
        regs[R_NPARTS] = q + 1
        if to_front == 1:
            pbeg[q] = pbeg[p]
            pend[q] = pbeg[p] + k
            pbeg[p] = pbeg[p] + k
        else:
            pend[q] = pend[p]
            pbeg[q] = pend[p] - k
            pend[p] = pend[p] - k
        xp = xof[p]
        xof[q] = xp
        for idx in range(pbeg[q], pend[q]):
            partof[elems[idx]] = q
        xcnt[xp] += 1
        if xcnt[xp] == 2:
            _heap_push(heap, regs, xbeg[xp] * kmod + xp)
            regs[R_NCOMP] += 1
        created[regs[R_NCREATED]] = q
        regs[R_NCREATED] += 1


@njit(cache=True)
def split_kernel(regs, st, prune_mode):
    """One full split step against the splitter chosen by select_splitter_kernel.

    One pass over B's out-edges re-homes the count records and finds the
    reached states, D_12 (every in-edge from the old splitter comes from B)
    and D_11 (the rest of them). Without pruning this is the three-way split:
    D_12 moves toward B's side of its part and splits off, then D_11 does the
    same in what is left, yielding piece order (D_12, D_11, rest) when B was
    first and the mirror when B was last. With pruning the D_11 states first
    lose the losing side's in-edges, after which a single move settles
    everything: the states that kept edges from the winning side travel
    toward it.
    """
    (heap, xbeg, xend, xcnt, xof, elems, pos, partof, pbeg, pend,
     esrc, edst, out_ptr, out_len, out_lst, out_pos, in_ptr, in_len, in_lst, in_pos,
     cnt_ref, cnt_val, free_stk, binb_gen, splitcnt, seen_gen,
     xs, d12, d11, xrec, moved_cnt, touched, created, deleted) = st
    _scan_splitter(
        regs, elems, pbeg, pend, out_ptr, out_len, out_lst, edst, binb_gen,
        splitcnt, seen_gen, cnt_ref, cnt_val, free_stk, xs, d12, d11, xrec,
    )
    if regs[R_STATUS] != STATUS_OK:
        return
    bfirst = regs[R_BFIRST]
    if prune_mode == PRUNE_OFF:
        _move_split(
            regs, d12, regs[R_N12], bfirst, heap, xbeg, xcnt, xof,
            elems, pos, partof, pbeg, pend, moved_cnt, touched, created,
        )
        if regs[R_STATUS] == STATUS_OK:
            _move_split(
                regs, d11, regs[R_N11], bfirst, heap, xbeg, xcnt, xof,
                elems, pos, partof, pbeg, pend, moved_cnt, touched, created,
            )
        return
    if regs[R_N11] > 0:
        _prune_d11(
            regs,
            prune_mode,
            d11,
            esrc,
            in_ptr,
            in_len,
            in_lst,
            in_pos,
            out_ptr,
            out_len,
            out_lst,
            out_pos,
            binb_gen,
            partof,
            xof,
            cnt_ref,
            cnt_val,
            free_stk,
            deleted,
        )
    # all of xs when the kept side is B's, else just the D_12 states
    if (prune_mode == PRUNE_KEEP_FIRST) == (bfirst == 1):
        move, nmove = xs, regs[R_NXS]
    else:
        move, nmove = d12, regs[R_N12]
    _move_split(
        regs, move, nmove, bfirst, heap, xbeg, xcnt, xof,
        elems, pos, partof, pbeg, pend, moved_cnt, touched, created,
    )


@njit(cache=True)
def run_full(regs, st, prune_mode, max_rounds, big_load):
    """Refine to the fixpoint: select and split until no compound X-part remains.

    With big_load > 0, a splitter B whose load (|B| plus the out-degrees of
    its states) reaches big_load is left pending: run_full returns with
    SPART >= 0 and STATUS ok, and the caller splits against B itself before
    calling again. The load sum stops as soon as it reaches big_load.
    partition.run_refinement passes NUMPY_ROUND_BLOCK on the pure-Python
    backend without pruning, where a numpy round (0.25-0.4 ms fixed) beats
    about 1 us per plain-Python edge from a few hundred edges on, and 0
    otherwise: compiled, an edge costs nanoseconds, and pruning rounds also
    delete edges.
    """
    elems, pbeg, pend, out_len = st.elems, st.pbeg, st.pend, st.out_len
    while regs[R_STATUS] == STATUS_OK:
        select_splitter_kernel(regs, st)
        if regs[R_SPART] < 0 or regs[R_STATUS] != STATUS_OK:
            break
        if big_load > 0:
            b = regs[R_BPART]
            load = pend[b] - pbeg[b]
            i = pbeg[b]
            while load < big_load and i < pend[b]:
                load += out_len[elems[i]]
                i += 1
            if load >= big_load:
                return
        split_kernel(regs, st, prune_mode)
        regs[R_ROUNDS] += 1
        if regs[R_ROUNDS] > max_rounds:
            regs[R_STATUS] = STATUS_ROUND_OVERRUN
