"""Compiled phases of ordered partition refinement.

Every function here operates on flat int64 arrays plus a small register file
(regs) so the same code drives two callers: the stepwise Refinement API calls
each phase once per step, and run_full() loops over rounds entirely inside
compiled code. With numba installed the functions are njit-compiled (cached);
without it the same code runs as plain Python over zero-copy memoryviews of
the engine arrays (kernel_view), whose items read and write as plain ints, so
behaviour is byte-for-byte equivalent.

Register layout (indices into regs):
  counters:  NPARTS, NX, HSIZE, GEN, NREC, FREETOP, ROUNDS, MAXSPLIT, NDEL,
             NCREATED, NCOMP
  per-round: NXS, N12, N11, BLEN, SPART, BPART, BFIRST, BX, SLO, SHI
  fixed:     KMOD (heap key modulus), STATUS (0 ok, nonzero = internal error)
"""

from __future__ import annotations

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

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


NREGS = 24
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
    R_BLEN,
    R_SPART,
    R_BPART,
    R_BFIRST,
    R_BX,
    R_SLO,
    R_SHI,
    R_KMOD,
    R_STATUS,
    R_SPARE,
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
def select_splitter_kernel(regs, heap, xbeg, xend, xcnt, xof, elems, partof, pbeg, pend):
    """Pop the first (leftmost) compound X-part and carve its smaller end part B.

    Lazily discards stale heap entries (an entry is valid only while its
    begin matches the X-part's current begin and the X-part is compound).
    Replaces S by B and S-minus-B in X, B taking a fresh X id on whichever
    end it occupied, and re-queues the remainder when it stays compound.
    Ties between equal-sized end parts go to the first. Sets SPART to -1
    when no compound X-part remains.
    """
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
    regs[R_BX] = nb


@njit(cache=True)
def _snapshot_b(regs, elems, pbeg, pend, bprime, binb_gen, splitcnt):
    """Freeze B's members (the splitter B') and mark them for this round."""
    b = regs[R_BPART]
    regs[R_GEN] += 1
    g = regs[R_GEN]
    lo = pbeg[b]
    blen = pend[b] - lo
    for i in range(blen):
        v = elems[lo + i]
        bprime[i] = v
        binb_gen[v] = g
        splitcnt[v] += 1
        if splitcnt[v] > regs[R_MAXSPLIT]:
            regs[R_MAXSPLIT] = splitcnt[v]
    regs[R_BLEN] = blen


@njit(cache=True)
def _scan_b(regs, bprime, out_ptr, out_len, out_lst, edst, seen_gen, bcount, repedge, xs):
    """Collect the states reached from B' and count their in-edges from B'."""
    g = regs[R_GEN]
    nxs = 0
    for i in range(regs[R_BLEN]):
        y = bprime[i]
        base = out_ptr[y]
        for j in range(out_len[y]):
            e = out_lst[base + j]
            x = edst[e]
            if seen_gen[x] != g:
                seen_gen[x] = g
                bcount[x] = 0
                repedge[x] = e
                xs[nxs] = x
                nxs += 1
            bcount[x] += 1
    regs[R_NXS] = nxs


@njit(cache=True)
def _classify(regs, xs, bcount, repedge, cnt_ref, cnt_val, d12, d11):
    """Split the reached states into D_12 (all old-splitter in-edges are from B')
    and D_11 (some in-edges from B', some from the remainder)."""
    n12 = 0
    n11 = 0
    for i in range(regs[R_NXS]):
        x = xs[i]
        total = cnt_val[cnt_ref[repedge[x]]]
        if bcount[x] == total:
            d12[n12] = x
            n12 += 1
        else:
            d11[n11] = x
            n11 += 1
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
def _update_counts(
    regs,
    bprime,
    out_ptr,
    out_len,
    out_lst,
    edst,
    cnt_ref,
    cnt_val,
    free_stk,
    bcount,
    xrec,
    xrec_gen,
):
    """Retire the old splitter's count records along B's surviving out-edges.

    Each such edge leaves its old record (decrement, free at zero) and joins
    the record of (target, B's new X-part), materialized on first touch with
    the full count gathered in the scan phase. The old record keeps counting
    the remainder side without ever being rewritten, which is what lets the
    remainder keep its record identity.
    """
    g = regs[R_GEN]
    for i in range(regs[R_BLEN]):
        y = bprime[i]
        base = out_ptr[y]
        for j in range(out_len[y]):
            e = out_lst[base + j]
            x = edst[e]
            r = cnt_ref[e]
            cnt_val[r] -= 1
            if cnt_val[r] == 0:
                free_stk[regs[R_FREETOP]] = r
                regs[R_FREETOP] += 1
            if xrec_gen[x] != g:
                xrec_gen[x] = g
                if regs[R_FREETOP] > 0:
                    regs[R_FREETOP] -= 1
                    nr = free_stk[regs[R_FREETOP]]
                else:
                    nr = regs[R_NREC]
                    if nr >= cnt_val.shape[0]:
                        regs[R_STATUS] = STATUS_RECORD_CAP
                        return
                    regs[R_NREC] = nr + 1
                cnt_val[nr] = bcount[x]
                xrec[x] = nr
            cnt_ref[e] = xrec[x]


@njit(cache=True)
def split_kernel(
    regs,
    prune_mode,
    heap,
    xbeg,
    xend,
    xcnt,
    xof,
    elems,
    pos,
    partof,
    pbeg,
    pend,
    esrc,
    edst,
    out_ptr,
    out_len,
    out_lst,
    out_pos,
    in_ptr,
    in_len,
    in_lst,
    in_pos,
    cnt_ref,
    cnt_val,
    free_stk,
    bprime,
    binb_gen,
    splitcnt,
    seen_gen,
    bcount,
    repedge,
    xs,
    d12,
    d11,
    xrec,
    xrec_gen,
    moved_cnt,
    touched,
    created,
    deleted,
):
    """One full split step against the splitter chosen by select_splitter_kernel.

    Without pruning this is the three-way split: first every reached state
    moves toward B's side of its part, then the D_12 states move once more,
    yielding piece order (D_12, D_11, rest) when B was first and the mirror
    when B was last. With pruning the D_11 states first lose the losing
    side's in-edges, after which a single move settles everything: the
    states that kept edges from the winning side travel toward it.
    """
    _snapshot_b(regs, elems, pbeg, pend, bprime, binb_gen, splitcnt)
    _scan_b(regs, bprime, out_ptr, out_len, out_lst, edst, seen_gen, bcount, repedge, xs)
    _classify(regs, xs, bcount, repedge, cnt_ref, cnt_val, d12, d11)
    if prune_mode != PRUNE_OFF and regs[R_N11] > 0:
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
    bfirst = regs[R_BFIRST]
    if prune_mode == PRUNE_OFF:
        _move_split(
            regs, xs, regs[R_NXS], bfirst, heap, xbeg, xcnt, xof,
            elems, pos, partof, pbeg, pend, moved_cnt, touched, created,
        )
        if regs[R_STATUS] == STATUS_OK:
            _move_split(
                regs, d12, regs[R_N12], bfirst, heap, xbeg, xcnt, xof,
                elems, pos, partof, pbeg, pend, moved_cnt, touched, created,
            )
    elif (prune_mode == PRUNE_KEEP_FIRST) == (bfirst == 1):
        _move_split(
            regs, xs, regs[R_NXS], bfirst, heap, xbeg, xcnt, xof,
            elems, pos, partof, pbeg, pend, moved_cnt, touched, created,
        )
    else:
        _move_split(
            regs, d12, regs[R_N12], bfirst, heap, xbeg, xcnt, xof,
            elems, pos, partof, pbeg, pend, moved_cnt, touched, created,
        )
    if regs[R_STATUS] == STATUS_OK:
        _update_counts(
            regs, bprime, out_ptr, out_len, out_lst, edst,
            cnt_ref, cnt_val, free_stk, bcount, xrec, xrec_gen,
        )


@njit(cache=True)
def run_full(
    regs,
    prune_mode,
    heap,
    xbeg,
    xend,
    xcnt,
    xof,
    elems,
    pos,
    partof,
    pbeg,
    pend,
    esrc,
    edst,
    out_ptr,
    out_len,
    out_lst,
    out_pos,
    in_ptr,
    in_len,
    in_lst,
    in_pos,
    cnt_ref,
    cnt_val,
    free_stk,
    bprime,
    binb_gen,
    splitcnt,
    seen_gen,
    bcount,
    repedge,
    xs,
    d12,
    d11,
    xrec,
    xrec_gen,
    moved_cnt,
    touched,
    created,
    deleted,
    max_rounds,
):
    """Refine to the fixpoint: select and split until no compound X-part remains."""
    while regs[R_STATUS] == STATUS_OK:
        select_splitter_kernel(regs, heap, xbeg, xend, xcnt, xof, elems, partof, pbeg, pend)
        if regs[R_SPART] < 0 or regs[R_STATUS] != STATUS_OK:
            break
        split_kernel(
            regs,
            prune_mode,
            heap,
            xbeg,
            xend,
            xcnt,
            xof,
            elems,
            pos,
            partof,
            pbeg,
            pend,
            esrc,
            edst,
            out_ptr,
            out_len,
            out_lst,
            out_pos,
            in_ptr,
            in_len,
            in_lst,
            in_pos,
            cnt_ref,
            cnt_val,
            free_stk,
            bprime,
            binb_gen,
            splitcnt,
            seen_gen,
            bcount,
            repedge,
            xs,
            d12,
            d11,
            xrec,
            xrec_gen,
            moved_cnt,
            touched,
            created,
            deleted,
        )
        regs[R_ROUNDS] += 1
        if regs[R_ROUNDS] > max_rounds:
            regs[R_STATUS] = STATUS_ROUND_OVERRUN
