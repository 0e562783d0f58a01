package queries

import (
	"time"

	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// ExecuteBatch runs a v4 OpBatch: N mutations under one exclusive lock
// acquisition and one journal group commit. The items are independent
// transactions executed in submission order — a failing item does not
// roll back or skip its neighbours — but they share the lock and the
// fsync, which is where the batch wins: the per-item cost drops to the
// handler itself.
//
// The returned slice has one code per item. The error return is the
// batch-level verdict: non-nil means the batch as a whole cannot be
// acknowledged (wedged journal up front, or the shared group fsync
// failed after the handlers ran). On a group-sync failure the in-memory
// effects of the batch stand, exactly like a single mutation whose
// journal append failed, and the database wedges so the divergence
// stops growing.
//
// Retrieves are not batchable: a batch reply has one code per item and
// no per-item tuple stream, so a retrieve name gets MR_NO_HANDLE just
// like an unknown one.
func ExecuteBatch(cx *Context, items []protocol.BatchItem) ([]mrerr.Code, error) {
	codes := make([]mrerr.Code, len(items))
	if len(items) == 0 {
		return codes, nil
	}
	// Fail-stop gate, as in Execute: a wedged store refuses mutations.
	if cx.DB.JournalWedged() {
		return nil, mrerr.MrDown
	}
	var t0 time.Time
	if cx.Span != nil {
		t0 = time.Now()
	}
	cx.CommitOK = false
	// As in Execute, the locked section is a closure so the commit gate
	// below waits for the replica ack without the exclusive lock held.
	err := func() error {
		cx.DB.LockExclusive()
		defer cx.DB.UnlockExclusive()
		err := cx.DB.JournalGroup(func() error {
			for i, it := range items {
				codes[i] = batchItemLocked(cx, it)
			}
			return nil
		})
		if err == nil {
			if seg, recs, ok := cx.DB.JournalHead(); ok {
				idx := recs - 1 // clamped as in Execute: see the rotation note there
				if idx < 0 {
					idx = 0
				}
				cx.CommitSeg, cx.CommitIdx, cx.CommitOK = seg, idx, true
			}
		}
		return err
	}()
	if cx.Span != nil {
		// One phase covering the whole batch; per-item phases would swamp
		// the trace ring.
		cx.Span.Record("server.batch", t0, time.Since(t0), int32(mrerr.CodeOf(err)))
	}
	if err != nil || !cx.CommitOK || cx.CommitGate == nil {
		return codes, err
	}
	return codes, commitGate(cx)
}

// batchItemLocked runs one batch item under the already-held exclusive
// lock, mirroring Execute's mutation path: argument checks, access
// check, typed arguments and body, journal append (deferred-sync,
// inside the group).
func batchItemLocked(cx *Context, it protocol.BatchItem) mrerr.Code {
	// An append that failed earlier in this batch wedged the store; the
	// remaining items fail fast without running their bodies, keeping
	// the memory/disk divergence at the one item that tore.
	if cx.DB.JournalWedged() {
		return mrerr.MrDown
	}
	// A fence detached the journal while this batch waited for the lock.
	if cx.DB.JournalDetached() {
		return mrerr.MrReadonly
	}
	q, ok := Lookup(it.Name)
	if !ok || q.Kind == Retrieve {
		return mrerr.MrNoHandle
	}
	if err := checkArgs(q, it.Args); err != nil {
		return mrerr.CodeOf(err)
	}
	r := newReq(q, it.Args)
	defer r.free()
	r.Context = cx
	if err := r.access(); err != nil {
		return mrerr.CodeOf(err)
	}
	if err := r.mutate(); err != nil {
		return mrerr.CodeOf(err)
	}
	if err := cx.DB.JournalQuery(cx.Principal, cx.App, cx.TraceID, q.Name, it.Args); err != nil {
		return mrerr.CodeOf(err)
	}
	return mrerr.Success
}
