package protocol

import (
	"fmt"
	"strconv"
	"strings"
)

// Pos is a journal commit position token: the epoch of the primary
// that committed it plus the (segment, record-index) position the
// commit occupies in the replicated journal. Tokens are minted by the
// server on successful mutations and presented back by clients on
// reads (Request.MinPos) for read-your-writes consistency: a node that
// has not applied the journal up to the token refuses the read with
// MR_STALE rather than serve data older than the caller's own write.
//
// Positions from different epochs stay comparable because replicas
// mirror the primary's segment numbering and a commit token is only
// minted once at least one replica acknowledged the position — every
// elected primary therefore holds every tokened commit.
type Pos struct {
	Epoch int64
	Seg   int64
	Idx   int64
}

// IsZero reports whether p is the zero position (no token).
func (p Pos) IsZero() bool { return p == Pos{} }

// String renders the wire form "epoch.seg.idx".
func (p Pos) String() string {
	return strconv.FormatInt(p.Epoch, 10) + "." +
		strconv.FormatInt(p.Seg, 10) + "." +
		strconv.FormatInt(p.Idx, 10)
}

// ParsePos parses a wire token. Malformed tokens report ok=false; the
// empty string is the valid "no floor" token and parses to the zero Pos.
func ParsePos(s string) (Pos, bool) {
	if s == "" {
		return Pos{}, true
	}
	parts := strings.Split(s, ".")
	if len(parts) != 3 {
		return Pos{}, false
	}
	var v [3]int64
	for i, part := range parts {
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil || n < 0 {
			return Pos{}, false
		}
		v[i] = n
	}
	return Pos{Epoch: v[0], Seg: v[1], Idx: v[2]}, true
}

// Covers reports whether a node whose applied position is (seg, idx) —
// idx being the count of applied records in segment seg, i.e. the next
// index wanted — has applied everything the token p names.
func (p Pos) Covers(seg, idx int64) bool {
	if seg > p.Seg {
		return true
	}
	return seg == p.Seg && idx > p.Idx
}

func (p Pos) GoString() string { return fmt.Sprintf("protocol.Pos{%d,%d,%d}", p.Epoch, p.Seg, p.Idx) }
