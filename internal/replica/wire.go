// Package replica implements the durable moirad node: a Cluster of
// one or more peers over journal-shipping replication (the
// availability gap of section 5.2: one centralized server whose outage
// stalls every consumer). A node with no peers is a standalone primary.
// With peers, the elected primary streams its durable journal — the
// listing of all successful changes — to the others, each of which
// mirrors the segments on its own disk and applies the records through
// the recovery replay path. Followers serve retrieval queries, refuse
// mutations with MR_READONLY, and stand for election when the
// primary's lease lapses.
//
// The wire protocol rides the existing framed counted-string codec:
// the follower opens a Replicate request carrying its resume position
// and its election epoch, [seg, idx, epoch], and the primary answers
// with a stream of MR_MORE_DATA reply frames until either side hangs
// up. Frame vocabulary (first field tags the frame):
//
//	hello epoch replAddr clientAddr  the primary's greeting, sent first
//	lease epoch seq                  deadline heartbeat, interleaved anywhere
//	snap-begin gen journalSeq        bootstrap snapshot follows
//	file name                        start of one snapshot file
//	chunk bytes                      snapshot file data (≤1 MB per frame)
//	file-end name                    end of one snapshot file
//	snap-end                         snapshot complete; tail follows
//	rec seg idx line                 one journal record (line idx of segment seg)
//	head seg idx off now             primary's head and clock, sent when caught up
//
// The follower acknowledges positions and lease sequence numbers by
// writing OpElection "ack" requests back up the same connection, so
// the stream is full duplex.
//
// Positions are (segment sequence, record index): record idx is the
// idx'th complete CRC-valid line of segment seg, counted from 0. A
// resume position names the next record wanted, so (0, 0) means "I
// have nothing" and (-1, -1) asks for a full bootstrap. Followers
// mirror the primary's segment numbering on their own disk, which
// makes the position recomputable from disk after any crash — no
// separate replication state file, and the mirrored directory is a
// valid durable data dir for ordinary boot-time recovery.
package replica

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Frame tags.
const (
	tagSnapBegin = "snap-begin"
	tagFile      = "file"
	tagChunk     = "chunk"
	tagFileEnd   = "file-end"
	tagSnapEnd   = "snap-end"
	tagRec       = "rec"
	tagHead      = "head"
	tagHello     = "hello"
	tagLease     = "lease"
)

// Election subops: the first argument of an OpElection request.
const (
	// electAck rides the replication connection, replica → primary:
	//
	//	ack epoch seq seg idx
	//
	// epoch is the replica's current epoch (a higher one deposes the
	// primary on contact), seq echoes the newest lease frame seen (0
	// before any), and (seg, idx) is the next record the replica wants
	// — everything before it is mirrored durably and applied.
	electAck = "ack"

	// electInfo polls a node's identity; the final reply's fields are
	// [role, epoch, seg, idx, replAddr, clientAddr, held].
	electInfo = "info"

	// electClaim asks a node to accept the sender as primary for a new
	// epoch: [claim, epoch, seg, idx, replAddr, clientAddr, force].
	// Success grants; MR_PERM denies with a reason field.
	electClaim = "claim"
)

// epochFile is the election epoch persisted at the data-dir root. It
// is read at boot and rewritten (atomically, fsynced) on every epoch
// adoption — a node must never regress its epoch across a crash, or
// it could grant two primaries the same epoch.
const epochFile = "EPOCH"

// LoadEpoch reads the persisted election epoch; a missing file is
// epoch 0 (never participated in an election).
func LoadEpoch(root string) (int64, error) {
	data, err := os.ReadFile(filepath.Join(root, epochFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("replica: corrupt epoch file: %q", data)
	}
	return v, nil
}

// StoreEpoch durably persists the election epoch: write-temp, fsync,
// rename, fsync directory — the same discipline as every other
// durable file in the layout.
func StoreEpoch(root string, epoch int64) error {
	path := filepath.Join(root, epochFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteString(strconv.FormatInt(epoch, 10) + "\n")
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, derr := os.Open(root); derr == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// snapChunkSize bounds one snapshot chunk frame, well under the
// protocol's MaxFrame.
const snapChunkSize = 1 << 20

// parseInt parses a decimal position field.
func parseInt(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("replica: bad position field %q", s)
	}
	return v, nil
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
