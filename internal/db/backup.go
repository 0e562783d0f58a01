package db

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"moira/internal/clock"
)

// mrbackup / mrrestore: dump every relation to a colon-escaped ASCII file
// and rebuild a database from such a dump. The dump is the designated
// disaster-recovery mechanism (section 5.2.2) because the binary database
// can corrupt silently; the ASCII files cannot.

// DumpTable writes one relation to w in backup format, each row as its
// columns method lists it, escaped straight into the buffered writer.
// Caller must hold at least the shared lock.
func (d *DB) DumpTable(name string, w io.Writer) error {
	for _, rel := range relationList {
		if rel.tableName() == name {
			bw := bufio.NewWriter(w)
			if err := rel.dump(d, &fields{}, bw); err != nil {
				return err
			}
			return bw.Flush()
		}
	}
	return fmt.Errorf("db: unknown table %q", name)
}

// loadTable reads one relation from r in backup format, appending its
// rows. Caller must hold the exclusive lock. It installs rows only (and
// the name index an upsert needs); the caller derives the indexes once
// every table is in (rebuildIndexes): index state is never persisted, it
// is always rebuilt from loaded rows.
func (d *DB) loadTable(rel relation, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	f := &fields{}
	for lineno := 1; sc.Scan(); lineno++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := rel.load(d, f, sc.Bytes()); err != nil {
			return fmt.Errorf("db: %s line %d: %w", rel.tableName(), lineno, err)
		}
	}
	return sc.Err()
}

// dumpSnapshotLocked writes every relation plus a MANIFEST into dir
// (which must already exist), fsyncing each file. Caller holds at least
// the shared lock. gen and journalSeq are recorded in the manifest.
func (d *DB) dumpSnapshotLocked(dir string, gen, journalSeq int64) error {
	m := &Manifest{Generation: gen, Time: d.Now(), JournalSeq: journalSeq}
	for i, rel := range relationList {
		if i == len(relationList)/2 {
			if err := fireCrash("checkpoint.midtables"); err != nil {
				return err
			}
		}
		f, err := os.Create(filepath.Join(dir, rel.tableName()))
		if err != nil {
			return err
		}
		hw := &hashingWriter{w: f, h: sha256.New()}
		err = d.DumpTable(rel.tableName(), hw)
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		m.Tables = append(m.Tables, ManifestTable{Name: rel.tableName(), SHA: hw.sum(), Rows: hw.rows})
	}
	return WriteManifest(dir, m)
}

// Backup dumps every relation to files named <dir>/<table> plus a
// MANIFEST recording each table's SHA-256 and row count. This is the
// mrbackup operation. It takes the shared lock itself; callers must not
// hold it.
//
// The dump is atomic in the sense that matters for 5.2.2's recovery
// story: at every instant a complete, manifest-verified backup exists
// on disk. It is written to a sibling temporary directory (dir.tmp,
// MANIFEST last) and swapped into place only once complete, so a crash
// mid-dump never damages the previous backup. The swap itself is two
// renames — dir moves aside to dir.prev, then dir.tmp moves in — so a
// crash between them leaves dir transiently missing, with the old
// backup intact at dir.prev and the new one complete at dir.tmp;
// Restore (and therefore mrrestore) resolves that window
// automatically, preferring the completed dir.tmp.
func (d *DB) Backup(dir string) error {
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	d.LockShared()
	err := d.dumpSnapshotLocked(tmp, 0, 0)
	d.UnlockShared()
	if err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if err := fireCrash("checkpoint.prerename"); err != nil {
		return err
	}
	// Swap: the previous backup stays intact (as dir.prev) until the new
	// one is fully in place.
	prev := dir + ".prev"
	if err := os.RemoveAll(prev); err != nil {
		return err
	}
	if _, serr := os.Stat(dir); serr == nil {
		if err := os.Rename(dir, prev); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	return os.RemoveAll(prev)
}

// resolveBackupDir maps a backup path to the directory Restore should
// actually read. Normally that is dir itself; when dir does not exist,
// a crash between Backup's two renames is the likely cause, and the
// data survives as dir.tmp (the new backup, complete iff its MANIFEST
// verifies — it is written last) or dir.prev (the displaced previous
// backup). Preferring the verified tmp restores the newest state.
func resolveBackupDir(dir string) (string, error) {
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	} else if !os.IsNotExist(err) {
		return "", err
	}
	if tmp := dir + ".tmp"; manifestVerifies(tmp) {
		return tmp, nil
	}
	if prev := dir + ".prev"; dirExists(prev) {
		return prev, nil
	}
	return dir, nil // fail with the original not-exist error
}

// manifestVerifies reports whether dir holds a complete snapshot: a
// MANIFEST whose per-table hashes and row counts all check out.
func manifestVerifies(dir string) bool {
	m, err := ReadManifest(dir)
	return err == nil && m.Verify(dir) == nil
}

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// Restore builds a fresh database from a backup directory. This is the
// mrrestore operation: the original insists on an empty target database,
// so Restore always returns a new DB rather than loading into an existing
// one. clk may be nil for the system clock.
//
// When the directory carries a MANIFEST (every snapshot written by this
// code does), Restore verifies every table file's SHA-256 and row count
// against it first and refuses a snapshot that fails — a backup with a
// single flipped byte must not silently become the authoritative
// database. Manifest-less directories (hand-edited dumps, pre-manifest
// backups) load unverified as before.
//
// When dir itself is missing, Restore checks for the debris of a crash
// inside Backup's two-rename swap window: a completed dir.tmp (its
// MANIFEST is written last and must verify) is the newer backup and is
// preferred; otherwise the displaced previous backup at dir.prev is
// used. Only with neither present does Restore fail.
func Restore(dir string, clk clock.Clock) (*DB, error) {
	dir, rerr := resolveBackupDir(dir)
	if rerr != nil {
		return nil, rerr
	}
	if m, err := ReadManifest(dir); err == nil {
		if err := m.Verify(dir); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	d := New(clk)
	// Clear the seeded values so the dump's values relation governs.
	valuesRel.init(&d.relations)
	d.LockExclusive()
	defer d.UnlockExclusive()
	for _, rel := range relationList {
		f, err := os.Open(filepath.Join(dir, rel.tableName()))
		if err != nil {
			return nil, err
		}
		err = d.loadTable(rel, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	d.rebuildIndexes()
	// The in-memory change sequence restarts at zero, but the dump may
	// carry the DCM's stored generation sequences; advance past them so
	// post-restore changes are never mistaken for "already generated".
	d.values.rows.each(func(v *value) bool {
		if strings.HasPrefix(v.Name, GenSeqPrefix) && int64(v.Value) > d.seqCounter {
			d.seqCounter = int64(v.Value)
		}
		return true
	})
	return d, nil
}
