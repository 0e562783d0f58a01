package update

import (
	"errors"
	"fmt"
	"reflect"
	"unsafe"
)

// LineTable is a service's parsed copy of an installed file made of
// entries: a line that starts a key, and the lines after it that
// continue it (a mail alias and its indented lines, a hesiod name's run
// of records; in a credentials, quotas or passwd file a line never
// continues). Each key is one row, its lines folded into one value. ID
// is the install ID of the bytes the rows reflect ("" when unknown),
// which decides each reload's Action. A file in which a key starts two
// entries is never patched: its table is tagged unknown, so every
// reload parses it whole until the repeat is gone.
type LineTable[K comparable, V any] struct {
	ID   string
	Rows map[K]V
}

// LineKind is what a line is to the entries of its file.
type LineKind int

const (
	// Skip: the line holds no entry (blank, a comment).
	Skip LineKind = iota
	// Starts: the line starts an entry.
	Starts
	// Continues: the line continues the entry open above it.
	Continues
)

// Parser is how a service reads its table file, a line at a time.
type Parser[K comparable, V any] struct {
	// Key gives a line's kind and, for a line that starts an entry, its
	// key. open is the key of the entry open above the line, nil when
	// none is: a line that continues it is under open's key.
	Key func(line string, open *K) (K, LineKind, error)
	// Fold parses a line that holds an entry and folds it into val, the
	// value of its key so far: zero for a key not met yet, the open
	// entry's for a continuation, the first entry's when a key starts a
	// second. The line is a copy (see Lines), so the value may keep it.
	Fold func(val V, line string) (V, error)
}

// TablePlan is a LineTable reload that has been parsed and validated;
// Commit applies it.
type TablePlan[K comparable, V any] struct {
	keep bool
	id   string
	rows map[K]V    // a whole parse: replaces the rows
	gone map[K]bool // a patch: drop these, then add put
	put  map[K]V
}

// Plan plans the reload of t from fv, or, when fv is nil (no push view),
// from data, the file as read from disk (Install.Read hands a reload
// both). Only a whole parse reads the file whole: a patch reads fv's
// edit ranges, and around each the nearest entry line above and below
// it. A parse error leaves nothing to commit.
func (t *LineTable[K, V]) Plan(fv *File, data Text, p Parser[K, V]) (TablePlan[K, V], error) {
	if fv == nil {
		return p.parse(data, "")
	}
	switch fv.Action(t.ID) {
	case Keep:
		return TablePlan[K, V]{keep: true}, nil
	case Patch:
		if plan, ok := t.patch(fv, p); ok {
			return plan, nil
		}
	}
	return p.parse(fv.New, fv.NewID)
}

// patch drops the key of every entry in fv's old ranges and parses the
// entries of its new ones. Rows reflect fv.Old, where no key starts two
// entries, so that is exact when every range holds whole entries and no
// new key is held outside the old ranges or given twice. ok is false
// otherwise, or when a line does not parse: the file is then parsed
// whole, which reports the error.
func (t *LineTable[K, V]) patch(fv *File, p Parser[K, V]) (plan TablePlan[K, V], ok bool) {
	plan = TablePlan[K, V]{id: fv.NewID}
	if len(fv.Edits) == 0 {
		return plan, true
	}
	plan.gone, plan.put = map[K]bool{}, map[K]V{}
	for _, e := range fv.Edits {
		ok = p.entries(fv.Old, e.Old, false, func(k K, _ LineKind, _ string) bool {
			plan.gone[k] = true
			return true
		})
		if !ok {
			return plan, false // the rows do not reflect fv.Old after all
		}
	}
	for _, e := range fv.Edits {
		ok = p.entries(fv.New, e.New, true, func(k K, kind LineKind, line string) bool {
			if kind == Starts {
				_, held := t.Rows[k]
				if _, dup := plan.put[k]; held && !plan.gone[k] || dup {
					return false
				}
			}
			var err error
			plan.put[k], err = p.Fold(plan.put[k], line)
			return err == nil
		})
		if !ok {
			return plan, false
		}
	}
	return plan, true
}

var (
	errWhole = errors.New("parse the file whole")
	errStop  = errors.New("past the range")
)

// entries calls fn with each line of text in r that holds an entry, its
// kind and its entry's key, and reports whether r holds whole entries
// and every call returned true. r holds whole entries when its first
// entry line does not continue the entry open above r, and the first
// entry line after r does not continue the last one open in it. Lines
// are read one by one, so what a value keeps of one pins no other. A
// line is copied only when fn folds it (fold) or it starts an entry
// (for the key fn gets); fn gets "" for a line not copied.
func (p Parser[K, V]) entries(text Text, r Range, fold bool, fn func(k K, kind LineKind, line string) bool) bool {
	var key K
	var open *K
	k, ok, err := p.openAt(text, r.Lo)
	if err != nil {
		return false
	}
	if ok {
		key, open = k, &key
	}
	first := true
	err = text.Lines(Range{r.Lo, text.Len()}, func(raw []byte, off int) error {
		_, kind, err := p.Key(view(raw), open)
		switch {
		case err != nil:
			return err
		case kind == Skip:
			return nil
		case kind == Continues && (first || off >= r.Hi):
			return errWhole
		case off >= r.Hi:
			return errStop
		}
		// What fn keeps must outlive raw: the copy it folds, and a
		// Starts line's key, taken from a copy.
		line := ""
		if fold || kind == Starts {
			line = string(raw)
		}
		if kind == Starts {
			key, _, _ = p.Key(line, open)
			open = &key
		}
		first = false
		if !fn(key, kind, line) {
			return errWhole
		}
		return nil
	})
	return err == nil || err == errStop
}

// view is b as a string, without a copy, for asking Key what a line is.
// It is valid only while b is, so nothing Key returns from it is kept.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// openAt is the key of the entry open at lo, a line boundary of text:
// that of the nearest line above lo that starts an entry. ok is false
// when no line does.
func (p Parser[K, V]) openAt(text Text, lo int) (key K, ok bool, err error) {
	for hi := lo; hi > 0; {
		end := hi
		if text.at(hi-1) == '\n' {
			end--
		}
		start := text.lastNewline(0, end) + 1
		_, kind, err := p.Key(view(text.bytes(start, end)), nil)
		if err != nil {
			return key, false, err
		}
		if kind == Starts {
			// The key outlives the window the line was read through.
			key, _, err = p.Key(text.String(Range{start, end}), nil)
			return key, err == nil, err
		}
		hi = start
	}
	return key, false, nil
}

// parse parses data whole into rows tagged id, or unknown if a key
// starts two entries.
func (p Parser[K, V]) parse(data Text, id string) (TablePlan[K, V], error) {
	plan := TablePlan[K, V]{id: id, rows: map[K]V{}}
	var key K
	var open *K
	entries := 0
	err := Lines(data, Range{0, data.Len()}, func(line string, off int) error {
		k, kind, err := p.Key(line, open)
		switch {
		case err != nil || kind == Skip:
		case kind == Starts:
			key, open = k, &key
			entries++
		case open == nil:
			err = errors.New("continuation without an entry")
		}
		if err == nil && kind != Skip {
			plan.rows[key], err = p.Fold(plan.rows[key], line)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", data.LineNo(off), err)
		}
		return nil
	})
	if err != nil {
		return TablePlan[K, V]{}, err
	}
	if entries != len(plan.rows) {
		plan.id = ""
	}
	return plan, nil
}

// Commit applies a plan. The caller serializes Plan and Commit against
// other reloads of t, and holds whatever lock its readers take.
func (t *LineTable[K, V]) Commit(p TablePlan[K, V]) {
	switch {
	case p.keep:
		return
	case p.rows != nil:
		t.Rows = p.rows
	default:
		for k := range p.gone {
			delete(t.Rows, k)
		}
		for k, v := range p.put {
			t.Rows[k] = v
		}
	}
	t.ID = p.id
}

// Verify reports the first way t's rows differ from a whole parse of
// data, the file as installed: a different number of rows, or a key
// whose row is missing or not deeply equal to the parsed one. It is the
// services' oracle that their reloads applied exactly what is there.
func (t *LineTable[K, V]) Verify(data Text, p Parser[K, V]) error {
	want, err := p.parse(data, "")
	if err != nil {
		return err
	}
	if len(t.Rows) != len(want.rows) {
		return fmt.Errorf("%d rows held, the file gives %d", len(t.Rows), len(want.rows))
	}
	for k, w := range want.rows {
		if g, ok := t.Rows[k]; !ok || !reflect.DeepEqual(g, w) {
			return fmt.Errorf("%v is %+v (held: %v), the file gives %+v", k, g, ok, w)
		}
	}
	return nil
}
