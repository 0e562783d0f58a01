package update

import (
	"errors"
	"fmt"
)

// LineTable is a service's parsed copy of an installed file whose lines
// are independent entries, such as a credentials, quotas or passwd
// file: each line the parser accepts is one row under its key, a later
// line for a key replacing an earlier one. ID is the install ID of the
// bytes the rows reflect ("" when unknown), which decides each reload's
// Action. A file in which a key repeats is never patched: its table is
// tagged unknown, so every reload parses it whole until the repeat is
// gone.
type LineTable[K comparable, V any] struct {
	ID   string
	Rows map[K]V
}

// LineParser parses one line into its row. skip reports a line that
// holds no row (blank, comment). The line is a copy (see Lines), so the
// row may keep it.
type LineParser[K comparable, V any] func(line string) (key K, val V, skip bool, err error)

// TablePlan is a LineTable reload that has been parsed and validated;
// Commit applies it.
type TablePlan[K comparable, V any] struct {
	keep bool
	id   string
	rows map[K]V    // a whole parse: replaces the rows
	gone map[K]bool // a patch: drop these, then add put
	put  map[K]V
}

// errWhole stops a patch that meets a repeated key: parse the file whole.
var errWhole = errors.New("key repeats")

// Plan plans the reload of t from fv, or, when fv is nil (no push view),
// from data, the file as read from disk (Install.Read hands a reload
// both). Only a whole parse reads the file whole: a patch reads fv's
// edit ranges. A parse error leaves nothing to commit.
func (t *LineTable[K, V]) Plan(fv *File, data Text, parse LineParser[K, V]) (TablePlan[K, V], error) {
	if fv == nil {
		return parseTable(data, "", parse)
	}
	switch fv.Action(t.ID) {
	case Keep:
		return TablePlan[K, V]{keep: true}, nil
	case Patch:
		p, err := t.patch(fv, parse)
		if err != errWhole {
			return p, err
		}
	}
	return parseTable(fv.New, fv.NewID, parse)
}

// patch drops the row of every old line in the edits and parses every
// new line. Rows reflect fv.Old, where no key repeats, so each old line
// is its key's only line; a new key that is already held and not being
// dropped, or that the new lines give twice, repeats in fv.New. The old
// lines are read an edit at a time (nothing keeps them), the new ones
// line by line (rows keep them).
func (t *LineTable[K, V]) patch(fv *File, parse LineParser[K, V]) (TablePlan[K, V], error) {
	p := TablePlan[K, V]{id: fv.NewID, gone: map[K]bool{}, put: map[K]V{}}
	for _, e := range fv.Edits {
		old := fv.Old.Sub(e.Old)
		err := parseLines(old, Range{0, old.Len()}, parse, func(k K, _ V) error {
			p.gone[k] = true
			return nil
		})
		if err != nil {
			return p, errWhole // the rows do not reflect fv.Old after all
		}
	}
	for _, e := range fv.Edits {
		err := parseLines(fv.New, e.New, parse, func(k K, v V) error {
			if _, held := t.Rows[k]; held && !p.gone[k] {
				return errWhole
			}
			if _, dup := p.put[k]; dup {
				return errWhole
			}
			p.put[k] = v
			return nil
		})
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// parseTable parses data whole into rows tagged id, or unknown if a key
// repeats.
func parseTable[K comparable, V any](data Text, id string, parse LineParser[K, V]) (TablePlan[K, V], error) {
	p := TablePlan[K, V]{id: id, rows: map[K]V{}}
	lines := 0
	err := parseLines(data, Range{0, data.Len()}, parse, func(k K, v V) error {
		p.rows[k] = v
		lines++
		return nil
	})
	if err != nil {
		return TablePlan[K, V]{}, err
	}
	if lines != len(p.rows) {
		p.id = ""
	}
	return p, nil
}

// parseLines parses the rows of data in r, handing each to row.
func parseLines[K comparable, V any](data Text, r Range, parse LineParser[K, V], row func(K, V) error) error {
	return Lines(data, r, func(line string, off int) error {
		k, v, skip, err := parse(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", data.LineNo(off), err)
		}
		if skip {
			return nil
		}
		return row(k, v)
	})
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
