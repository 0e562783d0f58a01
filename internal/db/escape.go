package db

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// The mrbackup ASCII format (section 5.2.2): each row of a relation is a
// single line of colon-separated fields. Colons and backslashes inside
// fields are replaced by \: and \\ respectively, and non-printing
// characters by \nnn where nnn is the octal ASCII code. The journal
// writes its records in the same format, through the same escaper and
// field splitter.

// appendEscaped appends s, escaped, to dst.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != 0x7f && c != ':' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		if c == ':' || c == '\\' {
			dst = append(dst, '\\', c)
		} else {
			dst = append(dst, '\\', '0'+c>>6, '0'+c>>3&7, '0'+c&7)
		}
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// appendRow appends the escaped fields, joined with colons, to dst.
func appendRow(dst []byte, fields []string) []byte {
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, ':')
		}
		dst = appendEscaped(dst, f)
	}
	return dst
}

// EscapeField escapes one field for the backup format.
func EscapeField(s string) string { return string(appendEscaped(nil, s)) }

// EncodeRow joins escaped fields with colons.
func EncodeRow(fields []string) string { return string(appendRow(nil, fields)) }

// appendUnescaped appends the field s, unescaped, to dst. Malformed
// escapes are an error.
func appendUnescaped[T string | []byte](dst []byte, s T) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		if i >= len(s) {
			return dst, fmt.Errorf("db: trailing backslash in field %q", s)
		}
		switch s[i] {
		case ':', '\\':
			dst = append(dst, s[i])
		default:
			if i+2 >= len(s) {
				return dst, fmt.Errorf("db: short octal escape in field %q", s)
			}
			var v int
			for j := 0; j < 3; j++ {
				d := s[i+j]
				if d < '0' || d > '7' {
					return dst, fmt.Errorf("db: bad octal escape in field %q", s)
				}
				v = v*8 + int(d-'0')
			}
			if v > 0xff {
				return dst, fmt.Errorf("db: octal escape out of range in field %q", s)
			}
			dst = append(dst, byte(v))
			i += 2
		}
	}
	return dst, nil
}

// UnescapeField reverses EscapeField. Malformed escapes are an error.
func UnescapeField(s string) (string, error) {
	b, err := appendUnescaped(nil, s)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// cutField splits the first field, still escaped, off a line. Splitting
// honours escapes: a colon preceded by an unescaped backslash is field
// content. more reports whether another field follows.
func cutField[T string | []byte](line T) (field, rest T, more bool) {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			i++
		case ':':
			return line[:i], line[i+1:], true
		}
	}
	return line, line[len(line):], false
}

// DecodeRow splits a backup line into unescaped fields.
func DecodeRow(line string) ([]string, error) {
	var out []string
	for more := true; more; {
		var f string
		f, line, more = cutField(line)
		u, err := UnescapeField(f)
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}

// fields is the column walker a row's columns method drives (records.go):
// encoding, it appends each column, escaped, to line; decoding, it fills
// each column from line's next field. So one method per row type states
// the row's format for both directions.
type fields struct {
	decode bool
	line   []byte // encoding: the row so far; decoding: the fields not yet read
	n      int    // encoding: columns written
	more   bool   // decoding: line holds another field
	buf    []byte // decoding: unescape scratch
	err    error  // decoding: the first error
}

// encode starts a row's line; write ends it and writes it to w.
func (f *fields) encode() { f.line, f.n = f.line[:0], 0 }

func (f *fields) write(w *bufio.Writer) error {
	f.line = append(f.line, '\n')
	_, err := w.Write(f.line)
	return err
}

// decodeLine starts reading a row from line; done reports the first
// error, or a row with fields its columns did not read.
func (f *fields) decodeLine(line []byte) {
	f.decode, f.line, f.more, f.err = true, line, true, nil
}

func (f *fields) done() error {
	if f.more {
		f.fail(fmt.Errorf("db: row too long: %q left", f.line))
	}
	return f.err
}

func (f *fields) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// next returns the next field, unescaped, when decoding; encoding, it
// appends the separator before every column but the first.
func (f *fields) next() []byte {
	if !f.decode {
		if f.n++; f.n > 1 {
			f.line = append(f.line, ':')
		}
		return nil
	}
	if !f.more {
		f.fail(errors.New("db: row too short"))
		return nil
	}
	var field []byte
	field, f.line, f.more = cutField(f.line)
	if bytes.IndexByte(field, '\\') < 0 {
		return field
	}
	var err error
	if f.buf, err = appendUnescaped(f.buf[:0], field); err != nil {
		f.fail(err)
	}
	return f.buf
}

func (f *fields) str(ps ...*string) *fields {
	for _, p := range ps {
		if b := f.next(); f.decode {
			*p = string(b)
		} else {
			f.line = appendEscaped(f.line, *p)
		}
	}
	return f
}

func (f *fields) int64(ps ...*int64) *fields {
	for _, p := range ps {
		if b := f.next(); !f.decode {
			f.line = strconv.AppendInt(f.line, *p, 10)
		} else if v, err := strconv.ParseInt(string(b), 10, 64); err == nil {
			*p = v
		} else {
			f.fail(fmt.Errorf("db: bad integer %q", b))
		}
	}
	return f
}

func (f *fields) int(ps ...*int) *fields {
	for _, p := range ps {
		v := int64(*p)
		if f.int64(&v); f.decode {
			*p = int(v)
		}
	}
	return f
}

// bool columns are 1 and 0; a load takes anything but 0 and the empty
// field as true.
func (f *fields) bool(ps ...*bool) *fields {
	for _, p := range ps {
		if b := f.next(); f.decode {
			*p = len(b) > 0 && string(b) != "0"
		} else if *p {
			f.line = append(f.line, '1')
		} else {
			f.line = append(f.line, '0')
		}
	}
	return f
}

// mod lists the modification audit triple's columns.
func (f *fields) mod(m *ModInfo) *fields { return f.int64(&m.Time).str(&m.By, &m.With) }
