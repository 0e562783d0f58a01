package protocol

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// randomField is text (often numeric-looking, so it interleaves with
// integers in the order) or an integer of any sign and length.
func randomField(rng *rand.Rand) Field {
	switch rng.Intn(6) {
	case 0:
		return Int([]int64{0, -1, 1, 9, 10, -10, math.MaxInt64, math.MinInt64}[rng.Intn(8)])
	case 1:
		return Int(rng.Int63n(2000) - 1000)
	case 2:
		return Int(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
	case 3:
		return Text(strconv.Itoa(rng.Intn(2000) - 1000))
	case 4:
		return Text([]string{"", "-", "0a", "9", "a", "-9223372036854775809", "\xff"}[rng.Intn(7)])
	}
	b := make([]byte, rng.Intn(4))
	for i := range b {
		b[i] = "-09az"[rng.Intn(5)]
	}
	return Text(string(b))
}

// TestFieldText: a field's length, appended text and string are its
// decimal or literal text.
func TestFieldText(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		f := randomField(rng)
		want := f.s
		if f.IsInt() {
			want = strconv.FormatInt(f.n, 10)
		}
		if f.String() != want || f.Len() != len(want) || string(f.Append([]byte("x"))) != "x"+want {
			t.Fatalf("%+v: String %q, Len %d, Append %q; want %q", f, f.String(), f.Len(), f.Append([]byte("x")), want)
		}
	}
}

// TestFieldCompareIsTextOrder: fields compare as their rendered text
// does, whatever mix of integers (negative, multi-digit) and text.
func TestFieldCompareIsTextOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		f, g := randomField(rng), randomField(rng)
		if got, want := f.Compare(g), strings.Compare(f.String(), g.String()); got != want {
			t.Fatalf("Compare(%q, %q) = %d, the text compares %d", f, g, got, want)
		}
	}
}

// TestWriteReplyFieldsIsWriteReply: a typed frame is byte-identical to
// WriteReply of the rendered fields, and is refused like it.
func TestWriteReplyFieldsIsWriteReply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		fields := make([]Field, rng.Intn(14))
		raw := make([][]byte, len(fields))
		for j := range fields {
			fields[j] = randomField(rng)
			raw[j] = []byte(fields[j].String())
		}
		tag, code := uint16(rng.Intn(1<<16)), int32(rng.Int63()-rng.Int63())
		var got, want bytes.Buffer
		if err := WriteReplyFields(&got, tag, code, fields); err != nil {
			t.Fatal(err)
		}
		if err := WriteReply(&want, &Reply{Version: Version, Tag: tag, Code: code, Fields: raw}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("fields %q: WriteReplyFields wrote %q, WriteReply %q", fields, got.Bytes(), want.Bytes())
		}
	}
	var w bytes.Buffer
	if err := WriteReplyFields(&w, 0, 0, make([]Field, MaxFields+1)); err == nil || w.Len() != 0 {
		t.Errorf("%d fields: err %v after writing %d bytes", MaxFields+1, err, w.Len())
	}
	big := []Field{Int(1), Text(strings.Repeat("x", MaxFrame))}
	if err := WriteReplyFields(&w, 0, 0, big); err == nil || w.Len() != 0 {
		t.Errorf("over MaxFrame: err %v after writing %d bytes", err, w.Len())
	}
}
