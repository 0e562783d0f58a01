package queries

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"moira/internal/protocol"
)

// TestTypedTupleOrder: the executor's in-place sort of typed tuples
// puts them in the order slices.Compare gives their rendered []string
// form, for random tuples mixing text (numeric-looking too) with
// negative, zero and multi-digit integers.
func TestTypedTupleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	field := func() protocol.Field {
		switch rng.Intn(5) {
		case 0:
			return protocol.Int(rng.Int63n(200) - 100)
		case 1:
			return protocol.Int([]int64{0, -1, 10, 9, 100, math.MinInt64, math.MaxInt64}[rng.Intn(7)])
		case 2:
			return protocol.Text(strconv.Itoa(rng.Intn(200) - 100))
		case 3:
			return protocol.Text([]string{"", "-", "a", "10a", "9"}[rng.Intn(5)])
		}
		return protocol.Int(rng.Int63() >> rng.Intn(63))
	}
	for round := 0; round < 300; round++ {
		width := 1 + rng.Intn(4)
		r := &Req{q: &Query{Rows: &Schema{names: make([]string, width)}}}
		for i := rng.Intn(60) * width; i > 0; i-- {
			r.buf = append(r.buf, field())
		}
		sort.Sort((*tuples)(r))
		var got, want [][]string
		for i := 0; i < len(r.buf); i += width {
			tuple := make([]string, width)
			for j, f := range r.buf[i : i+width] {
				tuple[j] = f.String()
			}
			got = append(got, tuple)
		}
		want = slices.Clone(got)
		slices.SortStableFunc(want, slices.Compare)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("width %d: typed order\n%q\ntext order\n%q", width, got, want)
		}
	}
}

// TestEmitTextKeepsStrings: an EmitFunc's slice is reused per tuple,
// but the strings in it stay valid after the call, integer columns
// included; a caller that copies the slice keeps every tuple intact.
func TestEmitTextKeepsStrings(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 40; i++ {
		f.addUser(t, fmt.Sprintf("keep%02d", i))
	}
	var kept [][]string
	err := Execute(f.priv, "get_user_by_login", []string{"keep*"}, func(tuple []string) error {
		kept = append(kept, slices.Clone(tuple))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Later calls reuse the pooled request and its buffers.
	for i := 0; i < 10; i++ {
		Execute(f.priv, "get_all_logins", nil, func([]string) error { return nil })
	}
	i := 0
	err = ExecuteFields(f.priv, "get_user_by_login", []string{"keep*"}, func(tuple []protocol.Field) error {
		for j, fl := range tuple {
			if kept[i][j] != fl.String() {
				t.Errorf("tuple %d field %d: kept %q, now %q", i, j, kept[i][j], fl.String())
			}
		}
		i++
		return nil
	})
	if err != nil || i != len(kept) || len(kept) != 40 {
		t.Fatalf("%d typed tuples, %d kept, err %v", i, len(kept), err)
	}
}
