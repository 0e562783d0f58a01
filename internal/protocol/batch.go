package protocol

import (
	"fmt"
	"strconv"
)

// BatchItem is one mutation inside an OpBatch request: a query name and
// its arguments, exactly as they would have gone into one OpQuery.
type BatchItem struct {
	Name string
	Args []string
}

// Batch wire shape (the arguments of one OpBatch request):
//
//	itemCount | (name | argCount | arg...)*
//
// with itemCount and argCount as decimal strings. The per-item result
// codes come back as the fields of a single MR_MORE_DATA reply frame,
// one decimal code per item in submission order, followed by the usual
// final frame carrying the overall code.

// EncodeBatch flattens items into OpBatch request arguments.
func EncodeBatch(items []BatchItem) []string {
	out := make([]string, 0, 1+2*len(items))
	out = append(out, strconv.Itoa(len(items)))
	for _, it := range items {
		out = append(out, it.Name, strconv.Itoa(len(it.Args)))
		out = append(out, it.Args...)
	}
	return out
}

// DecodeBatch parses OpBatch request arguments back into items. Args
// may alias a transient frame buffer; every byte the items need is
// copied out by the string conversions here.
func DecodeBatch(args [][]byte) ([]BatchItem, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("protocol: empty batch")
	}
	n, err := strconv.Atoi(string(args[0]))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("protocol: bad batch item count %q", args[0])
	}
	args = args[1:]
	items := make([]BatchItem, 0, n)
	for i := 0; i < n; i++ {
		if len(args) < 2 {
			return nil, fmt.Errorf("protocol: truncated batch item %d", i)
		}
		name := string(args[0])
		argc, err := strconv.Atoi(string(args[1]))
		if err != nil || argc < 0 || argc > len(args)-2 {
			return nil, fmt.Errorf("protocol: bad argument count %q in batch item %d", args[1], i)
		}
		item := BatchItem{Name: name, Args: make([]string, argc)}
		for j := 0; j < argc; j++ {
			item.Args[j] = string(args[2+j])
		}
		items = append(items, item)
		args = args[2+argc:]
	}
	if len(args) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing batch arguments", len(args))
	}
	return items, nil
}

// EncodeBatchCodes renders per-item result codes as reply fields.
func EncodeBatchCodes(codes []int32) [][]byte {
	out := make([][]byte, len(codes))
	for i, c := range codes {
		out[i] = []byte(strconv.FormatInt(int64(c), 10))
	}
	return out
}

// DecodeBatchCodes parses the per-item code fields of a batch reply.
func DecodeBatchCodes(fields [][]byte) ([]int32, error) {
	out := make([]int32, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseInt(string(f), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("protocol: bad batch code %q", f)
		}
		out[i] = int32(v)
	}
	return out, nil
}
