package protocol

import (
	"bufio"
	"bytes"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Version: Version, Op: OpQuery, TraceID: "t1234-7",
		Args: [][]byte{[]byte("get_user_by_login"), []byte("babette")}}
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != "t1234-7" {
		t.Errorf("trace = %q", got.TraceID)
	}
	if args := got.StringArgs(); len(args) != 2 || args[0] != "get_user_by_login" {
		t.Errorf("args = %v", args)
	}
}

func TestEmptyTraceOnV2(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{Version: Version, Op: OpNoop}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != "" || len(got.Args) != 0 {
		t.Errorf("got = %+v", got)
	}
}
