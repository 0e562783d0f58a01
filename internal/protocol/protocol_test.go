package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"moira/internal/mrerr"
)

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Version: Version, Op: OpQuery,
		Args: [][]byte{[]byte("get_user_by_login"), []byte("babette")}}
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.Op != OpQuery {
		t.Errorf("head = %+v", got)
	}
	args := got.StringArgs()
	if len(args) != 2 || args[0] != "get_user_by_login" || args[1] != "babette" {
		t.Errorf("args = %v", args)
	}
}

// TestRequestLen: RequestLen is the length WriteRequest writes for a
// request, less the frame's length word.
func TestRequestLen(t *testing.T) {
	for n := 0; n < 40; n += 7 {
		args := make([][]byte, n)
		for i := range args {
			args[i] = bytes.Repeat([]byte{'a'}, i*i)
		}
		req := &Request{Version: Version, Op: 25, Tag: 3, TraceID: "0123456789abcdef/0123", MinPos: "7", Args: args}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		if got := RequestLen(req); got != buf.Len()-4 {
			t.Errorf("%d arguments: RequestLen %d, frame %d bytes after its length", n, got, buf.Len()-4)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rep := &Reply{Version: Version, Code: int32(mrerr.MrMoreData),
		Fields: [][]byte{[]byte("babette"), []byte("6530"), nil}}
	if err := WriteReply(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReply(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != int32(mrerr.MrMoreData) {
		t.Errorf("code = %d", got.Code)
	}
	if f := got.StringFields(); len(f) != 3 || f[0] != "babette" || f[2] != "" {
		t.Errorf("fields = %v", f)
	}
}

func TestNegativeCodeSurvives(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReply(&buf, &Reply{Version: Version, Code: -42}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReply(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != -42 {
		t.Errorf("code = %d", got.Code)
	}
}

func TestEmptyArgsAndBinaryData(t *testing.T) {
	var buf bytes.Buffer
	bin := []byte{0, 1, 2, 255, 254, '\n', ':'}
	if err := WriteRequest(&buf, &Request{Version: Version, Op: OpAuth, Args: [][]byte{bin}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Args[0], bin) {
		t.Errorf("binary arg = %v", got.Args[0])
	}

	buf.Reset()
	if err := WriteRequest(&buf, &Request{Version: Version, Op: OpNoop}); err != nil {
		t.Fatal(err)
	}
	got, err = ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Args) != 0 {
		t.Errorf("noop args = %v", got.Args)
	}
}

func TestPipelinedFrames(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteRequest(&buf, &Request{Version: Version, Op: OpNoop}); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i := 0; i < 5; i++ {
		if _, err := ReadRequest(r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

func TestMalformedFrames(t *testing.T) {
	// Oversized declared length.
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(MaxFrame+1))
	if _, err := ReadRequest(bufio.NewReader(&buf)); err == nil {
		t.Error("oversized frame accepted")
	}
	// Truncated payload.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(100))
	buf.WriteString("short")
	if _, err := ReadRequest(bufio.NewReader(&buf)); err == nil {
		t.Error("truncated frame accepted")
	}
	// Field length lies.
	buf.Reset()
	payload := make([]byte, 0)
	payload = binary.BigEndian.AppendUint16(payload, uint16(Version))
	payload = binary.BigEndian.AppendUint16(payload, OpNoop)
	payload = binary.BigEndian.AppendUint32(payload, 1)    // one field
	payload = binary.BigEndian.AppendUint32(payload, 1000) // of length 1000
	payload = append(payload, 'x')                         // but only 1 byte
	binary.Write(&buf, binary.BigEndian, uint32(len(payload)))
	buf.Write(payload)
	if _, err := ReadRequest(bufio.NewReader(&buf)); err == nil {
		t.Error("lying field length accepted")
	}
	// Trailing garbage.
	buf.Reset()
	payload = payload[:8] // version+op+nfields(=1) ... rewrite with 0 fields
	payload = payload[:0]
	payload = binary.BigEndian.AppendUint16(payload, uint16(Version))
	payload = binary.BigEndian.AppendUint16(payload, OpNoop)
	payload = binary.BigEndian.AppendUint32(payload, 0)
	payload = append(payload, 0xde, 0xad)
	binary.Write(&buf, binary.BigEndian, uint32(len(payload)))
	buf.Write(payload)
	if _, err := ReadRequest(bufio.NewReader(&buf)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestPropertyRequestRoundTrip(t *testing.T) {
	f := func(op uint16, args [][]byte) bool {
		if len(args) > 64 {
			args = args[:64]
		}
		total := 0
		for _, a := range args {
			total += len(a)
		}
		if total > 1<<20 {
			return true
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, &Request{Version: Version, Op: op, Args: args}); err != nil {
			return false
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil || got.Op != op || len(got.Args) != len(args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(got.Args[i], args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpNames(t *testing.T) {
	for op, want := range map[uint16]string{
		OpNoop: "noop", OpAuth: "auth", OpQuery: "query",
		OpAccess: "access", OpTriggerDCM: "trigger_dcm", OpShutdown: "shutdown",
		99: "op99",
	} {
		if got := OpName(op); got != want {
			t.Errorf("OpName(%d) = %q, want %q", op, got, want)
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	req := &Request{Version: Version, Op: OpQuery,
		Args: [][]byte{[]byte("get_user_by_login"), []byte("babette")}}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteRequest(&buf, req); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadRequest(bufio.NewReader(&buf)); err != nil {
			b.Fatal(err)
		}
	}
}
