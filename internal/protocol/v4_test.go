package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strconv"
	"testing"

	"moira/internal/mrerr"
)

func TestTagRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Version: Version, Op: OpQuery, Tag: 41799, TraceID: "t1-1",
		Args: [][]byte{[]byte("get_machine"), []byte("X")}}
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 41799 || got.TraceID != "t1-1" {
		t.Errorf("tag=%d trace=%q", got.Tag, got.TraceID)
	}
	if args := got.StringArgs(); len(args) != 2 || args[0] != "get_machine" {
		t.Errorf("args = %v", args)
	}

	for _, rep := range []*Reply{
		{Version: Version, Tag: 7, Code: int32(mrerr.MrMoreData), Fields: [][]byte{[]byte("f")}},
		{Version: Version, Tag: 65535, Code: 0},
	} {
		buf.Reset()
		if err := WriteReply(&buf, rep); err != nil {
			t.Fatal(err)
		}
		got, err := ReadReply(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if got.Tag != rep.Tag || got.Code != rep.Code {
			t.Errorf("got tag=%d code=%d, want tag=%d code=%d", got.Tag, got.Code, rep.Tag, rep.Code)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	items := []BatchItem{
		{Name: "add_user", Args: []string{"babette", "501", "staff"}},
		{Name: "add_machine", Args: []string{"vax1.mit.edu", "VAX"}},
		{Name: "noargs"},
	}
	args := EncodeBatch(items)
	back, err := DecodeBatch(BytesArgs(args))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(items) {
		t.Fatalf("got %d items", len(back))
	}
	for i := range items {
		if back[i].Name != items[i].Name || len(back[i].Args) != len(items[i].Args) {
			t.Errorf("item %d = %+v, want %+v", i, back[i], items[i])
		}
		for j := range items[i].Args {
			if back[i].Args[j] != items[i].Args[j] {
				t.Errorf("item %d arg %d = %q", i, j, back[i].Args[j])
			}
		}
	}

	codes := []int32{0, int32(mrerr.MrExists), int32(mrerr.MrPerm)}
	codesBack, err := DecodeBatchCodes(EncodeBatchCodes(codes))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		if codesBack[i] != c {
			t.Errorf("code %d = %d, want %d", i, codesBack[i], c)
		}
	}
}

func TestDecodeBatchMalformed(t *testing.T) {
	cases := [][]string{
		{},                               // empty
		{"x"},                            // bad count
		{"-1"},                           // negative count
		{"2", "add_user", "0"},           // truncated item list
		{"1", "add_user", "3", "a"},      // argc beyond args
		{"1", "add_user", "x", "a"},      // bad argc
		{"1", "add_user", "1", "a", "b"}, // trailing args
	}
	for i, c := range cases {
		if _, err := DecodeBatch(BytesArgs(c)); err == nil {
			t.Errorf("case %d (%q): no error", i, c)
		}
	}
	if _, err := DecodeBatchCodes([][]byte{[]byte("zero")}); err == nil {
		t.Error("bad code accepted")
	}
}

// TestFieldCopyNoFramePinning is the satellite-3 regression: keeping
// one small field from a large frame must not pin the frame. Before the
// fix, fields aliased the full payload allocation, so eight retained
// 16-byte fields below would hold eight 8 MB payloads (~64 MB) live.
func TestFieldCopyNoFramePinning(t *testing.T) {
	const frames, big = 8, 8 << 20
	mkFrame := func() []byte {
		var buf bytes.Buffer
		err := WriteReply(&buf, &Reply{Version: Version, Code: int32(mrerr.MrMoreData),
			Fields: [][]byte{bytes.Repeat([]byte("k"), 16), make([]byte, big)}})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var keep [][]byte
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < frames; i++ {
		rep, err := ReadReply(bufio.NewReader(bytes.NewReader(mkFrame())))
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, rep.Fields[0]) // tiny field only
	}
	delta := int64(heap()) - int64(before)
	if delta > 2*big {
		t.Errorf("retaining %d tiny fields holds %d bytes live; fields are pinning their frames", frames, delta)
	}
	runtime.KeepAlive(keep)
}

// TestFrameReaderZeroCopy exercises the server-side fast path: argument
// bytes alias the reused buffer and stay valid until the next read, and
// an oversized frame does not leave its buffer cached on the reader.
func TestFrameReaderZeroCopy(t *testing.T) {
	var buf bytes.Buffer
	for _, q := range []string{"first", "second"} {
		err := WriteRequest(&buf, &Request{Version: Version, Op: OpQuery, Tag: 3,
			TraceID: "t-fr", Args: [][]byte{[]byte(q)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bufio.NewReader(&buf))
	r1, err := fr.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tag != 3 || string(r1.Args[0]) != "first" {
		t.Fatalf("r1 = %+v", r1)
	}
	r2, err := fr.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if string(r2.Args[0]) != "second" {
		t.Fatalf("r2 args = %q", r2.Args)
	}
	if _, err := fr.ReadRequest(); err != io.EOF {
		t.Fatalf("EOF read: %v", err)
	}

	// A big frame must not stay cached.
	buf.Reset()
	err = WriteRequest(&buf, &Request{Version: Version, Op: OpQuery,
		Args: [][]byte{make([]byte, 1<<20)}})
	if err != nil {
		t.Fatal(err)
	}
	fr = NewFrameReader(bufio.NewReader(&buf))
	if _, err := fr.ReadRequest(); err != nil {
		t.Fatal(err)
	}
	if fr.buf != nil {
		t.Errorf("frame reader kept a %d-byte buffer past MaxKeptFrame", cap(fr.buf))
	}
}

// rawRequest frames fields under a request head verbatim, with none of
// the header fields WriteRequest adds: the shapes a sender that is not
// this package could put on the wire.
func rawRequest(version, op uint16, fields ...[]byte) []byte {
	var head [4]byte
	binary.BigEndian.PutUint16(head[0:2], version)
	binary.BigEndian.PutUint16(head[2:4], op)
	var buf bytes.Buffer
	if err := writeFrame(&buf, head[:], nil, fields); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestRequestHeaderFieldsRequired: a frame stamped Version must carry
// its tag (exactly 2 bytes), trace and position fields. Short of that it
// is a framing error from both readers — not a request whose first real
// argument is taken for the trace ID.
func TestRequestHeaderFieldsRequired(t *testing.T) {
	tag := []byte{0, 7}
	cases := []struct {
		name   string
		fields [][]byte
		ok     bool
	}{
		{"no fields", nil, false},
		{"tag only", [][]byte{tag}, false},
		{"tag and trace, no position", [][]byte{tag, []byte("t1-1")}, false},
		{"two args where the header belongs", [][]byte{[]byte("get_machine"), []byte("X")}, false},
		{"1-byte tag", [][]byte{{7}, []byte("t1-1"), nil}, false},
		{"3-byte tag", [][]byte{{0, 0, 7}, []byte("t1-1"), nil}, false},
		{"header only", [][]byte{tag, nil, nil}, true},
		{"header and args", [][]byte{tag, []byte("t1-1"), []byte("1.2.3"), []byte("get_machine"), []byte("X")}, true},
	}
	for _, c := range cases {
		raw := rawRequest(Version, OpQuery, c.fields...)
		read := map[string]func() (*Request, error){
			"ReadRequest": func() (*Request, error) {
				return ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
			},
			"FrameReader": func() (*Request, error) {
				return NewFrameReader(bufio.NewReader(bytes.NewReader(raw))).ReadRequest()
			},
		}
		for reader, fn := range read {
			req, err := fn()
			if c.ok != (err == nil) {
				t.Errorf("%s, %s: err = %v, want ok=%v", c.name, reader, err, c.ok)
				continue
			}
			if c.ok && (req.Tag != 7 || len(req.Args) != len(c.fields)-3) {
				t.Errorf("%s, %s: tag=%d args=%q", c.name, reader, req.Tag, req.Args)
			}
		}
	}
}

// TestForeignVersionStaysRaw: a request stamped any other version comes
// back with every field still in Args, whatever its shape, so a listener
// can refuse it with MR_VERSION_MISMATCH on a stream that is still
// framed.
func TestForeignVersionStaysRaw(t *testing.T) {
	for _, v := range []uint16{0, 1, 4, Version + 1, Version + 9} {
		for _, fields := range [][][]byte{
			nil,
			{[]byte("get_machine"), []byte("X")},
			{{0, 7}, []byte("t1-1"), nil, []byte("get_machine")},
		} {
			req, err := ReadRequest(bufio.NewReader(bytes.NewReader(rawRequest(v, OpQuery, fields...))))
			if err != nil {
				t.Fatalf("v%d %q: %v", v, fields, err)
			}
			if req.Version != v || req.Op != OpQuery || req.Tag != 0 || req.TraceID != "" ||
				req.MinPos != "" || len(req.Args) != len(fields) {
				t.Errorf("v%d %q: parsed %+v, want the fields raw", v, fields, req)
			}
		}
	}
}

// TestGoldenFrames pins the wire bytes of one request and one reply:
// captured from WriteRequest/WriteReply before the pre-v5 dialects were
// deleted, so the one remaining layout is provably the old v5 layout.
func TestGoldenFrames(t *testing.T) {
	const (
		wantReq = "\x00\x00\x00C\x00\x05\x00\x03\x00\x00\x00\x05\x00\x00\x00\x02\x124" +
			"\x00\x00\x00\at1-9/s3\x00\x00\x00\x062.3.17" +
			"\x00\x00\x00\x11get_user_by_login\x00\x00\x00\ababette"
		wantRep = "\x00\x00\x00#\x00\x05\x124\xff\xff\xffi\x00\x00\x00\x03" +
			"\x00\x00\x00\ababette\x00\x00\x00\x00\x00\x00\x00\x046530"
	)
	var buf bytes.Buffer
	err := WriteRequest(&buf, &Request{Version: Version, Op: OpQuery, Tag: 0x1234,
		TraceID: "t1-9/s3", MinPos: "2.3.17",
		Args: [][]byte{[]byte("get_user_by_login"), []byte("babette")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != wantReq {
		t.Errorf("request frame = %q, want %q", got, wantReq)
	}
	buf.Reset()
	err = WriteReply(&buf, &Reply{Version: Version, Tag: 0x1234, Code: -151,
		Fields: [][]byte{[]byte("babette"), nil, []byte("6530")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != wantRep {
		t.Errorf("reply frame = %q, want %q", got, wantRep)
	}
}

// FuzzFrameRoundTrip checks write/read canonicality for requests and
// replies at Version, that a request at any other version round-trips
// raw and is never split, and that corrupted or header-less frames are
// rejected instead of desynchronizing or crashing the parser.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint16(5), uint16(3), uint16(0), "", []byte("get_machine"), []byte("X"), int32(0), uint8(0), int64(0))
	f.Add(uint16(5), uint16(8), uint16(17), "t1-9/s3", []byte("add_user"), []byte(""), int32(-151), uint8(3), int64(6530))
	f.Add(uint16(1), uint16(2), uint16(9), "t", []byte{0, 1, 2}, []byte("x"), int32(10), uint8(200), int64(-1))
	f.Add(uint16(4), uint16(3), uint16(9), "t", []byte{0, 7}, []byte("x"), int32(10), uint8(1), int64(600000000))
	// Header-defect shapes for the header-less framings below: a 1-byte
	// and a 3-byte tag (the first seed already puts a real argument
	// where the tag belongs).
	f.Add(uint16(5), uint16(3), uint16(0), "", []byte{7}, []byte("t1-1"), int32(0), uint8(0), int64(-9223372036854775808))
	f.Add(uint16(5), uint16(3), uint16(0), "", []byte{0, 0, 7}, []byte("t1-1"), int32(0), uint8(0), int64(9223372036854775807))
	f.Fuzz(func(t *testing.T, version, op, tag uint16, trace string, a1, a2 []byte, code int32, chop uint8, n int64) {
		req := &Request{Version: Version, Op: op, Tag: tag, TraceID: trace,
			Args: [][]byte{a1, a2}}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Skip() // oversized input
		}
		raw := append([]byte(nil), buf.Bytes()...)
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("request round trip: %v", err)
		}
		if got.Version != Version || got.Op != op || got.Tag != tag || got.TraceID != trace ||
			len(got.Args) != 2 || !bytes.Equal(got.Args[0], a1) || !bytes.Equal(got.Args[1], a2) {
			t.Fatalf("request mismatch: wrote %+v, read %+v", req, got)
		}

		// The same frame stamped any other version is handed back whole:
		// five raw fields, nothing split off.
		if version != Version {
			foreign := append([]byte(nil), raw...)
			binary.BigEndian.PutUint16(foreign[4:6], version)
			got, err := ReadRequest(bufio.NewReader(bytes.NewReader(foreign)))
			if err != nil {
				t.Fatalf("foreign-version request: %v", err)
			}
			if got.Version != version || got.Tag != 0 || got.TraceID != "" || len(got.Args) != 5 ||
				!bytes.Equal(got.Args[3], a1) || !bytes.Equal(got.Args[4], a2) {
				t.Fatalf("foreign-version request was split: %+v", got)
			}
		}
		// a1, a2 framed with no header in front: two fields are one short
		// of the three a Version frame must carry.
		if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(rawRequest(Version, op, a1, a2)))); err == nil {
			t.Fatal("two-field Version frame accepted")
		}
		// With a third field the frame is well formed exactly when a1 is
		// a 2-byte tag.
		_, err = ReadRequest(bufio.NewReader(bytes.NewReader(rawRequest(Version, op, a1, a2, nil))))
		if (err == nil) != (len(a1) == 2) {
			t.Fatalf("three-field Version frame with %d-byte tag: err = %v", len(a1), err)
		}

		// A truncated stream must error, never hang or mis-parse.
		if n := int(chop); n > 0 && n < len(raw) {
			if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(raw[:len(raw)-n]))); err == nil {
				t.Fatal("truncated frame accepted")
			}
		}
		// An oversized length prefix must be rejected up front.
		huge := append([]byte(nil), raw...)
		binary.BigEndian.PutUint32(huge[:4], MaxFrame+1)
		if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(huge))); err == nil {
			t.Fatal("oversized frame accepted")
		}

		rep := &Reply{Version: version, Tag: tag, Code: code, Fields: [][]byte{a2, a1}}
		buf.Reset()
		if err := WriteReply(&buf, rep); err != nil {
			t.Skip()
		}
		gotRep, err := ReadReply(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("reply round trip: %v", err)
		}
		if gotRep.Version != version || gotRep.Tag != tag || gotRep.Code != code ||
			len(gotRep.Fields) != 2 || !bytes.Equal(gotRep.Fields[0], a2) || !bytes.Equal(gotRep.Fields[1], a1) {
			t.Fatalf("reply mismatch: wrote %+v, read %+v", rep, gotRep)
		}

		// A typed reply, an integer between the two texts, is the frame
		// WriteReply sends for the rendered fields, and reads back so.
		typed := []Field{Text(string(a2)), Int(n), Text(string(a1))}
		rendered := [][]byte{a2, []byte(strconv.FormatInt(n, 10)), a1}
		var typedWire, want bytes.Buffer
		if err := WriteReplyFields(&typedWire, tag, code, typed); err != nil {
			t.Fatalf("typed reply: %v", err)
		}
		if err := WriteReply(&want, &Reply{Version: Version, Tag: tag, Code: code, Fields: rendered}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(typedWire.Bytes(), want.Bytes()) {
			t.Fatalf("typed reply %q: wrote %q, WriteReply %q", typed, typedWire.Bytes(), want.Bytes())
		}
		gotRep, err = ReadReply(bufio.NewReader(&typedWire))
		if err != nil || gotRep.Tag != tag || gotRep.Code != code || len(gotRep.Fields) != 3 ||
			string(gotRep.Fields[1]) != strconv.FormatInt(n, 10) {
			t.Fatalf("typed reply read back as %+v, %v", gotRep, err)
		}
	})
}
