package protocol

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
)

// FuzzFrameReader reads a fuzzed sequence of reply and request frames
// of growing and shrinking sizes through one FrameReader and checks
// every frame against what the copying readers give for the same bytes.
// Strings taken from a reply, the way the clients take tuples, must be
// unchanged after every later frame is read into the same buffers. The
// string and field encoders (WriteCall, WriteReplyFields) must produce
// the bytes of the [][]byte ones.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{0x01, 3, 0x13, 200, 0x0e, 1, 0xa5, 255, 0x03, 0, 0x0f, 9})
	f.Add([]byte{0xaf, 255, 0x01, 1, 0xae, 255, 0x00, 0, 0x0b, 7})
	f.Add([]byte{0x0f, 0, 0x0f, 0})
	f.Fuzz(func(t *testing.T, spec []byte) {
		type frame struct {
			reply  bool
			fields [][]byte
		}
		var frames []frame
		var wire bytes.Buffer
		// Each byte pair is one frame: bit 0 of the first byte picks a
		// reply or a request, bits 1-3 the field count, bits 4-7 a shift
		// that scales the second byte into the first field's size (later
		// fields halve), so frames cross MaxKeptFrame in both directions.
		for i := 0; i+1 < len(spec) && wire.Len() < 4<<20; i += 2 {
			k := len(frames)
			fm := frame{reply: spec[i]&1 == 1, fields: make([][]byte, spec[i]>>1&7)}
			size := int(spec[i+1]) << (spec[i] >> 4 % 11)
			for j := range fm.fields {
				fm.fields[j] = bytes.Repeat([]byte{byte(k*8 + j + 1)}, size>>j)
			}
			frames = append(frames, fm)
			strs := make([]string, len(fm.fields))
			for j, b := range fm.fields {
				strs[j] = string(b)
			}
			var want, got bytes.Buffer
			if fm.reply {
				if err := WriteReply(&want, &Reply{Version: Version, Tag: uint16(k), Code: int32(-k), Fields: fm.fields}); err != nil {
					t.Fatal(err)
				}
				texts := make([]Field, len(strs))
				for j, str := range strs {
					texts[j] = Text(str)
				}
				if err := WriteReplyFields(&got, uint16(k), int32(-k), texts); err != nil {
					t.Fatal(err)
				}
			} else {
				// A query's first argument is its handle name; a frame
				// without arguments is a noop, which sends no name.
				c := &Call{Op: OpNoop, Tag: uint16(k), TraceID: fmt.Sprintf("t%d", k), MinPos: "1.2.3"}
				if len(strs) > 0 {
					c.Op, c.Name, c.Args = OpQuery, strs[0], strs[1:]
				}
				err := WriteRequest(&want, &Request{Version: Version, Op: c.Op, Tag: c.Tag,
					TraceID: c.TraceID, MinPos: c.MinPos, Args: fm.fields})
				if err != nil {
					t.Fatal(err)
				}
				if err := WriteCall(&got, c); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("frame %d: string encoder wrote %q, want %q", k, got.Bytes(), want.Bytes())
			}
			wire.Write(want.Bytes())
		}

		raw := wire.Bytes()
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(raw)))
		cp := bufio.NewReader(bytes.NewReader(raw))
		type kept struct {
			k      int
			tuple  []string
			fields [][]byte
		}
		var keep []kept
		var tuple []string
		for k, fm := range frames {
			var got, want [][]byte
			if fm.reply {
				rep, err := fr.ReadReply()
				if err != nil {
					t.Fatalf("frame %d: FrameReader.ReadReply: %v", k, err)
				}
				cpRep, err := ReadReply(cp)
				if err != nil {
					t.Fatalf("frame %d: ReadReply: %v", k, err)
				}
				if rep.Version != cpRep.Version || rep.Tag != cpRep.Tag || rep.Code != cpRep.Code || rep.Code != int32(-k) {
					t.Fatalf("frame %d: FrameReader %+v, ReadReply %+v", k, rep, cpRep)
				}
				got, want = rep.Fields, cpRep.Fields
				tuple = rep.AppendStrings(tuple[:0])
				keep = append(keep, kept{k, append([]string(nil), tuple...), fm.fields})
			} else {
				req, err := fr.ReadRequest()
				if err != nil {
					t.Fatalf("frame %d: FrameReader.ReadRequest: %v", k, err)
				}
				cpReq, err := ReadRequest(cp)
				if err != nil {
					t.Fatalf("frame %d: ReadRequest: %v", k, err)
				}
				if req.Tag != cpReq.Tag || req.TraceID != cpReq.TraceID || req.Tag != uint16(k) {
					t.Fatalf("frame %d: FrameReader %+v, ReadRequest %+v", k, req, cpReq)
				}
				got, want = req.Args, cpReq.Args
			}
			if len(got) != len(fm.fields) || len(want) != len(fm.fields) {
				t.Fatalf("frame %d: %d and %d fields, wrote %d", k, len(got), len(want), len(fm.fields))
			}
			for j := range fm.fields {
				if !bytes.Equal(got[j], fm.fields[j]) || !bytes.Equal(want[j], fm.fields[j]) {
					t.Fatalf("frame %d field %d differs from what was written", k, j)
				}
			}
		}
		if _, err := fr.ReadReply(); err != io.EOF {
			t.Fatalf("FrameReader past the last frame: %v", err)
		}
		for _, kp := range keep {
			for j, s := range kp.tuple {
				if s != string(kp.fields[j]) {
					t.Fatalf("tuple %d field %d changed after later frames were read", kp.k, j)
				}
			}
		}
		if cap(fr.buf) > MaxKeptFrame || cap(fr.fields) > maxKeepFields {
			t.Fatalf("reader keeps %d buffer bytes and %d field headers", cap(fr.buf), cap(fr.fields))
		}
	})
}
