package wal

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

// legacyTransition is a transition written when sessions still kept
// decision tallies: it carries them, and decodes to the same session state
// without them.
const legacyTransition = `{"transition":{"principal":"app","live":["W2"],"cumulative":[["V3"]],"accepted":4,"refused":5}}`

// seedOps is one record of every kind a log segment or a checkpoint can
// carry.
func seedOps() []*Op {
	return []*Op{
		{Header: &HeaderOp{Shard: MetaShard, Shards: 2, Generation: 5, Records: 9, Config: &store.Config{
			Schema: []store.RelationDef{{Name: "M", Attrs: []string{"t", "p"}}},
			Views:  []string{"V1(t, p) :- M(t, p)"},
		}}},
		{Header: &HeaderOp{Shard: DataShard, Shards: 1}},
		{Rows: &RowsOp{Rows: []Row{{Rel: "M", Values: []string{"10", "Cathy"}}}}},
		{Policy: &PolicyOp{Principal: "app", Partitions: map[string][]string{"W1": {"V1"}, "W2": {"V3"}}}},
		{Remove: &RemoveOp{Principal: "app"}},
		{Token: &TokenOp{Principal: "app", Token: "tok"}},
		{Transition: &TransitionOp{Principal: "app", Live: []string{"W2"}, Cumulative: [][]string{{"V2", "V3"}}}},
		{Transition: &TransitionOp{Principal: "app", Live: []string{"W1", "W2"}}},
		{Epoch: &EpochOp{Epoch: 2}},
		{Epoch: &EpochOp{Epoch: 7, Fenced: true}},
	}
}

// FuzzDecodeOp feeds arbitrary payloads — what a CRC-valid frame of a
// foreign or damaged log could hold — to the operation decoder. It must
// never panic, and on every payload it accepts, decode∘encode is the
// identity: re-encoding the decoded operation and decoding that again
// yields the same record.
func FuzzDecodeOp(f *testing.F) {
	for _, op := range seedOps() {
		payload, err := EncodeOp(op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	legacy := []byte(legacyTransition)
	if op, err := DecodeOp(legacy); err != nil || op.Transition == nil || op.Transition.Principal != "app" ||
		len(op.Transition.Live) != 1 || op.Transition.Live[0] != "W2" || len(op.Transition.Cumulative) != 1 {
		f.Fatalf("legacy transition decodes to %+v (err=%v)", op, err)
	}
	f.Add(legacy)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"token":{"principal":"a","token":"t"},"remove":{"principal":"a"}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, err := DecodeOp(payload)
		if err != nil {
			return
		}
		once, err := EncodeOp(op)
		if err != nil {
			t.Fatalf("accepted operation %q does not re-encode: %v", payload, err)
		}
		again, err := DecodeOp(once)
		if err != nil {
			t.Fatalf("re-encoded operation %q does not decode: %v", once, err)
		}
		twice, err := EncodeOp(again)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("decode∘encode moved %q to %q (err=%v)", once, twice, err)
		}
	})
}

// FuzzFrames feeds arbitrary bytes — what a follower could be streamed, or
// a torn segment could hold — to the frame decoder. It must never panic or
// consume past the buffer, and the frames it yields, framed again, are
// exactly the bytes it consumed.
func FuzzFrames(f *testing.F) {
	var all []byte
	for _, op := range seedOps() {
		payload, err := EncodeOp(op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(appendFrame(nil, payload))
		all = appendFrame(all, payload)
	}
	f.Add(appendFrame(nil, []byte(legacyTransition)))
	all = appendFrame(all, []byte(legacyTransition))
	f.Add(all)
	f.Add(all[:len(all)-3])                           // torn tail
	f.Add(append(bytes.Clone(all[:headerSize]), 'x')) // short payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix
	f.Fuzz(func(t *testing.T, buf []byte) {
		var reframed []byte
		consumed, err := Frames(buf, func(payload []byte) error {
			reframed = appendFrame(reframed, payload)
			_, _ = DecodeOp(payload)
			return nil
		})
		if consumed < 0 || consumed > len(buf) {
			t.Fatalf("consumed %d of %d bytes (err=%v)", consumed, len(buf), err)
		}
		if !bytes.Equal(reframed, buf[:consumed]) {
			t.Fatalf("the %d consumed bytes do not re-frame to themselves", consumed)
		}
	})
}
