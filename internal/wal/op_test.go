package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fb"
	"repro/internal/store"
)

// decodeJSON is the reference decoder: encoding/json into an Op, then the
// exactly-one-field check.
func decodeJSON(payload []byte) (*Op, error) {
	op := &Op{}
	if err := json.Unmarshal(payload, op); err != nil {
		return nil, err
	}
	if op.count() != 1 {
		return nil, errors.New("not exactly one field")
	}
	return op, nil
}

// shapeOps are records in every shape the scanner takes: each field empty,
// null and filled where the encoder writes it, with strings that are plain
// ASCII or hold multi-byte UTF-8, which the encoder writes as it is.
func shapeOps() []*Op {
	return []*Op{
		{Rows: &RowsOp{}},
		{Rows: &RowsOp{Rows: []Row{}}},
		{Rows: &RowsOp{Rows: []Row{{Rel: "M", Values: []string{"10", "Cathy"}}, {Rel: "E"}, {Rel: "F", Values: []string{}}}}},
		{Rows: &RowsOp{Rows: []Row{{Rel: "user", Values: []string{"u7", "Zoë Ångström", "東京", "V1 ⊗ V2 ⊤", "\U0001F600"}}}}},
		{Token: &TokenOp{Principal: "åpp", Token: "tök"}},
		{Policy: &PolicyOp{Principal: "app"}},
		{Policy: &PolicyOp{Principal: "app", Partitions: map[string][]string{}}},
		{Policy: &PolicyOp{Principal: "app", Partitions: map[string][]string{"W1": {"V1"}, "W2": nil, "W3": {}}}},
		{Remove: &RemoveOp{Principal: "app"}},
		{Token: &TokenOp{Principal: "app", Token: "tok"}},
		{Transition: &TransitionOp{Principal: "app"}},
		{Transition: &TransitionOp{Principal: "app", Live: []string{}}},
		{Transition: &TransitionOp{Principal: "app", Live: []string{}, Cumulative: [][]string{{"V2", "V3"}, nil, {}}}},
	}
}

// TestScanOpShapes pins which payloads the scanner takes: every shape the
// encoder writes without an escape, decoded to the value it encoded, the
// unescaped strings encoding/json reads as they are but does not write,
// and none of the payloads op.go's file comment lists as declined.
func TestScanOpShapes(t *testing.T) {
	for _, op := range shapeOps() {
		payload, err := EncodeOp(op)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanOp(string(payload))
		if !ok {
			t.Errorf("the scanner declines the encoder's %s", payload)
			continue
		}
		if want, _ := decodeJSON(payload); !reflect.DeepEqual(got, want) {
			t.Errorf("%s scans to %+v, encoding/json decodes %+v", payload, got, want)
		}
	}
	for _, payload := range []string{
		`{"remove":{"principal":"a<b>&c"}}`,
		"{\"remove\":{\"principal\":\"a\u2028b\u2029c\x7f\"}}",
		"{\"token\":{\"principal\":\"app\",\"token\":\"\ufffd\"}}",
	} {
		got, ok := scanOp(payload)
		if !ok {
			t.Errorf("the scanner declines %s", payload)
			continue
		}
		if want, _ := decodeJSON([]byte(payload)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s scans to %+v, encoding/json decodes %+v", payload, got, want)
		}
	}
	declined := []string{
		legacyTransition,
		"{\"remove\":{\"principal\":\"a\xffb\"}}",
		"{\"remove\":{\"principal\":\"a\xed\xa0\x80\"}}",
		"{\"remove\":{\"principal\":\"a\tb\"}}",
		`{"rows":{"rows":[{"rel":"M","values":["a\u0026b"]}]}}`,
		`{"Token":{"principal":"app","token":"tok"}}`,
		`{"token":{"principal": "app","token":"tok"}}`,
		`{"token":{"principal":"app"}}`,
		`{"token":{"principal":"app","token":"\u0074ok"}}`,
		` {"remove":{"principal":"app"}}`,
		`{"remove":{"principal":"app"}}x`,
	}
	for _, op := range seedOps() {
		if op.Header != nil || op.Epoch != nil {
			payload, err := EncodeOp(op)
			if err != nil {
				t.Fatal(err)
			}
			declined = append(declined, string(payload))
		}
	}
	for _, payload := range declined {
		if _, ok := scanOp(payload); ok {
			t.Errorf("the scanner takes %s, which is encoding/json's to decode", payload)
		}
	}
}

// FuzzDecodeOpJSON holds DecodeOp to encoding/json on every payload: it
// succeeds exactly when json.Unmarshal into an Op and the exactly-one-field
// check do, and then to a deep-equal Op.
func FuzzDecodeOpJSON(f *testing.F) {
	for _, op := range append(seedOps(), shapeOps()...) {
		payload, err := EncodeOp(op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, payload := range []string{
		legacyTransition,
		`{}`,
		`null`,
		`{"rows":null}`,
		`{"rows":{"rows":[{"rel":"M","values":["a"]},{"rel":"M","values":["b"]}]},"rows":{}}`,
		`{"token":{"principal":"a","token":"t"},"remove":{"principal":"a"}}`,
		`{"Token":{"principal":"a","token":"t"}}`,
		`{"policy":{"principal":"a","partitions":{"W":["V1"],"W":["V2"]}}}`,
		`{"transition":{"principal":"a","live":["é"],"cumulative":null}}`,
		`{"rows":{"rows":[{"rel":"M","values":["Zoë","a\u0026b"]}]}}`,
		"{\"rows\":{\"rows\":[{\"rel\":\"M\",\"values\":[\"\xff\",\"<\u2028>\"]}]}}",
		`{"epoch":{"epoch":-0,"fenced":false}}`,
		`{"header":{"shard":"0","shards":-0,"generation":18446744073709551616,"records":1}}`,
		"{\"remove\":{\"principal\":\"a\"}} \n",
	} {
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := DecodeOp(payload)
		want, jerr := decodeJSON(payload)
		if (err == nil) != (jerr == nil) {
			t.Fatalf("DecodeOp(%q) err = %v, encoding/json err = %v", payload, err, jerr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeOp(%q) = %+v, encoding/json = %+v", payload, got, want)
		}
	})
}

// FuzzEncodeOpJSON holds EncodeOp to json.Marshal on records of every kind
// built from fuzz input: strings that need escaping or are not valid UTF-8,
// lists that are nil, empty or long, and maps with many keys. Header and
// epoch records are json.Marshal's own; they are here for AppendOp's
// dispatch.
func FuzzEncodeOpJSON(f *testing.F) {
	f.Add(uint8(0), "M", "10,Cathy", int64(3), uint64(5), false, uint8(2))
	f.Add(uint8(1), "app", "W1,W2", int64(0), uint64(0), true, uint8(3))
	f.Add(uint8(2), "a<b>&c", " ,\xff,é", int64(-1), uint64(1<<63), true, uint8(40))
	f.Add(uint8(6), "V1(t, p) :- M(t, p)", "t,p", int64(1), uint64(9), false, uint8(17))
	f.Fuzz(func(t *testing.T, kind uint8, a, b string, n int64, u uint64, flag bool, keys uint8) {
		list := func(s string) []string {
			if s == "" && flag {
				return nil
			}
			return strings.Split(s, ",")
		}
		object := func() map[string][]string {
			if keys == 0 && flag {
				return nil
			}
			m := make(map[string][]string, keys)
			parts := list(b)
			for i := 0; i < int(keys); i++ {
				m[a+strconv.Itoa(i)] = parts[:i%(len(parts)+1)]
			}
			return m
		}
		var op Op
		switch kind % 8 {
		case 0:
			op.Rows = &RowsOp{Rows: []Row{{Rel: a, Values: list(b)}, {Rel: b, Values: list(a)}, {Rel: a}}[:keys%4]}
			if keys%4 == 0 && flag {
				op.Rows.Rows = nil
			}
		case 1:
			op.Transition = &TransitionOp{Principal: a, Live: list(b), Cumulative: [][]string{list(a), list(b), nil}[:keys%4]}
		case 2:
			op.Policy = &PolicyOp{Principal: a, Partitions: object()}
		case 3:
			op.Token = &TokenOp{Principal: a, Token: b}
		case 4:
			op.Remove = &RemoveOp{Principal: b}
		case 5:
			op.Epoch = &EpochOp{Epoch: u, Fenced: flag}
		case 6:
			op.Header = &HeaderOp{Shard: a, Shards: int(n), Generation: u, Records: int(keys), Config: &store.Config{Views: list(b)}}
		default:
			op.Header = &HeaderOp{Shard: b, Shards: int(n), Generation: u, Records: int(keys)}
		}
		got, err := EncodeOp(&op)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&op)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeOp = %s\njson.Marshal = %s", got, want)
		}
	})
}

// graphRows returns the rows of the 300-user generated graph, duplicates
// excluded, as a checkpoint records them: one rows record of 2,934 rows.
func graphRows(tb testing.TB) *RowsOp {
	c := &rowCollector{seen: map[string]bool{}}
	if err := fb.GenerateGraph(c, 300, 2013); err != nil {
		tb.Fatal(err)
	}
	return &RowsOp{Rows: c.rows}
}

// rowCollector is an fb.Inserter that keeps each distinct row once.
type rowCollector struct {
	rows []Row
	seen map[string]bool
}

func (c *rowCollector) Insert(rel string, values ...string) error {
	key := rel + "\x00" + strings.Join(values, "\x00")
	if !c.seen[key] {
		c.seen[key] = true
		c.rows = append(c.rows, Row{Rel: rel, Values: values})
	}
	return nil
}

// BenchmarkOpCodec times the record codec on the two records that matter:
// a checkpoint's rows record of the 300-user graph, which bootstrap and
// recovery decode, and a transition, which every decision that moves a
// session encodes. encode is EncodeOp, which returns a new payload; append
// is AppendOp into a reused buffer, as a checkpoint writer encodes. Two
// variants of the rows record measure strings that are not plain ASCII:
// rows-utf8 gives every cell a non-ASCII letter, which the scanner reads;
// rows-escaped gives its last cell an &, written \u0026, which declines the
// whole record to encoding/json.
func BenchmarkOpCodec(b *testing.B) {
	graph := graphRows(b)
	utf8Rows := make([]Row, len(graph.Rows))
	for i, r := range graph.Rows {
		utf8Rows[i] = Row{Rel: r.Rel, Values: make([]string, len(r.Values))}
		for j, v := range r.Values {
			utf8Rows[i].Values[j] = v + "ö"
		}
	}
	escRows := slices.Clone(graph.Rows)
	last := &escRows[len(escRows)-1]
	last.Values = append(slices.Clone(last.Values[:len(last.Values)-1]), last.Values[len(last.Values)-1]+"&")
	ops := []struct {
		name string
		op   *Op
	}{
		{"rows", &Op{Rows: graph}},
		{"rows-utf8", &Op{Rows: &RowsOp{Rows: utf8Rows}}},
		{"rows-escaped", &Op{Rows: &RowsOp{Rows: escRows}}},
		{"transition", &Op{Transition: &TransitionOp{Principal: "app", Live: []string{"W2", "W3"}, Cumulative: [][]string{{"V2", "V3"}, {"V5"}}}}},
	}
	for _, c := range ops {
		payload, err := EncodeOp(c.op)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := EncodeOp(c.op); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			buf := make([]byte, 0, len(payload))
			for i := 0; i < b.N; i++ {
				if buf, err = AppendOp(buf[:0], c.op); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeOp(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGraphRowsRecord pins BenchmarkOpCodec's input to the record it stands
// for: the 300-user graph is 2,934 distinct rows and 25,902 cells.
func TestGraphRowsRecord(t *testing.T) {
	rows := graphRows(t).Rows
	cells := 0
	for _, r := range rows {
		cells += len(r.Values)
	}
	if len(rows) != 2934 || cells != 25902 {
		t.Fatalf("the 300-user graph is %d rows and %d cells, want 2934 and 25902", len(rows), cells)
	}
}
