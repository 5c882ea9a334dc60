package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
)

// explanations are refusals in every shape encoding/json distinguishes:
// labels with the lattice's ⊤ and ⊗, one and three partitions, partition
// and view lists nil (null) and empty ([]), and strings the encoder
// escapes — & and U+2028 in a view name, and invalid UTF-8 in a label,
// which it writes as �.
func explanations() []policy.Explanation {
	return []policy.Explanation{
		{Query: "Q", Label: "⊤", Cumulative: "⊥", Partitions: []policy.PartitionStatus{{Name: "all", Views: []string{"user_basic", "friend_list"}, Live: true}}},
		{Query: "Q", Label: "{a} ⊗ {b}", Admissible: true, Cumulative: "{a}", Partitions: []policy.PartitionStatus{
			{Name: "profile", Views: []string{"user_basic"}, Live: true, Dominates: true},
			{Name: "media", Views: []string{"album_friends", "photo_friends"}},
			{Name: "places", Views: []string{}, Live: true},
		}},
		{Query: "Q", Label: "⊥", Cumulative: "⊥"},
		{Query: "Q", Label: "⊥", Cumulative: "⊥", Partitions: []policy.PartitionStatus{}},
		{Query: "Q", Label: "⊥", Cumulative: "⊥", Partitions: []policy.PartitionStatus{{Name: "W"}}},
		{Query: "Q", Label: "{v}", Cumulative: "⊥", Partitions: []policy.PartitionStatus{{Name: "W", Views: []string{"Tom & Jerry"}}}},
		{Query: "Q", Label: "{v}", Cumulative: "⊥", Partitions: []policy.PartitionStatus{{Name: "W", Views: []string{"line\u2028sep"}}}},
		{Query: "Q", Label: "{bad \xff}", Cumulative: "⊥"},
		{Query: `"q"`, Label: "⊥", Cumulative: "⊥"},
	}
}

// TestExplanationReader holds Scanner.Explanation to AppendExplanation and
// encoding/json: an object the encoder writes without an escape is read to
// encoding/json's value, on a string and on a bytes body, with the
// position past it; one with an escape, and every object not in the
// encoder's shape, is declined with the position, the cells and the value
// untouched.
func TestExplanationReader(t *testing.T) {
	for _, e := range explanations() {
		obj := string(AppendExplanation(nil, &e))
		var want policy.Explanation
		if err := json.Unmarshal([]byte(obj), &want); err != nil {
			t.Fatal(err)
		}
		escaped := strings.Contains(obj, `\`)
		for _, sc := range []interface {
			Explanation(*policy.Explanation) bool
		}{&Scanner[string]{Body: obj + ","}, &Scanner[[]byte]{Body: []byte(obj + ",")}} {
			var got policy.Explanation
			if ok := sc.Explanation(&got); ok == escaped {
				t.Fatalf("Explanation(%s) = %v, want %v", obj, ok, !escaped)
			} else if ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("Explanation(%s)\n got %+v\nwant %+v", obj, got, want)
			}
		}
	}
	for _, obj := range []string{
		`{"label":"⊤","query":"Q","admissible":false,"cumulative":"⊥","partitions":null}`,
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":"⊥","partitions":null,"x":1}`,
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":"⊥","partitions":[{"name":"W","views":["a"],"live":true,"dominates":false,"x":1}]}`,
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":null,"partitions":null}`,
		`{"query":"Q","label":"⊤","admissible":0,"cumulative":"⊥","partitions":null}`,
		`{"query":"Q", "label":"⊤","admissible":false,"cumulative":"⊥","partitions":null}`,
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":"⊥","partitions":[null]}`,
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":"⊥","partitions":[{"name":"W","views":["a",],"live":true,"dominates":false}]}`,
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":"⊥","partitions":[{"name":"W","views":["a"],"live":true,"dominates":false}`,
		"{\"query\":\"Q\",\"label\":\"\xed\xa0\x80\",\"admissible\":false,\"cumulative\":\"⊥\",\"partitions\":null}",
		"{\"query\":\"Q\x01\",\"label\":\"⊤\",\"admissible\":false,\"cumulative\":\"⊥\",\"partitions\":null}",
		`{"query":"Q","label":"⊤"false,"cumulative":"⊥","partitions":null}`,
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":"⊥","partitions":}`,
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":"⊥","partitions":[{"name":"W","views":["a"],"live":true,"dominates":false]}`,
		`null`, ``,
	} {
		cells := []string{"kept"}
		sc := Scanner[string]{Body: obj, Cells: cells[:1]}
		got := policy.Explanation{Query: "before"}
		if sc.Explanation(&got) || sc.Pos != 0 || len(sc.Cells) != 1 || got.Query != "before" {
			t.Errorf("Explanation(%s) was not declined cleanly: pos %d, %d cells, %+v", obj, sc.Pos, len(sc.Cells), got)
		}
	}
}
