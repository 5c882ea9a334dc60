package disclosure

import (
	"errors"
	"strings"
	"testing"
)

// figure1System wires the paper's running example end to end.
func figure1System(t *testing.T) *System {
	t.Helper()
	s := MustSchema(
		MustRelation("Meetings", "time", "person"),
		MustRelation("Contacts", "person", "email", "position"),
	)
	sys, err := NewSystem(s,
		MustParse("V1(t, p) :- Meetings(t, p)"),
		MustParse("V2(t) :- Meetings(t, p)"),
		MustParse("V3(p, e, r) :- Contacts(p, e, r)"),
	)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.LoadBatch(func(ld *Loader) error {
		ld.MustInsert("Meetings", "9", "Jim")
		ld.MustInsert("Meetings", "10", "Cathy")
		ld.MustInsert("Meetings", "12", "Bob")
		ld.MustInsert("Contacts", "Jim", "jim@e.com", "Manager")
		ld.MustInsert("Contacts", "Cathy", "cathy@e.com", "Intern")
		ld.MustInsert("Contacts", "Bob", "bob@e.com", "Consultant")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemSection11Policy(t *testing.T) {
	// Alice's policy from Section 1.1: disclose V2 (time slots) only.
	sys := figure1System(t)
	if err := sys.SetPolicy("scheduler-app", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	// A free-time query is admitted and answered.
	dec, rows, err := sys.Submit("scheduler-app", MustParse("Free(t) :- Meetings(t, p)"))
	if err != nil || !dec.Allowed {
		t.Fatalf("times query refused: %+v %v", dec, err)
	}
	if len(rows) != 3 {
		t.Errorf("rows = %v", rows)
	}
	// Q1 and Q2 from Figure 1 are refused, exactly as the paper says.
	for _, src := range []string{
		"Q1(x) :- Meetings(x, 'Cathy')",
		"Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
	} {
		dec, rows, err := sys.Submit("scheduler-app", MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Allowed || rows != nil {
			t.Errorf("%s was admitted under the V2-only policy", src)
		}
	}
}

func TestSystemChineseWall(t *testing.T) {
	sys := figure1System(t)
	if err := sys.SetPolicy("app", map[string][]string{
		"meetings": {"V1"},
		"contacts": {"V3"},
	}); err != nil {
		t.Fatal(err)
	}
	// Take the contacts branch.
	dec, rows, err := sys.Submit("app", MustParse("Q(p, e) :- Contacts(p, e, r)"))
	if err != nil || !dec.Allowed || len(rows) != 3 {
		t.Fatalf("contacts query: %+v %v %v", dec, rows, err)
	}
	// Meetings now refused.
	dec, _, err = sys.Submit("app", MustParse("Q(t) :- Meetings(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed {
		t.Error("meetings admitted after contacts access")
	}
	// Policy replacement resets the wall.
	if err := sys.SetPolicy("app", map[string][]string{
		"meetings": {"V1"},
		"contacts": {"V3"},
	}); err != nil {
		t.Fatal(err)
	}
	dec, _, _ = sys.Submit("app", MustParse("Q(t) :- Meetings(t, p)"))
	if !dec.Allowed {
		t.Error("meetings refused after policy reset")
	}
}

func TestSystemUnknownPrincipal(t *testing.T) {
	sys := figure1System(t)
	if _, _, err := sys.Submit("ghost", MustParse("Q(t) :- Meetings(t, p)")); err == nil {
		t.Error("principal without policy accepted")
	}
	if _, err := sys.Explain("ghost", MustParse("Q(t) :- Meetings(t, p)")); err == nil {
		t.Error("Explain for unknown principal accepted")
	}
}

func TestSystemExplain(t *testing.T) {
	sys := figure1System(t)
	if err := sys.SetPolicy("app", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	out, err := sys.Explain("app", MustParse("Q1(x) :- Meetings(x, 'Cathy')"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "V1") || !strings.Contains(out, "decision: false") {
		t.Errorf("Explain output:\n%s", out)
	}
}

func TestSystemLabelAndDissect(t *testing.T) {
	sys := figure1System(t)
	q2 := MustParse("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')")
	lbl, err := sys.Label(q2)
	if err != nil {
		t.Fatal(err)
	}
	rendered := lbl.Render(sys.Catalog())
	if !strings.Contains(rendered, "V1") || !strings.Contains(rendered, "V3") {
		t.Errorf("label(Q2) = %s, want {V1} ⊗ {V3}", rendered)
	}
	atoms, err := Dissect(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 2 {
		t.Errorf("Dissect returned %d atoms", len(atoms))
	}
}

func TestCompileFQLFacade(t *testing.T) {
	s := MustSchema(MustRelation("user", "uid", "name"))
	q, err := CompileFQL(s, "Q", "SELECT name FROM user WHERE uid = me()")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Head) != 1 {
		t.Errorf("compiled query %s", q)
	}
	if _, err := CompileFQL(s, "Q", "SELECT nope FROM user"); err == nil {
		t.Error("bad FQL accepted")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if _, err := NewRelation(""); err == nil {
		t.Error("empty relation name accepted")
	}
	r := MustRelation("R", "a")
	s, err := NewSchema(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseQuery("Q(x) :- R(x)"); err != nil {
		t.Error(err)
	}
	qs, err := ParseProgram("Q(x) :- R(x)\n# c\nP(y) :- R(y)")
	if err != nil || len(qs) != 2 {
		t.Errorf("ParseProgram: %v %v", qs, err)
	}
	c, err := NewCatalog(s, MustParse("V(x) :- R(x)"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(c, map[string][]string{"w": {"V"}})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(p)
	if m.LiveCount() != 1 {
		t.Error("monitor broken")
	}
	qm := NewQueryMonitor(NewLabeler(c), p)
	d, err := qm.Submit(MustParse("Q(x) :- R(x)"))
	if err != nil || !d.Allowed {
		t.Errorf("submit: %+v %v", d, err)
	}
	bl := NewBaselineLabeler(c)
	if bl.Name() != "baseline" {
		t.Error("baseline labeler wrong")
	}
	db := NewDatabase(s)
	if err := db.Insert("R", "1"); err != nil {
		t.Error(err)
	}
}

// TestRemovePolicyRetiresToken: on an in-memory System a token belongs to
// one principal at a time, and removing the principal retires its token,
// which another principal may then take.
func TestRemovePolicyRetiresToken(t *testing.T) {
	sys := figure1System(t)
	if err := sys.SetPolicy("app", map[string][]string{"all": {"V1"}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetToken("app", "tok"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetToken("other", "tok"); !errors.Is(err, ErrTokenTaken) {
		t.Fatalf("SetToken(other, app's token) = %v, want ErrTokenTaken", err)
	}
	if err := sys.RemovePolicy("app"); err != nil {
		t.Fatal(err)
	}
	if who, ok := sys.TokenOwner("tok"); ok {
		t.Fatalf("TokenOwner(tok) = %q after app's removal", who)
	}
	if err := sys.SetToken("other", "tok"); err != nil {
		t.Fatalf("SetToken(other, the retired token): %v", err)
	}
	if who, ok := sys.TokenOwner("tok"); !ok || who != "other" {
		t.Fatalf("TokenOwner(tok) = (%q, %v), want other", who, ok)
	}
}
