// BYOD: the corporate bring-your-own-device scenario from the paper's
// introduction ("the corporate world is also becoming increasingly
// dependent on app ecosystems through BYOD solutions... these use cases
// demand significantly more complex security policies").
//
// One device hosts corporate mail metadata, a customer list and personal
// photos. Three apps run concurrently against a thread-safe policy store:
// a corporate CRM (customers but never personal data), a personal gallery
// (photos only), and a compliance scanner under a Chinese Wall (it may
// audit either mail or customers in one session, never both). At the end,
// each app's session report shows its cumulative disclosure.
//
// Run with: go run ./examples/byod
package main

import (
	"fmt"
	"log"
	"sync"

	disclosure "repro"
	"repro/internal/label"
	"repro/internal/policy"
)

func main() {
	s := disclosure.MustSchema(
		disclosure.MustRelation("Mail", "msgid", "peer", "subject"),
		disclosure.MustRelation("Customers", "name", "segment", "contract"),
		disclosure.MustRelation("Photos", "file", "place", "taken"),
	)
	views := []*disclosure.Query{
		disclosure.MustParse("mail_meta(m, p) :- Mail(m, p, s)"),
		disclosure.MustParse("mail_full(m, p, s) :- Mail(m, p, s)"),
		disclosure.MustParse("customers(n, g, c) :- Customers(n, g, c)"),
		disclosure.MustParse("customer_names(n) :- Customers(n, g, c)"),
		disclosure.MustParse("photos(f, p, t) :- Photos(f, p, t)"),
	}
	cat, err := label.NewCatalog(s, views...)
	if err != nil {
		log.Fatal(err)
	}
	labeler := label.NewLabeler(cat)

	store := policy.NewConcurrentStore()
	mustPolicy := func(app string, parts map[string][]string) {
		p, err := policy.New(cat, parts)
		if err != nil {
			log.Fatal(err)
		}
		store.SetPolicy(app, p)
	}
	mustPolicy("crm", map[string][]string{"corp": {"customers", "mail_meta"}})
	mustPolicy("gallery", map[string][]string{"personal": {"photos"}})
	mustPolicy("compliance", map[string][]string{
		"audit-mail":      {"mail_full"},
		"audit-customers": {"customers"},
	})

	sessions := map[string][]string{
		"crm": {
			"Q(n, g) :- Customers(n, g, c)",
			"Q(m, p) :- Mail(m, p, s)",
			"Q(f) :- Photos(f, p, t)", // personal data → refused
		},
		"gallery": {
			"Q(f, p) :- Photos(f, p, t)",
			"Q(n) :- Customers(n, g, c)", // corporate data → refused
		},
		"compliance": {
			"Q(m, p, s) :- Mail(m, p, s)",     // picks the mail side of the wall
			"Q(n) :- Customers(n, g, c)",      // now refused
			"Q(m) :- Mail(m, p, 'quarterly')", // still fine
		},
	}

	var wg sync.WaitGroup
	// mu serializes the output and verdicts: app → (accepted, refused).
	var mu sync.Mutex
	verdicts := make(map[string][2]int)
	for app, queries := range sessions {
		wg.Add(1)
		go func(app string, queries []string) {
			defer wg.Done()
			var accepted, refused int
			for _, src := range queries {
				q := disclosure.MustParse(src)
				lbl, err := labeler.Label(q)
				if err != nil {
					log.Fatal(err)
				}
				d, err := store.Submit(app, lbl)
				if err != nil {
					log.Fatal(err)
				}
				verdict := "REFUSED"
				if d.Allowed {
					verdict = "ALLOWED"
					accepted++
				} else {
					refused++
				}
				mu.Lock()
				fmt.Printf("[%-10s] %-8s %-38s label %s\n", app, verdict, src, lbl.Render(cat))
				mu.Unlock()
			}
			mu.Lock()
			verdicts[app] = [2]int{accepted, refused}
			mu.Unlock()
		}(app, queries)
	}
	wg.Wait()

	fmt.Println("\nsession reports:")
	for _, app := range []string{"crm", "gallery", "compliance"} {
		live, err := store.Snapshot(app)
		if err != nil {
			log.Fatal(err)
		}
		v := verdicts[app]
		fmt.Printf("  %-10s accepted=%d refused=%d live=%v\n", app, v[0], v[1], live)
	}
}
