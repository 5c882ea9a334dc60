package fb

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
)

// Inserter is the sink GenerateGraph writes rows into: a batch
// *engine.Loader (one snapshot publication for the whole graph — the bulk
// loading path) or a bare *engine.Database (one publication per row).
type Inserter interface {
	Insert(rel string, values ...string) error
}

// GenerateGraph populates a database over the Facebook schema with a
// synthetic social graph: the principal Me, nUsers-1 other users (roughly
// a third of them friends of Me), friendship edges, and content rows in
// every relation. The is_friend column is kept consistent with the friend
// edge list, as the paper's denormalization requires.
//
// The generator is deterministic in the seed so examples, tests and
// benchmarks can share datasets. When dst is an *engine.Database the whole
// graph is loaded as one batch, publishing a single snapshot.
func GenerateGraph(dst Inserter, nUsers int, seed int64) error {
	if nUsers < 1 {
		return fmt.Errorf("fb: nUsers must be at least 1")
	}
	if db, ok := dst.(*engine.Database); ok {
		return db.Load(func(ld *engine.Loader) error {
			return generateGraph(ld, nUsers, seed)
		})
	}
	return generateGraph(dst, nUsers, seed)
}

// LargeAnswerQuery is a friend-scoped join over a generated graph whose
// answer has one row of six values per friend of Me — ≈ 640 rows and
// ≈ 24 KB of strings at 2000 users, the answer shape of the repository
// benchmark's scan_load workload. The in-tree measurements of answer
// delivery (ordering, materializing, encoding) share it.
const LargeAnswerQuery = "Q(a, n, d, c, t, v) :- friend('me', u, s), album(a, u, n, d, l, c, t, v, '1')"

func generateGraph(db Inserter, nUsers int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan", "Judy"}
	genres := []string{"jazz", "rock", "pop", "classical", "metal"}
	langs := []string{"English", "French", "German", "Spanish"}

	uid := func(i int) string {
		if i == 0 {
			return Me
		}
		return fmt.Sprintf("u%d", i)
	}
	friends := make(map[int]bool)
	for i := 1; i < nUsers; i++ {
		if rng.Intn(3) == 0 {
			friends[i] = true
		}
	}

	for i := 0; i < nUsers; i++ {
		isFriend := "0"
		if friends[i] {
			isFriend = FriendTrue
		}
		row := make([]string, len(UserAttrs))
		for j, a := range UserAttrs {
			switch a {
			case "uid":
				row[j] = uid(i)
			case "name":
				row[j] = fmt.Sprintf("%s %d", names[i%len(names)], i)
			case "first_name":
				row[j] = names[i%len(names)]
			case "birthday":
				row[j] = fmt.Sprintf("19%02d-%02d-%02d", 60+i%40, 1+i%12, 1+i%28)
			case "music":
				row[j] = genres[rng.Intn(len(genres))]
			case "languages":
				row[j] = langs[rng.Intn(len(langs))]
			case "email":
				row[j] = fmt.Sprintf("%s@example.com", uid(i))
			case "sex":
				row[j] = []string{"f", "m"}[i%2]
			case "timezone":
				row[j] = fmt.Sprint(-8 + i%17)
			case "is_friend":
				row[j] = isFriend
			default:
				row[j] = fmt.Sprintf("%s_%d", a, i)
			}
		}
		if err := db.Insert("user", row...); err != nil {
			return err
		}
	}

	// Friendship edges from Me, consistent with is_friend, plus some edges
	// among others (friends of friends).
	for i := 1; i < nUsers; i++ {
		if friends[i] {
			if err := db.Insert("friend", Me, uid(i), fmt.Sprint(2010+i%15)); err != nil {
				return err
			}
		}
	}
	for k := 0; k < nUsers/2; k++ {
		a, b := 1+rng.Intn(nUsers-1), 1+rng.Intn(nUsers-1)
		if a != b {
			if err := db.Insert("friend", uid(a), uid(b), fmt.Sprint(2010+k%15)); err != nil {
				return err
			}
		}
	}

	// Content rows: one album, two photos, one event, one group, one
	// check-in and a couple of likes per user.
	for i := 0; i < nUsers; i++ {
		isFriend := "0"
		if friends[i] {
			isFriend = FriendTrue
		}
		u := uid(i)
		if err := db.Insert("album", fmt.Sprintf("a%d", i), u,
			fmt.Sprintf("Album %d", i), "desc", "loc", fmt.Sprint(1+rng.Intn(40)),
			fmt.Sprint(1300000000+i), "everyone", isFriend); err != nil {
			return err
		}
		for p := 0; p < 2; p++ {
			if err := db.Insert("photo", fmt.Sprintf("p%d_%d", i, p), fmt.Sprintf("a%d", i), u,
				fmt.Sprintf("caption %d", p), fmt.Sprint(1300000000+i+p), "link", isFriend); err != nil {
				return err
			}
		}
		if err := db.Insert("event", fmt.Sprintf("e%d", i), u,
			fmt.Sprintf("Event %d", i), "somewhere",
			fmt.Sprint(1400000000+i), fmt.Sprint(1400003600+i), "attending", isFriend); err != nil {
			return err
		}
		if err := db.Insert("groups", fmt.Sprintf("g%d", i%7), u,
			fmt.Sprintf("Group %d", i%7), "about", isFriend); err != nil {
			return err
		}
		if err := db.Insert("checkin", fmt.Sprintf("c%d", i), u,
			fmt.Sprintf("page%d", i%11), "hello", fmt.Sprint(1350000000+i), isFriend); err != nil {
			return err
		}
		for l := 0; l < 2; l++ {
			if err := db.Insert("likes", u, fmt.Sprintf("page%d", (i+l)%11),
				fmt.Sprintf("Page %d", (i+l)%11), isFriend); err != nil {
				return err
			}
		}
	}
	return nil
}
