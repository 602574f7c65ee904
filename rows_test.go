package rankjoin

import (
	"strings"
	"testing"
)

// TestRowsSameOnBothBackends: DB.Stream and Distributed.Stream return
// the same type and it behaves the same — same rows in the same order,
// the executor's name, a cost that only grows, an idempotent Close, and
// no spend once closed.
func TestRowsSameOnBothBackends(t *testing.T) {
	left, right := distTuples(200)
	db, q := oracleDB(t, left, right)
	d := openLoopbackCluster(t, 3)
	dq := loadCluster(t, d, left, right)

	const take = 23 // not a multiple of the page size: ends mid-page
	for _, algo := range []Algorithm{AlgoISL, AlgoNaive, AlgoAuto} {
		open := map[string]func() (*Rows, error){
			"db":          func() (*Rows, error) { return db.Stream(q.WithK(5), algo, nil) },
			"distributed": func() (*Rows, error) { return d.Stream(dq.WithK(5), algo, nil) },
		}
		got := map[string][]JoinResult{}
		names := map[string]string{}
		for backend, start := range open {
			rows, err := start()
			if err != nil {
				t.Fatalf("%s/%s: %v", backend, algo, err)
			}
			last := rows.Cost()
			for len(got[backend]) < take && rows.Next() {
				got[backend] = append(got[backend], rows.Result())
				c := rows.Cost()
				if c.KVReads < last.KVReads || c.SimTime < last.SimTime || c.NetworkBytes < last.NetworkBytes {
					t.Fatalf("%s/%s: cost went backwards: %v after %v", backend, algo, c, last)
				}
				last = c
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s/%s: %v", backend, algo, err)
			}
			names[backend] = rows.Algorithm()
			if err := rows.Close(); err != nil {
				t.Fatalf("%s/%s: Close: %v", backend, algo, err)
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("%s/%s: second Close: %v", backend, algo, err)
			}
			closed := rows.Cost()
			if rows.Next() {
				t.Fatalf("%s/%s: Next after Close returned a row", backend, algo)
			}
			if after := rows.Cost(); after != closed {
				t.Fatalf("%s/%s: spent after Close: %v -> %v", backend, algo, closed, after)
			}
		}
		if len(got["db"]) != take {
			t.Fatalf("%s: db stream yielded %d rows, want %d", algo, len(got["db"]), take)
		}
		assertSameResults(t, string(algo)+" distributed vs db", got["distributed"], got["db"])
		if names["db"] != names["distributed"] || names["db"] == "" {
			t.Errorf("%s: Algorithm() = %q on db, %q on distributed", algo, names["db"], names["distributed"])
		}
	}
}

// TestDistributedUpdateMustFindTheRow: Update on a Distributed's handle
// is the write it is on a DB's — it replaces a live tuple and refuses an
// absent one, where Insert would create it.
func TestDistributedUpdateMustFindTheRow(t *testing.T) {
	left, right := distTuples(40)
	db, _ := oracleDB(t, left, right)
	d := openLoopbackCluster(t, 3)
	loadCluster(t, d, left, right)

	dbErr := db.Relation("left").Update("ghost", "j1", 0.5)
	distErr := d.Relation("left").Update("ghost", "j1", 0.5)
	if dbErr == nil || distErr == nil {
		t.Fatalf("update of an absent row: db err %v, distributed err %v; want both refused", dbErr, distErr)
	}
	if !strings.Contains(distErr.Error(), "no row") {
		t.Errorf("distributed refusal %q does not say the row is missing", distErr)
	}
	if _, ok, err := d.Relation("left").Get("ghost"); err != nil || ok {
		t.Fatalf("refused update left a row behind (ok=%v, err=%v)", ok, err)
	}
	if err := d.Relation("left").Update(left[0].RowKey, "j-moved", 0.123); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Relation("left").Get(left[0].RowKey)
	if err != nil || !ok || got.JoinValue != "j-moved" || got.Score != 0.123 {
		t.Fatalf("after update Get = %+v, %v, %v", got, ok, err)
	}
	assertReplicasByteIdentical(t, d, "rel_left")
}

// TestDistributedTreeQueryMatchesDB: a tree query with a band edge
// names its relations in the tree, not in the two-way fields; the
// router must still find its covering replicas, build the any-k index
// there, and answer — and page — like a DB.
func TestDistributedTreeQueryMatchesDB(t *testing.T) {
	mk := func(prefix string, n int) []Tuple {
		out := make([]Tuple, n)
		for i := range out {
			out[i] = Tuple{RowKey: prefix + string(rune('a'+i%26)) + string(rune('a'+i/26)), JoinValue: string(rune('0' + i%7)), Score: float64((i*37)%100) / 100}
		}
		return out
	}
	left, right := mk("l", 60), mk("r", 60)
	db, _ := oracleDB(t, left, right)
	d := openLoopbackCluster(t, 3)
	loadCluster(t, d, left, right)

	edges := []TreeEdge{{A: 0, B: 1, Kind: PredBand, Band: 1}}
	q, err := db.NewTreeQuery([]string{"left", "right"}, edges, Sum, 6)
	if err != nil {
		t.Fatal(err)
	}
	dq, err := d.NewTreeQuery([]string{"left", "right"}, edges, Sum, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoAnyK); err != nil {
		t.Fatal(err)
	}
	if err := d.EnsureIndexes(dq, AlgoAnyK); err != nil {
		t.Fatalf("EnsureIndexes for a tree query on the cluster: %v", err)
	}
	for _, algo := range []Algorithm{AlgoNaive, AlgoAnyK} {
		want, err := db.TopK(q, algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.TopK(dq, algo, nil)
		if err != nil {
			t.Fatalf("%s tree query on the cluster: %v", algo, err)
		}
		assertSameResults(t, "tree "+string(algo), got.Results, want.Results)
		if got.NextPageToken == "" {
			t.Fatalf("%s: full tree page carries no token", algo)
		}
		want2, err := db.TopK(q, algo, &QueryOptions{PageToken: want.NextPageToken})
		if err != nil {
			t.Fatal(err)
		}
		got2, err := d.TopK(dq, algo, &QueryOptions{PageToken: got.NextPageToken})
		if err != nil {
			t.Fatalf("%s tree page 2 on the cluster: %v", algo, err)
		}
		assertSameResults(t, "tree page 2 "+string(algo), got2.Results, want2.Results)
	}
}
