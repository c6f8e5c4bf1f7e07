package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"hypertree/internal/gen"
)

// FuzzIngest posts arbitrary bodies to /admin/ingest. Every body gets 200 or
// 400; a 400 leaves the served snapshot in place; a 200 reports FactsAdded
// as the sum of per-relation row deltas and loses no rows anywhere.
func FuzzIngest(f *testing.F) {
	for _, seed := range []string{
		`{"facts": "r1(d1, d2). r1(d2, d3)."}`,
		`{"facts": "fresh(a). fresh(b, c)."}`,
		`{"facts": "r1(d0, d0).\nr4(\"quoted const\", d9)."}`,
		`{"facts": "r1(a,)."}`,
		`{"facts": ""}`,
		`{"facts": 7}`,
		`{}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{DB: gen.ServingDatabase(rand.New(rand.NewSource(1)), 20, 10)})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := s.LiveDB()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/ingest", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusBadRequest:
			if s.LiveDB() != before {
				t.Fatalf("a rejected ingest swapped the database: %q", body)
			}
		case http.StatusOK:
			var resp IngestResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			after, delta := s.LiveDB(), 0
			for _, name := range after.RelationNames() {
				n := after.Relation(name).Rows()
				if old := before.Relation(name); old != nil {
					if n < old.Rows() {
						t.Fatalf("relation %s lost rows: %d → %d", name, old.Rows(), n)
					}
					n -= old.Rows()
				}
				delta += n
			}
			for _, name := range before.RelationNames() {
				if after.Relation(name) == nil {
					t.Fatalf("relation %s vanished", name)
				}
			}
			if resp.FactsAdded != delta {
				t.Fatalf("FactsAdded = %d, the relations grew by %d", resp.FactsAdded, delta)
			}
		default:
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
		}
	})
}
