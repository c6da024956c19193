package engine

import (
	"reflect"
	"slices"
	"testing"

	"fastppr/internal/persist"
)

// TestPersistRoundTripThenApply builds the store under a WAL, closes
// cleanly and recovers: the recovered store must hold the built segments
// bitwise. Applying a stream on top of a recovered store is the maintainers'
// job and is checked by their recovery tests.
func TestPersistRoundTripThenApply(t *testing.T) {
	g := buildTestGraph(300, 4, 5)
	cfg := Config{Eps: 0.2, R: 8, Workers: 1, Seed: 42}

	dir := t.TempDir()
	pm, walks, _, err := persist.Open(persist.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	New(g, walks, cfg).BuildStore(g.Nodes())
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	pm2, walks2, info, err := persist.Open(persist.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer pm2.Close()
	if info.TornBytes != 0 {
		t.Fatalf("clean close left %d torn bytes", info.TornBytes)
	}
	if err := walks2.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(walks2.VisitCounts(), walks.VisitCounts()) {
		t.Fatal("recovered store's visit counts diverge from the built store")
	}
	if g1, g2 := walks.Epoch(), walks2.Epoch(); g1 != g2 {
		t.Fatalf("epochs diverge: %d vs %d", g1, g2)
	}
	for _, v := range g.Nodes() {
		ids := walks.OwnedBy(v)
		if got := walks2.OwnedBy(v); !slices.Equal(got, ids) {
			t.Fatalf("OwnedBy(%d): %v vs %v", v, ids, got)
		}
		for _, id := range ids {
			if !slices.Equal(walks.Path(id), walks2.Path(id)) {
				t.Fatalf("Path(%d) diverges after recovery", id)
			}
		}
	}
}
