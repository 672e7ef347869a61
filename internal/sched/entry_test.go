package sched

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSchemaDriftIsAMiss: an entry written for an older shape of the
// stored type, or under the v1 (JSON) format, is a plain miss — never a
// hit with the new field silently zero, and never counted corrupt — and
// Memo recomputes and overwrites it.
func TestSchemaDriftIsAMiss(t *testing.T) {
	type after struct{ A, B int }
	const key = "drift"
	for name, plant := range map[string]func(t *testing.T, dir string){
		"field added": func(t *testing.T, dir string) {
			c, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.PutAny(key, &struct{ A int }{A: 1}); err != nil {
				t.Fatal(err)
			}
		},
		"v1 JSON entry": func(t *testing.T, dir string) {
			body := `{"A":1,"B":2}`
			entry := fmt.Sprintf("cachedarrays-cache v1 %x\n%s", sha256.Sum256([]byte(body)), body)
			if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			plant(t, dir)

			c, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := c.GetAny(key, Decode[after]); ok {
				t.Fatalf("stale entry served as a hit: %+v", v)
			}
			if st := c.Stats(); st != (CacheStats{Misses: 1}) {
				t.Fatalf("stats after a stale entry = %+v, want one clean miss", st)
			}

			c2, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			s := &Scheduler{Cache: c2}
			want := &after{A: 1, B: 2}
			if _, hit, err := s.Memo(key, Decode[after], func() (any, error) { return want, nil }); err != nil || hit {
				t.Fatalf("Memo over a stale entry: hit=%v err=%v, want a recompute", hit, err)
			}
			if s.Simulations() != 1 || c2.Stats().Corrupt != 0 {
				t.Fatalf("simulations=%d stats=%+v, want one clean recompute", s.Simulations(), c2.Stats())
			}

			c3, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := c3.GetAny(key, Decode[after]); !ok || *v.(*after) != *want {
				t.Fatalf("recompute did not overwrite the stale entry: %v, %v", v, ok)
			}
		})
	}
}

// TestEntryRejectsUnsupportedKinds: a stored type reaching a kind the
// entry codec cannot encode, an unexported embedded struct whose
// promoted fields it would drop, or a recursive type makes PutAny fail, naming the field, and
// stores nothing — in memory or on disk.
func TestEntryRejectsUnsupportedKinds(t *testing.T) {
	type inner struct{ Hook func() }
	type promoted struct{ X int }
	type node struct{ Next *node }
	for _, tc := range []struct {
		v     any
		field string
	}{
		{&struct {
			N int
			M map[string]int
		}{}, ".M"},
		{&struct{ I any }{}, ".I"},
		{&struct{ In []inner }{}, ".In[].Hook"},
		{&struct{ P *struct{ C chan int } }{}, ".P).C"},
		{&struct{ promoted }{}, ".promoted"},
		{&node{}, ".Next)"},
	} {
		for _, dir := range []string{"", t.TempDir()} {
			c, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			err = c.PutAny("k", tc.v)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("PutAny(%T) = %v, want an error naming %s", tc.v, err, tc.field)
			}
			if st := c.Stats(); st.Stores != 0 {
				t.Errorf("PutAny(%T) stored despite the error", tc.v)
			}
		}
	}
}
