package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
)

// TestKeySensitiveToEveryModelField is TestKeySensitiveToEveryField's
// twin for the other half of the key: it walks models.Model, Tensor and
// Kernel by reflection, changes each exported leaf, each slice length
// and each boundary the length prefixes delimit, and requires a
// different key every time — so a field added to the graph types that
// models.Model.WriteDigest forgets fails here, as does an encoding in
// which two different graphs share a byte stream.
func TestKeySensitiveToEveryModelField(t *testing.T) {
	cfg := engine.Config{Iterations: 2}
	m := models.MLP(64, []int{32}, 4, 8)
	m.Kernels[0].ReadFactor = 2 // non-zero, so the -0/+0 fold below is the only fold in play
	baseKey := mustKey(t, m, "CA:LM", cfg)
	differs := func(what string) {
		t.Helper()
		if mustKey(t, m, "CA:LM", cfg) == baseKey {
			t.Errorf("%s: the cache key did not change", what)
		}
	}

	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: decide whether it feeds WriteDigest and teach this walk", path, f.Name)
					continue
				}
				walk(path+"."+f.Name, v.Field(i))
			}
		case reflect.Slice:
			if v.Len() == 0 {
				t.Fatalf("%s is empty in the base model: nothing to mutate", path)
			}
			old := reflect.ValueOf(v.Interface()) // the original slice header
			v.Set(reflect.Append(old, old.Index(0)))
			differs(path + " (one element longer)")
			v.Set(old.Slice(0, old.Len()-1))
			differs(path + " (one element shorter)")
			v.Set(old)
			for _, i := range []int{0, v.Len() - 1} {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Int, reflect.Int64:
			old := v.Int()
			v.SetInt(old + 1)
			differs(path)
			v.SetInt(old)
		case reflect.Float64:
			old := v.Float()
			v.SetFloat(old + 0.25)
			differs(path)
			v.SetFloat(old)
		case reflect.String:
			old := v.String()
			v.SetString(old + "x")
			differs(path)
			v.SetString(old)
		default:
			t.Errorf("%s has kind %s: teach this walk (and WriteDigest) about it", path, v.Kind())
		}
	}
	walk("Model", reflect.ValueOf(m).Elem())
	if mustKey(t, m, "CA:LM", cfg) != baseKey {
		t.Fatal("the walk did not restore the model")
	}

	// Boundaries: the same ids, the same name bytes, divided differently.
	k := &m.Kernels[1]
	if len(k.Reads) == 0 {
		t.Fatal("kernel 1 reads nothing: no id to move")
	}
	reads, writes := k.Reads, k.Writes
	last := len(reads) - 1
	k.Reads, k.Writes = reads[:last:last], append([]int{reads[last]}, writes...)
	differs("one id moved from Reads to Writes")
	k.Reads, k.Writes = reads, writes

	n0, n1 := m.Tensors[0].Name, m.Tensors[1].Name
	m.Tensors[0].Name, m.Tensors[1].Name = n0+n1[:1], n1[1:]
	differs("one name byte moved across two tensors")
	m.Tensors[0].Name, m.Tensors[1].Name = n0, n1

	// The two documented folds: what no consumer of a Model can tell
	// apart shares a key.
	reads0 := m.Kernels[0].Reads
	m.Kernels[0].Reads, m.Kernels[0].ReadFactor = nil, 0
	folded := mustKey(t, m, "CA:LM", cfg)
	m.Kernels[0].Reads, m.Kernels[0].ReadFactor = []int{}, math.Copysign(0, -1)
	if mustKey(t, m, "CA:LM", cfg) != folded {
		t.Error("nil/empty Reads or -0/+0 ReadFactor changed the key")
	}
	m.Kernels[0].Reads = reads0
}

// textConfigLines is the config hash keys used up to the v2 headers: one
// name=value line per leaf of the canonical config, by a reflection
// walk. It survives only as this fixture, to rebuild keys of the older
// formats. Keyed configs hold no slices and only nil pointers.
func textConfigLines(w io.Writer, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			textConfigLines(w, name+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Pointer:
		fmt.Fprintf(w, "%s=nil\n", name)
	default:
		fmt.Fprintf(w, "%s=%v\n", name, v.Interface())
	}
}

// legacyKey is the key this package computed under an older header:
// "cachedarrays-run v1" followed the config lines with the model's
// SaveJSON text, "cachedarrays-run v2" with its streamed digest.
func legacyKey(t *testing.T, version int, m *models.Model, mode string, cfg engine.Config) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "cachedarrays-run v%d\nmode=%s\n", version, mode)
	textConfigLines(h, "cfg", reflect.ValueOf(cfg.Canonical()))
	fmt.Fprintf(h, "model=")
	write := m.WriteDigest
	if version == 1 {
		write = m.SaveJSON
	}
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestV1DirectoryIsASilentMiss: a cache directory filled by builds that
// keyed runs under the v1 and v2 headers is, to this build, a directory
// of entries nobody asks for — the run misses without an error or a
// corrupt count, stores its own entry beside the old ones, and leaves
// them byte for byte alone.
func TestV1DirectoryIsASilentMiss(t *testing.T) {
	dir := t.TempDir()
	m := models.MLP(64, []int{32}, 4, 8)
	cfg := engine.Config{Iterations: 2}
	r, err := RunMode(m, "CA:LM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	old, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := []string{legacyKey(t, 1, m, "CA:LM", cfg), legacyKey(t, 2, m, "CA:LM", cfg)}
	// The v2 key a build of that format computed for this cell: it pins
	// the fixture to the real old preimage.
	if want := "351c98417e0074503da59f83a9abb035252fa61dd8c1850ee3e2f8b7c766b6e8"; legacy[1] != want {
		t.Fatalf("v2 fixture key = %s, want %s", legacy[1], want)
	}
	before := map[string]string{}
	for _, k := range legacy {
		if err := old.Put(k, r); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, k+".json"))
		if err != nil {
			t.Fatal(err)
		}
		before[k] = string(b)
	}

	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{Cache: c}
	got, err := s.Run([]Cell{{Name: "after-upgrade", Model: m, Mode: "CA:LM", Cfg: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 || st.Stores != 1 || st.Corrupt != 0 {
		t.Errorf("stats over a v1/v2 directory = %+v, want a clean miss and one store", st)
	}
	if s.Simulations() != 1 {
		t.Errorf("simulations = %d, want 1", s.Simulations())
	}
	if !reflect.DeepEqual(got[0], r) {
		t.Error("the re-simulated result differs from the one the old entries hold")
	}
	for k, b := range before {
		after, err := os.ReadFile(filepath.Join(dir, k+".json"))
		if err != nil {
			t.Fatalf("the old entry %s is gone: %v", k, err)
		}
		if string(after) != b {
			t.Errorf("the old entry %s was rewritten", k)
		}
	}
	if v3 := mustKey(t, m, "CA:LM", cfg); before[v3] != "" {
		t.Error("the v3 key coincides with an old key")
	} else if _, err := os.Stat(filepath.Join(dir, v3+".json")); err != nil {
		t.Errorf("no v3 entry stored: %v", err)
	}
}
