package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cachedarrays/internal/clitest"
	"cachedarrays/internal/sched"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsUnknownOnly(t *testing.T) {
	// The message must list every valid name.
	clitest.Rejects(t, `unknown figure "nosuch" (valid: `+strings.Join(figures, ",")+")", "-only", "fig2,nosuch")
}

func TestOnlySelectsFigure(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-only", " CopyBW")
	if code != 0 || !strings.Contains(stdout, "copy") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestTwoProcessesShareOneCacheDir: two cafigures processes started
// together on one empty -cache directory race to store the same entries
// (temp file + rename, so a reader never sees a partial one). Both must
// succeed and write byte-identical out-dirs, every entry left behind must
// pass its integrity check, and a third process must find all of them:
// no batch of its run simulates.
func TestTwoProcessesShareOneCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("three suite runs skipped in -short mode")
	}
	cacheDir := t.TempDir()
	outs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	args := func(out string) []string {
		return []string{"-scale", "16", "-iters", "2", "-parallel", "2", "-cache", cacheDir, "-outdir", out}
	}
	first, second := clitest.Start(t, args(outs[0])...), clitest.Start(t, args(outs[1])...)
	for _, wait := range []func() (int, string, string){first, second} {
		if code, _, stderr := wait(); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
	}
	sameFiles(t, outs[0], outs[1])

	cache, err := sched.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries (%v)", err)
	}
	for _, path := range entries {
		key := strings.TrimSuffix(filepath.Base(path), ".json")
		if _, ok := cache.GetAny(key, func([]byte) (any, error) { return struct{}{}, nil }); !ok {
			t.Errorf("entry %s does not load", key)
		}
	}
	if st := cache.Stats(); st.Corrupt != 0 {
		t.Errorf("%d of %d entries corrupt after two concurrent writers", st.Corrupt, len(entries))
	}
	if left, _ := filepath.Glob(filepath.Join(cacheDir, "*.tmp*")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}

	code, _, stderr := clitest.Run(t, args(outs[2])...)
	if code != 0 {
		t.Fatalf("third run: exit %d, stderr:\n%s", code, stderr)
	}
	summaries := regexp.MustCompile(`, (\d+) simulated`).FindAllStringSubmatch(stderr, -1)
	if len(summaries) == 0 {
		t.Fatalf("third run printed no scheduler summary:\n%s", stderr)
	}
	for _, m := range summaries {
		if m[1] != "0" {
			t.Errorf("third run simulated over a filled cache:\n%s", stderr)
			break
		}
	}
	sameFiles(t, outs[0], outs[2])
}

// sameFiles requires two directories to hold the same file names with
// the same bytes.
func sameFiles(t *testing.T, a, b string) {
	t.Helper()
	ea, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea) == 0 || len(ea) != len(eb) {
		t.Fatalf("%s has %d files, %s has %d", a, len(ea), b, len(eb))
	}
	for _, e := range ea {
		da, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(da) != string(db) {
			t.Errorf("%s differs between %s and %s", e.Name(), a, b)
		}
	}
}
