package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// TestSuiteMatchesCommittedResults runs the whole suite at paper scale and
// requires it to write exactly the committed results/*.csv files, byte for
// byte. It then runs the suite again from the cache the first run filled
// and requires the same files with nothing simulated, so the cache round
// trip is proven for every figure at the scale the paper reports.
func TestSuiteMatchesCommittedResults(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "results", "*.csv"))
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed results (%v)", err)
	}
	cacheDir := t.TempDir()
	for _, pass := range []string{"cold", "cache-served"} {
		out := t.TempDir()
		code, _, stderr := clitest.Run(t, "-cache", cacheDir, "-outdir", out)
		if code != 0 {
			t.Fatalf("%s run: exit %d, stderr:\n%s", pass, code, stderr)
		}
		written, err := os.ReadDir(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(written) != len(committed) {
			t.Errorf("%s run wrote %d files, results/ holds %d CSVs", pass, len(written), len(committed))
		}
		for _, path := range committed {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Base(path)
			got, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Errorf("%s run: %v", pass, err)
				continue
			}
			if diff := firstDiff(got, want); diff != "" {
				t.Errorf("%s run: %s differs from results/%s at %s", pass, name, name, diff)
			}
		}
		if pass == "cold" {
			continue
		}
		summaries := regexp.MustCompile(`, (\d+) simulated`).FindAllStringSubmatch(stderr, -1)
		if len(summaries) == 0 {
			t.Errorf("cache-served run printed no scheduler summary:\n%s", stderr)
		}
		for _, m := range summaries {
			if m[1] != "0" {
				t.Errorf("cache-served run simulated:\n%s", stderr)
				break
			}
		}
	}
}

// firstDiff names the first line where got and want differ, or returns
// "" if they are equal.
func firstDiff(got, want []byte) string {
	if string(got) == string(want) {
		return ""
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i == len(g) || i == len(w) || g[i] != w[i] {
			line := func(l []string) string {
				if i < len(l) {
					return strconv.Quote(l[i])
				}
				return "end of file"
			}
			return fmt.Sprintf("line %d: got %s, want %s", i+1, line(g), line(w))
		}
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
		if diff := firstDiff(db, da); diff != "" {
			t.Errorf("%s differs between %s and %s at %s", e.Name(), a, b, diff)
		}
	}
}
