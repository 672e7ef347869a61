package models

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"
)

// digest is the SHA-256 of the model's WriteDigest stream.
func digest(t testing.TB, m *Model) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := m.WriteDigest(h); err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestKindNamesMatchString: SaveJSON writes TensorKind.String() and
// LoadJSON reads through kindNames, so the two tables must name every
// kind the same way.
func TestKindNamesMatchString(t *testing.T) {
	for name, kind := range kindNames {
		if kind.String() != name {
			t.Errorf("kindNames[%q] = %d, whose String() is %q", name, kind, kind.String())
		}
	}
	for k := Weight; k <= Input; k++ {
		if got, ok := kindNames[k.String()]; !ok || got != k {
			t.Errorf("kind %d (%s) is missing from kindNames", k, k)
		}
	}
	// Input is the last kind: a kind added after it must extend the loop
	// above (and kindNames) or this fails.
	if s := (Input + 1).String(); !strings.HasPrefix(s, "TensorKind(") {
		t.Errorf("kind %d is named %q but this test stops at Input", Input+1, s)
	}
	if len(kindNames) != int(Input)+1 {
		t.Errorf("kindNames has %d entries for %d kinds", len(kindNames), int(Input)+1)
	}
}

// TestWriteDigestBuffering: the stream WriteDigest hands its writer does
// not depend on where the internal buffer happens to flush — a model
// much larger than the buffer hashes the same whether the writer sees
// the flushes or one concatenated write — and repeated walks agree.
func TestWriteDigestBuffering(t *testing.T) {
	m := PaperSmallModels()[2].Build() // VGG 116: a stream of many buffers
	var whole bytes.Buffer
	if err := m.WriteDigest(&whole); err != nil {
		t.Fatal(err)
	}
	if whole.Len() < 4*digestBufSize {
		t.Fatalf("stream is %d bytes: too short to cross the %d-byte buffer", whole.Len(), digestBufSize)
	}
	if sha256.Sum256(whole.Bytes()) != digest(t, m) {
		t.Error("digest of the concatenated stream differs from the streamed digest")
	}
	if digest(t, m) != digest(t, PaperSmallModels()[2].Build()) {
		t.Error("two builds of one recipe digest differently")
	}
}

// TestWriteDigestReportsWriteError: the first write error comes back.
func TestWriteDigestReportsWriteError(t *testing.T) {
	if err := MLP(64, []int{32}, 4, 8).WriteDigest(failingWriter{}); err == nil {
		t.Error("a failing writer went unreported")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }

// fuzzModel loads a workload document for FuzzModelDigest. LoadJSON keeps
// the one distinction in the format that no consumer of a Model can see —
// "reads": [] against "reads": null or absent — and SaveJSON writes it
// back; the digest folds the two together, so the reference side does too.
func fuzzModel(data []byte) (*Model, []byte, bool) {
	m, err := LoadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, nil, false
	}
	for i := range m.Kernels {
		if len(m.Kernels[i].Reads) == 0 {
			m.Kernels[i].Reads = nil
		}
	}
	var buf bytes.Buffer
	if err := m.SaveJSON(&buf); err != nil {
		return nil, nil, false
	}
	return m, buf.Bytes(), true
}

// FuzzModelDigest is the differential against the serialisation the
// cache key used to hash: over any two LoadJSON-valid models, the
// streamed digests are equal exactly when the SaveJSON texts are. Equal
// text with different digests would cost hits; different text with equal
// digests would be a wrong hit.
func FuzzModelDigest(f *testing.F) {
	const base = `{"name":"m","batchSize":2,
	  "tensors":[{"name":"w","bytes":16,"kind":"weight"},{"name":"a","bytes":8,"kind":"activation"}],
	  "kernels":[{"name":"k0","phase":"forward","reads":[0],"writes":[1],"flops":10,"readFactor":2},
	             {"name":"k1","phase":"backward","reads":[1],"writes":[0],"flops":3}]}`
	// The same graph with one id moved from reads to writes, and with
	// the two tensor names' boundary shifted: the boundaries the length
	// prefixes exist for.
	moved := strings.Replace(base, `"reads":[1],"writes":[0]`, `"reads":[],"writes":[1,0]`, 1)
	split := strings.Replace(strings.Replace(base, `"name":"w"`, `"name":"wa"`, 1), `"name":"a"`, `"name":""`, 1)
	negZero := strings.Replace(base, `"flops":3`, `"flops":3,"readFactor":-0`, 1)
	var mlp bytes.Buffer
	if err := MLP(8, []int{4}, 2, 2).SaveJSON(&mlp); err != nil {
		f.Fatal(err)
	}
	for _, other := range [][]byte{[]byte(base), []byte(moved), []byte(split), []byte(negZero), mlp.Bytes()} {
		if _, _, ok := fuzzModel(other); !ok {
			f.Fatalf("seed is not a valid workload:\n%s", other)
		}
		f.Add([]byte(base), other)
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ma, ja, ok := fuzzModel(a)
		if !ok {
			return
		}
		mb, jb, ok := fuzzModel(b)
		if !ok {
			return
		}
		sameText, sameDigest := bytes.Equal(ja, jb), digest(t, ma) == digest(t, mb)
		if sameText != sameDigest {
			t.Fatalf("SaveJSON texts equal: %t, digests equal: %t\n--- a ---\n%s--- b ---\n%s",
				sameText, sameDigest, ja, jb)
		}
	})
}
