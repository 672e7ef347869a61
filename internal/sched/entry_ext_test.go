package sched_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"cachedarrays/internal/cluster"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/experiments"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

// quickSolo is a quick-scale solo result with every slice filled: heap
// samples, per-iteration metrics and the runtime statistics of CA:LMP.
func quickSolo(t testing.TB) *engine.Result {
	t.Helper()
	m := models.PaperLargeModels()[1].BuildScaled(64)
	r, err := sched.RunMode(m, "CA:LMP", engine.Config{Iterations: 2, SampleHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HeapSamples) == 0 || len(r.Iterations) == 0 {
		t.Fatal("quick solo result has no heap samples or iterations")
	}
	return r
}

// quickCluster is a 3-tenant BenchMix run with fairness fields filled.
func quickCluster(t testing.TB) *cluster.Result {
	t.Helper()
	r, err := cluster.Run(cluster.Config{
		Engine:    engine.Config{FastCapacity: 48 * units.MB, SlowCapacity: units.GB, Iterations: 2},
		Jobs:      cluster.BenchMix(7, 3),
		Baselines: &sched.Scheduler{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// roundTrip decodes body as a T, re-encodes the value and returns both;
// it fails when the value does not decode or its encoding is not
// byte-stable.
func roundTrip[T any](t *testing.T, body []byte) (any, []byte) {
	t.Helper()
	v, err := sched.Decode[T](body)
	if err != nil {
		t.Fatalf("decode %T: %v", *new(T), err)
	}
	again, err := sched.EncodeBody(v)
	if err != nil {
		t.Fatal(err)
	}
	return v, again
}

// TestEntryRoundTripsStoredTypes: each type the cache stores — a solo
// engine result, a cluster result and a DLRM result, all from real
// quick-scale runs — decodes reflect.DeepEqual to what was encoded, and
// re-encodes to the same bytes.
func TestEntryRoundTripsStoredTypes(t *testing.T) {
	dlrm, err := experiments.RunDLRM(models.DefaultDLRMConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		v      any
		decode func(*testing.T, []byte) (any, []byte)
	}{
		{"engine.Result", quickSolo(t), roundTrip[engine.Result]},
		{"cluster.Result", quickCluster(t), roundTrip[cluster.Result]},
		{"experiments.DLRMResult", dlrm, roundTrip[experiments.DLRMResult]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := sched.EncodeBody(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			got, again := tc.decode(t, body)
			if !reflect.DeepEqual(got, tc.v) {
				t.Error("decoded value differs from the encoded one")
			}
			if !bytes.Equal(again, body) {
				t.Error("re-encoding the decoded value changed its bytes")
			}
		})
	}
}

// FuzzCacheEntryDecode feeds arbitrary bodies to the decoders of the two
// stored result types, both as given (the fingerprint check) and with the
// type's own fingerprint stamped over the first 32 bytes (the payload
// parser). Decoding must never panic, must allocate at most linearly in
// the input, and any body that decodes must re-encode byte-stably.
// Committed seeds: a quick-scale solo entry, a 3-tenant cluster entry, a
// truncated solo entry and a length prefix of 2^60.
func FuzzCacheEntryDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode[engine.Result](t, data)
		fuzzDecode[cluster.Result](t, data)
	})
}

func fuzzDecode[T any](t *testing.T, data []byte) {
	stamped := append([]byte(nil), data...)
	if fp := sched.Fingerprint[T](); len(stamped) >= len(fp) {
		copy(stamped, fp)
	}
	for _, body := range [][]byte{data, stamped} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := sched.Decode[T](body)
		runtime.ReadMemStats(&after)
		// Bounded: a slice header or pointer per input byte, plus the
		// top-level value and the error.
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(body))+1<<16; got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), got, limit)
		}
		if err != nil {
			continue
		}
		enc, err := sched.EncodeBody(v)
		if err != nil {
			t.Fatal(err)
		}
		_, again := roundTrip[T](t, enc)
		if !bytes.Equal(enc, again) {
			t.Fatal("encode(decode(encode(v))) differs from encode(v)")
		}
	}
}
