package faultstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crowdplanner/internal/store"
)

// appendN drives n truth appends, returning how many succeeded.
func appendN(t *testing.T, s *Store, n int) int {
	t.Helper()
	ok := 0
	for i := 0; i < n; i++ {
		if err := s.AppendTruth(store.TruthRecord{From: int32(i), To: int32(i + 1), Nodes: []int32{int32(i), int32(i + 1)}}); err == nil {
			ok++
		}
	}
	return ok
}

func TestHealthyPassThrough(t *testing.T) {
	s := New(store.Discard(), nil)
	if got := appendN(t, s, 5); got != 5 {
		t.Fatalf("healthy appends succeeded = %d, want 5", got)
	}
	if got := len(s.AckLog()); got != 5 {
		t.Fatalf("ack log = %d entries, want 5", got)
	}
	if inj := s.InjectedStats(); inj.Failures != 0 || inj.Kills != 0 {
		t.Fatalf("injected on healthy plan: %+v", inj)
	}
}

func TestKillAtAppendStopsEverythingAfter(t *testing.T) {
	s := New(store.Discard(), KillAtAppend(3))
	if got := appendN(t, s, 6); got != 2 {
		t.Fatalf("appends succeeded = %d, want 2 (killed before the 3rd)", got)
	}
	if !s.Killed() {
		t.Fatal("store not killed")
	}
	if err := s.AppendTruth(store.TruthRecord{}); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-kill append err = %v, want ErrKilled", err)
	}
	if err := s.Snapshot(func() *store.State { return &store.State{} }); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-kill snapshot err = %v, want ErrKilled", err)
	}
	if got := len(s.AckLog()); got != 2 {
		t.Fatalf("ack log = %d, want 2", got)
	}
}

func TestKillAfterAppendKeepsTheRecord(t *testing.T) {
	s := New(store.Discard(), KillAfterAppend(3))
	if got := appendN(t, s, 6); got != 3 {
		t.Fatalf("appends succeeded = %d, want 3 (killed after the 3rd)", got)
	}
	if got := len(s.AckLog()); got != 3 {
		t.Fatalf("ack log = %d, want 3", got)
	}
}

func TestFailAppendRangeHeals(t *testing.T) {
	boom := errors.New("boom")
	s := New(store.Discard(), FailAppendRange(2, 4, boom))
	got := 0
	for i := 0; i < 6; i++ {
		err := s.AppendTruth(store.TruthRecord{From: int32(i)})
		if i >= 1 && i <= 3 {
			if !errors.Is(err, boom) {
				t.Fatalf("append %d err = %v, want boom", i+1, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("append %d err = %v", i+1, err)
		}
		got++
	}
	if got != 3 {
		t.Fatalf("healthy appends = %d, want 3", got)
	}
	if inj := s.InjectedStats(); inj.Failures != 3 {
		t.Fatalf("failures = %d, want 3", inj.Failures)
	}
}

func TestFlakyAppendsDeterministic(t *testing.T) {
	run := func() []bool {
		s := New(store.Discard(), FlakyAppends(42, 0.5))
		out := make([]bool, 40)
		for i := range out {
			out[i] = s.AppendTruth(store.TruthRecord{From: int32(i)}) == nil
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flaky plan not deterministic at append %d", i+1)
		}
		if !a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("flaky p=0.5 failed %d/%d appends; expected a mix", fails, len(a))
	}
}

func TestSetPlanHealsMidStream(t *testing.T) {
	s := New(store.Discard(), FailAppends(nil))
	if err := s.AppendTruth(store.TruthRecord{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	s.SetPlan(Healthy())
	if err := s.AppendTruth(store.TruthRecord{}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if got := len(s.AckLog()); got != 1 {
		t.Fatalf("ack log = %d, want 1", got)
	}
}

func TestSnapshotFaultsAndOrdinals(t *testing.T) {
	s := New(store.Discard(), FailSnapshots(nil))
	// Appends are unaffected by a snapshot-only plan.
	if got := appendN(t, s, 2); got != 2 {
		t.Fatalf("appends = %d, want 2", got)
	}
	if err := s.Snapshot(func() *store.State { return &store.State{} }); !errors.Is(err, ErrInjected) {
		t.Fatalf("snapshot err = %v, want ErrInjected", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	s := New(store.Discard(), WithLatency(Healthy(), 10*time.Millisecond))
	start := time.Now()
	if err := s.AppendTruth(store.TruthRecord{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("append took %v, want >= 10ms injected latency", d)
	}
	if inj := s.InjectedStats(); inj.DelayedOps != 1 {
		t.Fatalf("delayed ops = %d, want 1", inj.DelayedOps)
	}
}

func TestAckLogRecordsOpTypes(t *testing.T) {
	s := New(store.Discard(), nil)
	if err := s.AppendTruth(store.TruthRecord{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTrips([]store.TrajRecord{{Seq: 0, Nodes: []int32{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTaskOpen(store.TaskRecord{ID: 1}); err != nil {
		t.Fatal(err)
	}
	want := []Op{OpTruth, OpTrips, OpTaskOpen}
	got := s.AckLog()
	if len(got) != len(want) {
		t.Fatalf("ack log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ack[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTearTailAndAppendGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := TearTail(path, 4)
	if err != nil || n != 4 {
		t.Fatalf("TearTail = (%d, %v), want (4, nil)", n, err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "012345" {
		t.Fatalf("after tear: %q", b)
	}
	if err := AppendGarbage(path, []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if len(b) != 8 {
		t.Fatalf("after garbage: %d bytes, want 8", len(b))
	}
	// Tearing more than the file holds clamps to the file size.
	if n, err := TearTail(path, 100); err != nil || n != 8 {
		t.Fatalf("over-tear = (%d, %v), want (8, nil)", n, err)
	}
}
