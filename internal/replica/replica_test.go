package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"emdsearch/internal/persist"
	"emdsearch/internal/shardset"
)

func testBackoff() *shardset.Backoff {
	return &shardset.Backoff{Base: 100 * time.Microsecond, Cap: time.Millisecond}
}

// collectLink applies shipped records to a slice, optionally failing
// the first failN attempts per LSN to exercise retry and redelivery.
type collectLink struct {
	mu      sync.Mutex
	applied []Record
	tries   map[int64]int
	failN   int
	failAll bool
}

func newCollectLink() *collectLink {
	return &collectLink{tries: map[int64]int{}}
}

func (l *collectLink) Ship(ctx context.Context, rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tries[rec.LSN]++
	if l.failAll || l.tries[rec.LSN] <= l.failN {
		return errors.New("injected ship fault")
	}
	l.applied = append(l.applied, rec)
	return nil
}

func (l *collectLink) records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.applied))
	copy(out, l.applied)
	return out
}

func (l *collectLink) setFailAll(v bool) {
	l.mu.Lock()
	l.failAll = v
	l.mu.Unlock()
}

func rec(id int) persist.WALRecord {
	return persist.WALRecord{Op: persist.WALAdd, ID: id, Label: fmt.Sprintf("r%d", id), Vector: []float64{1}}
}

func TestShipperDeliversInOrder(t *testing.T) {
	link := newCollectLink()
	s := NewShipper(link, testBackoff())
	defer s.Close()
	for i := 0; i < 20; i++ {
		if lsn := s.Ack(rec(i)); lsn != int64(i+1) {
			t.Fatalf("ack %d assigned LSN %d, want %d", i, lsn, i+1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("WaitCaughtUp: %v", err)
	}
	got := link.records()
	if len(got) != 20 {
		t.Fatalf("applied %d records, want 20", len(got))
	}
	for i, r := range got {
		if r.LSN != int64(i+1) || r.Rec.ID != i {
			t.Fatalf("record %d out of order: LSN %d id %d", i, r.LSN, r.Rec.ID)
		}
	}
	st := s.Status()
	if st.PrimaryLSN != 20 || st.AppliedLSN != 20 || st.Lag != 0 {
		t.Fatalf("status after catch-up: %+v", st)
	}
}

// TestShipperRetriesFlakyLink: a link that fails the first two sends
// of every record still delivers everything exactly once, in order.
func TestShipperRetriesFlakyLink(t *testing.T) {
	link := newCollectLink()
	link.failN = 2
	s := NewShipper(link, testBackoff())
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Ack(rec(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("WaitCaughtUp: %v", err)
	}
	if got := link.records(); len(got) != 5 {
		t.Fatalf("applied %d records, want 5", len(got))
	}
	st := s.Status()
	if st.ShipErrors != 10 {
		t.Fatalf("ship errors = %d, want 10 (2 per record)", st.ShipErrors)
	}
	if st.LastError == "" {
		t.Fatal("last error not recorded")
	}
}

// TestShipperLagHonest: with the link down, the lag reports exactly
// the outstanding mutations and WaitCaughtUp times out rather than
// declaring freshness.
func TestShipperLagHonest(t *testing.T) {
	link := newCollectLink()
	link.setFailAll(true)
	s := NewShipper(link, testBackoff())
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Ack(rec(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.WaitCaughtUp(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCaughtUp on a dead link: %v", err)
	}
	st := s.Status()
	if st.PrimaryLSN != 3 || st.Lag == 0 {
		t.Fatalf("status with dead link: %+v", st)
	}
	// Link heals: the queue drains and the lag closes.
	link.setFailAll(false)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.WaitCaughtUp(ctx2); err != nil {
		t.Fatalf("WaitCaughtUp after heal: %v", err)
	}
	if st := s.Status(); st.Lag != 0 || st.AppliedLSN != 3 {
		t.Fatalf("status after heal: %+v", st)
	}
}

func TestShipperRebase(t *testing.T) {
	link := newCollectLink()
	link.setFailAll(true) // hold the queue so Rebase has entries to drop
	s := NewShipper(link, testBackoff())
	defer s.Close()
	for i := 0; i < 4; i++ {
		s.Ack(rec(i))
	}
	s.Rebase(4)
	link.setFailAll(false)
	st := s.Status()
	if st.PrimaryLSN != 4 || st.AppliedLSN != 4 || st.Lag != 0 {
		t.Fatalf("status after rebase: %+v", st)
	}
	if err := s.WaitCaughtUp(context.Background()); err != nil {
		t.Fatalf("WaitCaughtUp after rebase: %v", err)
	}
	// New mutations continue from the rebased sequence.
	if lsn := s.Ack(rec(4)); lsn != 5 {
		t.Fatalf("ack after rebase assigned LSN %d, want 5", lsn)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShipperCloseMidRetry: Close must return promptly even while the
// drain goroutine is stuck retrying a dead link, and the lag stays
// visible afterwards.
func TestShipperCloseMidRetry(t *testing.T) {
	link := newCollectLink()
	link.setFailAll(true)
	s := NewShipper(link, &shardset.Backoff{Base: time.Hour, Cap: time.Hour})
	s.Ack(rec(0))
	time.Sleep(5 * time.Millisecond) // let the drain enter its retry sleep
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a retrying link")
	}
	if st := s.Status(); st.Lag != 1 {
		t.Fatalf("lag after close = %d, want 1", st.Lag)
	}
	if err := s.WaitCaughtUp(context.Background()); err == nil {
		t.Fatal("WaitCaughtUp on a closed, lagging shipper must fail")
	}
	s.Close() // idempotent
}

// TestShipperConcurrentAcks drives Ack from many goroutines to give
// the race detector a surface; LSNs must come out dense and delivery
// complete.
func TestShipperConcurrentAcks(t *testing.T) {
	link := newCollectLink()
	s := NewShipper(link, testBackoff())
	defer s.Close()
	const n = 64
	var wg sync.WaitGroup
	lsns := make([]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsns[i] = s.Ack(rec(i))
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, l := range lsns {
		if l < 1 || l > n || seen[l] {
			t.Fatalf("LSNs not dense/unique: %v", lsns)
		}
		seen[l] = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	if got := link.records(); len(got) != n {
		t.Fatalf("applied %d records, want %d", len(got), n)
	}
}
