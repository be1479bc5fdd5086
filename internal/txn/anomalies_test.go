package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// This file pins down the isolation level the paper's MVCC protocol
// provides — snapshot isolation, no more and no less — as a table of
// anomaly scenarios run through the group-commit pipeline. Lost updates
// and write-write races must abort (First-Committer-Wins); write skew is
// permitted, because SI validates write sets only and the paper claims
// exactly SI, not serializability.
func TestSIAnomalyMatrix(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, p *SI, e *env)
	}{
		{
			// Classic lost update: both transactions read the same
			// counter, both write it back. The second committer must
			// abort with ErrConflict, so no increment is ever lost.
			name: "lost update aborts second committer",
			run: func(t *testing.T, p *SI, e *env) {
				write(t, p, e.t1, "ctr", "10")
				tx1, _ := p.Begin()
				tx2, _ := p.Begin()
				for _, tx := range []*Txn{tx1, tx2} {
					if _, _, err := p.Read(tx, e.t1, "ctr"); err != nil {
						t.Fatal(err)
					}
					if err := p.Write(tx, e.t1, "ctr", []byte("11")); err != nil {
						t.Fatal(err)
					}
				}
				mustCommit(t, p, tx1)
				err := p.Commit(tx2)
				if !errors.Is(err, ErrConflict) {
					t.Fatalf("lost update admitted: %v", err)
				}
				if v, _ := readOne(t, p, e.t1, "ctr"); v != "11" {
					t.Fatalf("counter = %q, want winner's 11", v)
				}
			},
		},
		{
			// First-Committer-Wins applies to blind writes too: neither
			// transaction read the key, but their write sets overlap and
			// they ran concurrently.
			name: "first-committer-wins on blind writes",
			run: func(t *testing.T, p *SI, e *env) {
				tx1, _ := p.Begin()
				tx2, _ := p.Begin()
				if err := p.Write(tx1, e.t1, "k", []byte("one")); err != nil {
					t.Fatal(err)
				}
				if err := p.Write(tx2, e.t1, "k", []byte("two")); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, p, tx1)
				if err := p.Commit(tx2); !errors.Is(err, ErrConflict) {
					t.Fatalf("blind write-write race admitted: %v", err)
				}
				if v, _ := readOne(t, p, e.t1, "k"); v != "one" {
					t.Fatalf("k = %q, want one", v)
				}
			},
		},
		{
			// Write skew IS permitted: tx1 reads x and writes y, tx2
			// reads y and writes x. Write sets are disjoint, so both
			// commit — a serializable system would abort one. This
			// documents that the protocol is exactly SI (the paper's
			// claim), not serializable.
			name: "write skew permitted (SI, not serializable)",
			run: func(t *testing.T, p *SI, e *env) {
				tx, _ := p.Begin()
				p.Write(tx, e.t1, "x", []byte("1"))
				p.Write(tx, e.t1, "y", []byte("1"))
				mustCommit(t, p, tx)

				tx1, _ := p.Begin()
				tx2, _ := p.Begin()
				if _, _, err := p.Read(tx1, e.t1, "x"); err != nil {
					t.Fatal(err)
				}
				if _, _, err := p.Read(tx2, e.t1, "y"); err != nil {
					t.Fatal(err)
				}
				if err := p.Write(tx1, e.t1, "y", []byte("0")); err != nil {
					t.Fatal(err)
				}
				if err := p.Write(tx2, e.t1, "x", []byte("0")); err != nil {
					t.Fatal(err)
				}
				if err := p.Commit(tx1); err != nil {
					t.Fatalf("write-skew tx1 aborted, SI must admit it: %v", err)
				}
				if err := p.Commit(tx2); err != nil {
					t.Fatalf("write-skew tx2 aborted, SI must admit it: %v", err)
				}
				// Both zeroed: the skew happened, as SI semantics dictate.
				x, _ := readOne(t, p, e.t1, "x")
				y, _ := readOne(t, p, e.t1, "y")
				if x != "0" || y != "0" {
					t.Fatalf("x=%q y=%q, want both 0", x, y)
				}
			},
		},
		{
			// Read-only transactions never conflict, no matter how much
			// churn commits around their snapshot.
			name: "read-only snapshot never aborts",
			run: func(t *testing.T, p *SI, e *env) {
				write(t, p, e.t1, "k", "v0")
				r, _ := p.BeginReadOnly()
				if _, _, err := p.Read(r, e.t1, "k"); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 20; i++ {
					write(t, p, e.t1, "k", fmt.Sprintf("v%d", i+1))
				}
				if v, _, _ := p.Read(r, e.t1, "k"); string(v) != "v0" {
					t.Fatalf("snapshot moved: %q", v)
				}
				if err := p.Commit(r); err != nil {
					t.Fatalf("read-only commit aborted: %v", err)
				}
			},
		},
		{
			// Same-batch First-Committer-Wins: many writers of one key
			// commit concurrently, so several of them land in the same
			// group-commit batch and are admitted against the marks of
			// earlier same-batch admissions, not just installed versions.
			// Exactly one writer per round may win; every loser must see
			// ErrConflict.
			name: "concurrent single-key writers: one winner per round",
			run: func(t *testing.T, p *SI, e *env) {
				const writers = 8
				for round := 0; round < 25; round++ {
					// Begin and write (pinning every snapshot) BEFORE any
					// commit, so all eight transactions are pairwise
					// concurrent: exactly one may win. The commits then
					// race, so several land in one group-commit batch and
					// are admitted against the rows' same-batch marks, not
					// just installed versions.
					txns := make([]*Txn, writers)
					for w := range txns {
						tx, err := p.Begin()
						if err != nil {
							t.Fatal(err)
						}
						if err := p.Write(tx, e.t1, "hot", []byte{byte(w)}); err != nil {
							t.Fatal(err)
						}
						txns[w] = tx
					}
					var wg sync.WaitGroup
					var wins, conflicts int
					var mu sync.Mutex
					for _, tx := range txns {
						wg.Add(1)
						go func(tx *Txn) {
							defer wg.Done()
							err := p.Commit(tx)
							mu.Lock()
							defer mu.Unlock()
							switch {
							case err == nil:
								wins++
							case errors.Is(err, ErrConflict):
								conflicts++
							default:
								t.Errorf("unexpected commit error: %v", err)
							}
						}(tx)
					}
					wg.Wait()
					if wins != 1 || conflicts != writers-1 {
						t.Fatalf("round %d: %d winners, %d conflicts (want 1/%d)",
							round, wins, conflicts, writers-1)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			tc.run(t, NewSI(e.ctx), e)
		})
	}
}
