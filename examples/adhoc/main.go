// Ad-hoc analytics under concurrency, on the analytical read path: a
// continuous writer keeps two states of one topology group in lockstep
// (accounts and audit both carry every account's balance) while ad-hoc
// queries run concurrently on pinned snapshots — multi-table point
// reads, lane-parallel scans, and secondary-index lookups. Every query
// sees a consistent cut: the two tables always agree, and an index
// lookup always equals the filtered scan at the same snapshot. The demo
// verifies both invariants live — readers never block and never abort
// under a single writer (the paper's Section 4.2), and the index is
// never ahead of or behind its table.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"sistream"
)

// accounts is the key domain: acct00..acct15, each holding the round
// counter, sharded over 4 index buckets by account number.
const (
	numAccounts = 16
	numBuckets  = 4
)

func acctKey(i int) string { return fmt.Sprintf("acct%02d", i) }

// bucketOf indexes accounts by their low two key digits — a pure
// function of the row, re-evaluated on the commit path.
func bucketOf(key string, _ []byte) (string, bool) {
	if len(key) < 6 {
		return "", false
	}
	n := int(key[4]-'0')*10 + int(key[5]-'0')
	return fmt.Sprintf("b%d", n%numBuckets), true
}

func main() {
	roundsFlag := flag.Uint64("rounds", 5000, "writer transactions to run")
	specFlag := flag.String("store", "mem", "backend spec (mem, lsm:<dir>, fault+lsm:<dir>, ...)")
	flag.Parse()
	rounds := *roundsFlag

	store, err := sistream.OpenStore(*specFlag, sistream.StoreOpenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ctx := sistream.NewContext()
	accounts, err := ctx.CreateTable("accounts", store, sistream.TableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	audit, err := ctx.CreateTable("audit", store, sistream.TableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ctx.CreateGroup("ledger", accounts, audit); err != nil {
		log.Fatal(err)
	}
	// The secondary index is maintained transactionally in the write
	// path: from here on, every commit updates table and index atomically.
	byBucket, err := accounts.CreateIndex("bucket", bucketOf)
	if err != nil {
		log.Fatal(err)
	}
	p := sistream.NewSI(ctx)

	// The invariant: for every account, accounts[k] always equals
	// audit[k]. Each writer transaction bumps one account in both tables;
	// a torn snapshot would catch them apart.
	var wg sync.WaitGroup
	var checked, torn, indexChecks, indexDiverged atomic.Int64
	stop := make(chan struct{})

	// Reader 1+2: multi-table snapshot point reads — the pinned cut must
	// keep the pair in lockstep.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := ctx.Snapshot(accounts, audit)
				if err != nil {
					log.Fatal(err)
				}
				k := acctKey(i % numAccounts)
				i++
				a, okA, err1 := snap.Get(accounts, k)
				b, okB, err2 := snap.Get(audit, k)
				snap.Release()
				if err1 != nil || err2 != nil {
					log.Fatal(err1, err2)
				}
				checked.Add(1)
				if okA != okB || u64(a) != u64(b) {
					torn.Add(1)
				}
			}
		}(r)
	}

	// Reader 3: lane-parallel scan + index equivalence — scan accounts at
	// the snapshot with 4 lanes, then check each bucket's index lookup
	// returns exactly the scanned rows of that bucket.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := ctx.Snapshot(accounts, audit)
			if err != nil {
				log.Fatal(err)
			}
			var mu sync.Mutex
			scanned := map[string]uint64{}
			if err := snap.ParallelScan(accounts, 4, func(k string, v []byte) bool {
				mu.Lock()
				scanned[k] = u64(v)
				mu.Unlock()
				return true
			}); err != nil {
				log.Fatal(err)
			}
			ok := true
			total := 0
			for b := 0; b < numBuckets; b++ {
				bucket := fmt.Sprintf("b%d", b)
				if err := snap.Lookup(byBucket, bucket, func(k string, v []byte) bool {
					want, seen := scanned[k]
					if bk, _ := bucketOf(k, nil); !seen || bk != bucket || u64(v) != want {
						ok = false
					}
					total++
					return true
				}); err != nil {
					log.Fatal(err)
				}
			}
			snap.Release()
			indexChecks.Add(1)
			if !ok || total != len(scanned) {
				indexDiverged.Add(1)
			}
		}
	}()

	start := time.Now()
	for i := uint64(1); i <= rounds; i++ {
		tx, err := p.Begin()
		if err != nil {
			log.Fatal(err)
		}
		k := acctKey(int(i) % numAccounts)
		if err := p.Write(tx, accounts, k, be(i)); err != nil {
			log.Fatal(err)
		}
		if err := p.Write(tx, audit, k, be(i)); err != nil {
			log.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			log.Fatal(err) // single writer: must never abort under SI
		}
	}
	// Let the ad-hoc queries observe the final state for a moment (on a
	// small machine the writer can finish before a reader ever ran). The
	// point readers take snapshots far faster than the index reader, so
	// each count is waited on by itself.
	for deadline := time.Now().Add(2 * time.Second); (checked.Load() < 50 || indexChecks.Load() < 5) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	st := byBucket.Stats()
	fmt.Printf("writer: %d multi-state transactions in %v\n", rounds, time.Since(start).Round(time.Millisecond))
	fmt.Printf("readers: %d point snapshots, %d torn; %d index checks, %d divergences\n",
		checked.Load(), torn.Load(), indexChecks.Load(), indexDiverged.Load())
	fmt.Printf("index: puts=%d deletes=%d lookups=%d hits=%d\n", st.Puts, st.Deletes, st.Lookups, st.Hits)
	if torn.Load() > 0 {
		log.Fatal("BUG: snapshot isolation violated")
	}
	if indexDiverged.Load() > 0 {
		log.Fatal("BUG: index lookup diverged from the snapshot scan")
	}
	if checked.Load() == 0 || indexChecks.Load() == 0 {
		log.Fatal("no point read or no index check ran: nothing was verified")
	}
	fmt.Println("read path held: every snapshot was consistent and every index lookup matched its scan")
}

func be(v uint64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, v)
	return out
}

func u64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
