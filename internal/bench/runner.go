package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sistream/internal/kv"
	_ "sistream/internal/lsm" // registers the "lsm" backend driver
	"sistream/internal/metrics"
	"sistream/internal/txn"
	"sistream/internal/zipf"
)

// chkKey is the shared invariant token key used by CheckConsistency: the
// writer keeps it identical across all states within each transaction, so
// any committed reader snapshot must observe equal values everywhere.
const chkKey = "\x00chk"

// Run executes one benchmark cell and returns its result. cfg.Backend
// resolves through the kv adapter registry, so any registered spec works
// ("mem", "lsm", "cache(256)+lsm", ...).
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	store, err := kv.Open(cfg.Backend, kv.OpenOptions{Dir: cfg.Dir})
	if err != nil {
		return Result{}, err
	}
	defer store.Close()
	return runOn(cfg, store)
}

// runOn runs one validated cell over an already opened base store. Aborts
// are part of the measurement; any other protocol or store error stops
// the cell and is returned instead of a Result.
func runOn(cfg Config, store kv.Store) (Result, error) {
	value := make([]byte, cfg.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	if err := preload(cfg, store, value); err != nil {
		return Result{}, err
	}

	// --- transactional setup ----------------------------------------------
	// CreateGroup recovers the preloaded rows into the version store — the
	// same code path a restart uses.
	ctx, tables, group, err := setup(cfg, store, txn.TableOptions{
		SyncCommits:  cfg.Sync,
		VersionSlots: cfg.VersionSlots,
	})
	if err != nil {
		return Result{}, err
	}
	var p txn.Protocol
	switch cfg.Protocol {
	case "mvcc":
		p = txn.NewSI(ctx)
	case "s2pl":
		p = txn.NewS2PL(ctx)
	case "bocc":
		p = txn.NewBOCC(ctx)
	}

	// Seed the consistency token.
	if cfg.CheckConsistency {
		tx, err := p.Begin()
		if err != nil {
			return Result{}, err
		}
		for _, t := range tables {
			if err := p.Write(tx, t, chkKey, encodeU64(0)); err != nil {
				return Result{}, err
			}
		}
		if err := p.Commit(tx); err != nil {
			return Result{}, err
		}
	}

	// --- workers -----------------------------------------------------------
	params := zipf.NewParams(uint64(cfg.TableSize), cfg.Theta)
	var (
		readerCommits, readerAborts atomic.Int64
		writerCommits, writerAborts atomic.Int64
		violations                  atomic.Int64
		readLat, commitLat          metrics.Histogram
		chkSeq                      atomic.Uint64
	)
	// halt ends the cell: with nil when the measured interval is over,
	// with the first non-abort error a worker hit (a poisoned commit group,
	// a full transaction table) otherwise.
	var (
		fatal    error
		haltOnce sync.Once
		wg       sync.WaitGroup
	)
	stop := make(chan struct{})
	halt := func(err error) {
		haltOnce.Do(func() {
			fatal = err
			close(stop)
		})
	}
	// failed accounts one failed operation: an abort is counted and the
	// worker retries with a fresh transaction, anything else halts the cell.
	failed := func(err error, aborts *atomic.Int64) {
		if txn.IsAbort(err) {
			aborts.Add(1)
			return
		}
		halt(err)
	}

	// Writer(s): the continuous stream query updating all states in
	// TxnOps-operation transactions, keys Zipf-distributed.
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := zipf.New(params, seed)
			val := make([]byte, cfg.ValueBytes)
			copy(val, value)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := p.Begin()
				if err != nil {
					halt(err)
					return
				}
				ok := true
				for i := 0; i < cfg.TxnOps && ok; i++ {
					key := keyString(gen.Next(), cfg.KeyBytes)
					tbl := tables[i%len(tables)]
					if err := p.Write(tx, tbl, key, val); err != nil {
						_ = p.Abort(tx)
						failed(err, &writerAborts)
						ok = false
					}
				}
				if !ok {
					continue
				}
				if cfg.CheckConsistency {
					seq := chkSeq.Add(1)
					for _, t := range tables {
						if err := p.Write(tx, t, chkKey, encodeU64(seq)); err != nil {
							_ = p.Abort(tx)
							failed(err, &writerAborts)
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
				}
				start := time.Now()
				if err := p.Commit(tx); err != nil {
					failed(err, &writerAborts)
					continue
				}
				commitLat.RecordSince(start)
				writerCommits.Add(1)
			}
		}(cfg.Seed + int64(w))
	}

	// Readers: ad-hoc queries doing TxnOps point reads across the states
	// under one transaction.
	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := zipf.New(params, seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				tx, err := p.BeginReadOnly()
				if err != nil {
					halt(err)
					return
				}
				ok := true
				var chkVals [][]byte
				for i := 0; i < cfg.TxnOps && ok; i++ {
					key := keyString(gen.Next(), cfg.KeyBytes)
					tbl := tables[i%len(tables)]
					if _, _, err := p.Read(tx, tbl, key); err != nil {
						_ = p.Abort(tx) // no-op if already dead (wait-die)
						failed(err, &readerAborts)
						ok = false
					}
				}
				if ok && cfg.CheckConsistency {
					for _, t := range tables {
						v, _, err := p.Read(tx, t, chkKey)
						if err != nil {
							_ = p.Abort(tx)
							failed(err, &readerAborts)
							ok = false
							break
						}
						chkVals = append(chkVals, append([]byte(nil), v...))
					}
				}
				if !ok {
					continue
				}
				if err := p.Commit(tx); err != nil {
					failed(err, &readerAborts)
					continue
				}
				// Committed: snapshot must have been consistent.
				for i := 1; i < len(chkVals); i++ {
					if decodeU64(chkVals[i]) != decodeU64(chkVals[0]) {
						violations.Add(1)
					}
				}
				readLat.RecordSince(start)
				readerCommits.Add(1)
			}
		}(cfg.Seed + 1000 + int64(r))
	}

	// --- measure -----------------------------------------------------------
	began := time.Now()
	timer := time.NewTimer(cfg.Duration)
	defer timer.Stop()
	select {
	case <-timer.C:
		halt(nil)
	case <-stop:
	}
	wg.Wait()
	if fatal != nil {
		return Result{}, fmt.Errorf("bench: cell stopped: %w", fatal)
	}
	elapsed := time.Since(began)

	res := Result{
		Config:        cfg,
		Elapsed:       elapsed,
		ReaderCommits: readerCommits.Load(),
		ReaderAborts:  readerAborts.Load(),
		WriterCommits: writerCommits.Load(),
		WriterAborts:  writerAborts.Load(),
		ReadP50:       readLat.Quantile(0.5),
		ReadP99:       readLat.Quantile(0.99),
		CommitP50:     commitLat.Quantile(0.5),
		CommitP99:     commitLat.Quantile(0.99),
		Violations:    violations.Load(),
	}
	res.CommitTxns, res.CommitBatches = group.CommitStats()
	secs := elapsed.Seconds()
	res.ReaderTps = float64(res.ReaderCommits) / secs
	res.WriterTps = float64(res.WriterCommits) / secs
	res.TotalTps = res.ReaderTps + res.WriterTps
	return res, nil
}

// setup registers cfg.States tables over store and groups them.
func setup(cfg Config, store kv.Store, opts txn.TableOptions) (*txn.Context, []*txn.Table, *txn.Group, error) {
	ctx := txn.NewContext()
	tables := make([]*txn.Table, cfg.States)
	for s := range tables {
		t, err := ctx.CreateTable(txn.StateID(fmt.Sprintf("state%d", s)), store, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		tables[s] = t
	}
	g, err := ctx.CreateGroup("bench", tables...)
	if err != nil {
		return nil, nil, nil, err
	}
	return ctx, tables, g, nil
}

// preload writes every key of every state through a throw-away context:
// unsynced 1 000-row SI transactions, then one Sync — far faster than
// TableSize synchronous commits.
func preload(cfg Config, store kv.Store, value []byte) error {
	ctx, tables, _, err := setup(cfg, store, txn.TableOptions{})
	if err != nil {
		return err
	}
	p := txn.NewSI(ctx)
	const batch = 1000
	ops := make([]txn.WriteOp, 0, batch)
	for lo := 0; lo < cfg.TableSize; lo += batch {
		ops = ops[:0]
		for k := lo; k < min(lo+batch, cfg.TableSize); k++ {
			ops = append(ops, txn.WriteOp{Key: keyString(uint64(k), cfg.KeyBytes), Value: value})
		}
		tx, err := p.Begin()
		if err != nil {
			return err
		}
		for _, t := range tables {
			if _, err := p.WriteBatch(tx, t, ops); err != nil {
				return err
			}
		}
		if err := p.Commit(tx); err != nil {
			return err
		}
	}
	return store.Sync()
}

// keyString renders rank k as a fixed-width key of n bytes.
func keyString(k uint64, n int) string {
	buf := make([]byte, n)
	for i := n - 1; i >= 0; i-- {
		buf[i] = byte('0' + k%10)
		k /= 10
	}
	return string(buf)
}

func encodeU64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func decodeU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
