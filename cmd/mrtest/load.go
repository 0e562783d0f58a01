package main

// The closed-loop load driver: N pipelined connections, each with K
// calls kept in flight by K worker goroutines that issue the next call
// the moment the previous one completes. Closed-loop means offered load
// tracks service rate — the driver measures sustainable throughput and
// the latency the server actually delivers at that concurrency, rather
// than queueing unboundedly like an open-loop generator.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/client"
	"moira/internal/mrerr"
)

type loadOptions struct {
	addr     string
	conns    int           // pipelined connections (0 or serial mode: one serial client)
	inflight int           // concurrent calls per connection
	duration time.Duration // measurement window
	serial   bool          // baseline mode: one classic client, one call in flight
	batch    int           // >0: drive OpBatch with this many items per call
	query    string        // query name for query mode
	args     []string      // its arguments
	jsonPath string        // write the results JSON here ("" = none, "-" = stdout)
}

// loadResult is the JSON shape written by -load-json (and committed as
// BENCH_protocol_v4.json by the release benchmark run).
type loadResult struct {
	Mode       string         `json:"mode"` // "serial", "pipelined", or "batch"
	Query      string         `json:"query,omitempty"`
	Conns      int            `json:"conns"`
	Inflight   int            `json:"inflight"`
	BatchSize  int            `json:"batch_size,omitempty"`
	DurationMS int64          `json:"duration_ms"`
	Ops        int64          `json:"ops"`   // completed calls (batch items count individually)
	Calls      int64          `json:"calls"` // round trips issued
	OpsPerSec  float64        `json:"ops_per_sec"`
	P50us      int64          `json:"p50_us"`
	P95us      int64          `json:"p95_us"`
	P99us      int64          `json:"p99_us"`
	Errors     int64          `json:"errors"`
	ItemCodes  map[string]int `json:"item_codes,omitempty"` // batch mode: per-item code histogram
}

// loadConn is the slice of the client API the workers need, satisfied
// by both *client.Client (serial baseline) and *client.Pipeline.
type loadConn interface {
	Query(name string, args []string, cb client.TupleFunc) error
	Batch(items []client.BatchItem) ([]mrerr.Code, error)
}

func runLoad(o loadOptions) error {
	nconns := o.conns
	if o.serial {
		nconns = 1
	}
	if nconns < 1 || o.inflight < 1 {
		return fmt.Errorf("load: conns and inflight must be positive")
	}

	conns := make([]loadConn, nconns)
	for i := range conns {
		if o.serial {
			c, err := client.Dial(o.addr)
			if err != nil {
				return fmt.Errorf("load: dial: %w", err)
			}
			defer c.Disconnect()
			conns[i] = c
		} else {
			p, err := client.DialPipeline(o.addr, 5*time.Second, nil)
			if err == nil {
				// A pipeline dial sends nothing; one round trip surfaces a
				// shed (MR_BUSY) or skewed server before the measurement.
				err = p.Noop()
			}
			if err != nil {
				return fmt.Errorf("load: dial pipeline: %w", err)
			}
			defer p.Close()
			conns[i] = p
		}
	}

	var (
		ops, calls, errs atomic.Int64
		seq              atomic.Int64
		stop             atomic.Bool
		histMu           sync.Mutex
		codeHist         = map[string]int{}
		latMu            sync.Mutex
		lats             []time.Duration
	)
	inflight := o.inflight
	if o.serial {
		inflight = 1
	}

	worker := func(c loadConn) {
		local := make([]time.Duration, 0, 4096)
		for !stop.Load() {
			t0 := time.Now()
			if o.batch > 0 {
				items := make([]client.BatchItem, o.batch)
				for j := range items {
					n := seq.Add(1)
					items[j] = client.BatchItem{Name: "add_machine",
						Args: []string{fmt.Sprintf("LOAD-%d.MIT.EDU", n), "VAX"}}
				}
				codes, err := c.Batch(items)
				calls.Add(1)
				if err != nil {
					errs.Add(1)
				} else {
					ops.Add(int64(len(codes)))
					histMu.Lock()
					for _, code := range codes {
						codeHist[fmt.Sprintf("%d", int32(code))]++
					}
					histMu.Unlock()
				}
			} else {
				err := c.Query(o.query, o.args, func([]string) error { return nil })
				calls.Add(1)
				if err != nil {
					errs.Add(1)
				} else {
					ops.Add(1)
				}
			}
			local = append(local, time.Since(t0))
		}
		latMu.Lock()
		lats = append(lats, local...)
		latMu.Unlock()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range conns {
		for k := 0; k < inflight; k++ {
			wg.Add(1)
			go func(c loadConn) {
				defer wg.Done()
				worker(c)
			}(c)
		}
	}
	time.Sleep(o.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i].Microseconds()
	}
	mode := "pipelined"
	if o.serial {
		mode = "serial"
	}
	res := loadResult{
		Mode: mode, Query: o.query, Conns: nconns, Inflight: inflight,
		DurationMS: elapsed.Milliseconds(),
		Ops:        ops.Load(), Calls: calls.Load(),
		OpsPerSec: float64(ops.Load()) / elapsed.Seconds(),
		P50us:     pct(0.50), P95us: pct(0.95), P99us: pct(0.99),
		Errors: errs.Load(),
	}
	if o.batch > 0 {
		res.Mode, res.Query, res.BatchSize, res.ItemCodes = "batch", "", o.batch, codeHist
	}

	fmt.Printf("load: %s conns=%d inflight=%d: %d ops in %v (%.0f ops/sec), p50=%dus p95=%dus p99=%dus, %d errors\n",
		res.Mode, res.Conns, res.Inflight, res.Ops, elapsed.Round(time.Millisecond),
		res.OpsPerSec, res.P50us, res.P95us, res.P99us, res.Errors)

	if o.jsonPath != "" {
		blob, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if o.jsonPath == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(o.jsonPath, blob, 0644); err != nil {
			return err
		}
	}
	if res.Ops == 0 {
		return fmt.Errorf("load: no calls completed")
	}
	return nil
}
