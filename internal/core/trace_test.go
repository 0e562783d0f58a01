package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/workload"
)

// logSink collects every log line the system emits, safely across the
// server, DCM, and agent goroutines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) find(substrs ...string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
outer:
	for _, line := range l.lines {
		for _, s := range substrs {
			if !strings.Contains(line, s) {
				continue outer
			}
		}
		return line, true
	}
	return "", false
}

// TestTraceFlowsEndToEnd follows one client-chosen trace ID through the
// whole system: the RPC request log, the database journal line for the
// mutation, the DCM pass it triggers, the push log for the resulting
// update, and the update agents' agent.install spans.
func TestTraceFlowsEndToEnd(t *testing.T) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	cfg := workload.Scaled(80)
	sink := &logSink{}
	s, err := Boot(Options{Clock: clk, Workload: &cfg, Logf: sink.logf, TraceSlow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var journal bytes.Buffer
	s.DB.SetJournal(&journal)

	if err := s.AddAccount("oper", "pw", "Op", "Erator"); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant("oper"); err != nil {
		t.Fatal(err)
	}
	c, err := s.ClientAs("oper", "pw", "mrtest")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()

	const trace = "t-e2e-99"
	c.SetTraceID(trace)

	// A mutation under the pinned trace ID lands in the journal with it.
	if err := c.Query("add_list",
		[]string{"trace-list", "1", "1", "0", "1", "0", "0", "USER", "root", "Trace List"},
		nil); err != nil {
		t.Fatal(err)
	}
	s.DB.LockShared()
	jtext := journal.String()
	s.DB.UnlockShared()
	found := false
	for _, line := range strings.Split(jtext, "\n") {
		if strings.HasPrefix(line, "v2:") && strings.Contains(line, trace) &&
			strings.Contains(line, "add_list") {
			found = true
		}
	}
	if !found {
		t.Errorf("journal has no v2 line with trace %q:\n%s", trace, jtext)
	}

	// The server's request log carries the same trace.
	if _, ok := sink.find("op=query", "handle=add_list", "trace="+trace); !ok {
		t.Error("no request log line with the trace ID")
	}

	// Trigger the DCM under the same trace; the pass and the pushes it
	// performs are tagged with it in the logs.
	if err := c.TriggerDCM(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := sink.find("dcm: pass complete:", "trace="+trace); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("triggered DCM pass never logged with the trace ID")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if line, ok := sink.find("updated", "trace="+trace); !ok {
		t.Error("no push log line with the trace ID")
	} else if !strings.Contains(line, "dcm") {
		t.Errorf("push log line = %q", line)
	}

	// The agents that installed during the traced pass recorded their
	// installs as spans in the same trace.
	agentSaw := false
	for _, tr := range s.Tracer.Find(trace) {
		if tr.Root().Name == "agent.install" {
			agentSaw = true
		}
	}
	if !agentSaw {
		t.Error("no update agent recorded an install under the trace ID")
	}

	// And the cumulative registry picked up the pass and agent series.
	snap := s.Registry.Snapshot()
	for _, name := range []string{"dcm.passes", "dcm.hosts.updated", "update.installs", "update.xfers"} {
		if snap.Counters[name] == 0 {
			t.Errorf("registry counter %s = 0 after a traced pass", name)
		}
	}
	if snap.Counters["update.bytes"] == 0 {
		t.Error("update.bytes = 0 after propagation")
	}
}
