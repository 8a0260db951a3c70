package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRunWorkloadSmoke(t *testing.T) {
	p := tiny()
	// The tiny windows commit few transactions; a high toggle fraction makes
	// sure insert→delete round-trips land inside them.
	p.InsertFrac = 0.5
	// The rule counters below need deletes to be logged while the split
	// runs: size T so that takes about as long as the other two windows.
	p.TRows, p.SplitValues = 20_000, 2_000
	rep, err := RunWorkload(p)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}

	if len(rep.Windows) != 3 {
		t.Fatalf("%d windows, want 3", len(rep.Windows))
	}
	for i, name := range []string{"baseline", "during", "after"} {
		w := rep.Windows[i]
		if w.Name != name {
			t.Errorf("window %d = %q, want %q", i, w.Name, name)
		}
		if w.Txns == 0 || w.Throughput <= 0 {
			t.Errorf("window %q committed nothing: %+v", name, w)
		}
		if w.P50Ms <= 0 || w.P95Ms < w.P50Ms || w.P99Ms < w.P95Ms {
			t.Errorf("window %q percentiles not ordered: %+v", name, w)
		}
	}

	tr := rep.Transform
	if tr.Kind != "split" || tr.TotalMs <= 0 || tr.InitialImageRows == 0 {
		t.Errorf("transform summary incomplete: %+v", tr)
	}
	if tr.TraceEvents == 0 {
		t.Error("no trace events recorded")
	}
	// The insert/delete mix must make the insert and delete rules fire, not
	// just the update rule (regression: a pure-update workload reported only
	// rule10).
	for _, rule := range []string{"rule8", "rule9", "rule10"} {
		if tr.Rules[rule] == 0 {
			t.Errorf("rule counter %s never fired: %v", rule, tr.Rules)
		}
	}
	// Compaction ran by default and its accounting is consistent.
	if tr.CompactIn == 0 || tr.CompactOut == 0 || tr.CompactOut > tr.CompactIn {
		t.Errorf("compaction accounting off: in=%d out=%d", tr.CompactIn, tr.CompactOut)
	}
	if tr.CompactRatio < 1 {
		t.Errorf("compact ratio %v < 1", tr.CompactRatio)
	}
	if tr.RecordsScanned < tr.RecordsApplied {
		t.Errorf("scanned %d < applied %d", tr.RecordsScanned, tr.RecordsApplied)
	}
	if len(tr.Progress) == 0 {
		t.Error("no live progress samples recorded")
	} else if len(tr.Progress) > 64 {
		t.Errorf("progress trail not thinned: %d samples", len(tr.Progress))
	}

	// The engine metrics snapshot rode along.
	if rep.Metrics.Counters["engine.txn.commit"] == 0 {
		t.Error("metrics snapshot missing committed transactions")
	}
	if rep.Metrics.Counters["core.propagated"] == 0 {
		t.Error("metrics snapshot missing propagated records")
	}

	// The report round-trips through its JSON encoding.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back WorkloadReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if back.Transform.TotalMs != tr.TotalMs || len(back.Windows) != 3 {
		t.Errorf("JSON round-trip mismatch: %+v", back.Transform)
	}
}
