package main

import (
	"fmt"
	"time"

	"nbschema/internal/obs"
)

// perLayer is the fixed list of per-layer metrics, in print order. A traced
// run reports every one of them on every workload; where a layer does no
// work (core on steady_mixed, the generator on a closed loop) the value is 0.
// BENCHMARK.json repeats the list.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	both := func(stems ...string) (names []string) {
		for _, s := range stems {
			names = append(names, s+"_baseline", s+"_during")
		}
		return names
	}
	// value, lock, storage, wal, engine: the layer replay.
	add("ns", "lower", "value.key_encode_ns")
	add("allocs", "lower", "value.key_encode_allocs")
	add("ns", "lower", "lock.acquire10_release_ns")
	add("allocs", "lower", "lock.acquire_allocs")
	for _, stem := range []string{"storage.get", "storage.update", "storage.insert_delete", "storage.index_lookup"} {
		add("ns", "lower", stem+"_ns")
		add("allocs", "lower", stem+"_allocs")
	}
	add("ns", "lower", "storage.scan_ns_per_row")
	add("allocs", "lower", "storage.scan_allocs_per_row")
	add("ns", "lower", "wal.append_ns", "wal.marshal_ns", "wal.scan_ns_per_rec", "wal.tail_decode_ns")
	add("ns", "lower", "engine.txn_update10_ns", "engine.txn_get10_ns", "engine.txn_empty_ns")
	add("allocs", "lower", "engine.allocs_per_txn")
	add("ns", "lower", "engine.txn_residual_ns")
	// lock and latch waits and the WAL's volume, from the registry and the
	// log's own counters, before vs. during.
	add("count", "lower", both("lock.wait_count", "latch.wait_count")...)
	add("us", "lower", both("lock.wait_us_p99", "latch.wait_us_p99")...)
	add("count", "lower", "lock.deadlocks", "lock.timeouts", "lock.transfers", "lock.transfer_conflicts")
	add("count", "lower", "wal.recs_per_txn")
	add("B", "lower", "wal.bytes_per_txn")
	add("count", "higher", "wal.group_batch_mean")
	add("count", "lower", both("go.gc_cycles")...)
	// engine: the spans around each call, before vs. during.
	add("us", "lower", both("engine.begin_us", "engine.op_us_mean", "engine.op_us_p99",
		"engine.commit_us_mean", "engine.commit_us_p99", "engine.abort_us_mean")...)
	add("txn/s", "higher", "engine.after_tps")
	add("us", "lower", "engine.after_p99_us")
	// core: the transformation's own read-outs.
	add("s", "lower", "core.populate_s", "core.propagate_s")
	add("ms", "lower", "core.sync_latch_ms", "core.drain_ms", "core.commit_lag_ms_p99")
	add("count", "lower", "core.iterations", "core.records_scanned", "core.records_applied", "core.doomed_txns")
	add("1/s", "higher", "core.populate_rows_per_s", "core.propagate_recs_per_s")
	add("ratio", "higher", "core.compact_ratio")
	for n := 1; n <= 11; n++ {
		add("count", "lower", fmt.Sprintf("core.rule.%d", n))
	}
	// The generator, the foreground as a whole, and the tracing itself.
	add("us", "lower", "gen.late_us_p99")
	add("count", "lower", "gen.backlog_max")
	add("us", "lower", "fg_p999_us_during")
	add("us", "lower", "fg_mean_us_baseline.update", "fg_mean_us_baseline.read", "fg_mean_us_baseline.pair")
	add("count", "lower", "fg.retried.doomed", "fg.retried.deadlock", "fg.retried.lock_timeout", "fg.retried.no_access")
	add("ratio", "higher", "interference.tput_ratio")
	add("ratio", "lower", "interference.rt_ratio")
	add("ratio", "lower", "trace.overhead_frac")
	return out
}

// histDelta sums, over the trials, the named histogram's growth between two
// marks.
func histDelta(trials []*trialResult, name string, from, to int) obs.HistogramSnapshot {
	var sum obs.HistogramSnapshot
	for _, r := range trials {
		d := r.marks[to].reg.Histograms[name].Sub(r.marks[from].reg.Histograms[name])
		sum.Count += d.Count
		sum.SumNs += d.SumNs
		for i := range sum.Buckets {
			sum.Buckets[i] += d.Buckets[i]
		}
	}
	return sum
}

// perLayerMetrics assembles the per-layer list of a traced run. replay is the
// layer replay's result over calls calls; untraced is fg_tps_baseline of the
// last untraced run of the same workload (0 = none).
func perLayerMetrics(s *spec, trials []*trialResult, replay map[string]cost, calls int, wr workloadReport, untraced float64) []metric {
	v := map[string]metric{}
	set := func(name string, value float64, n int) { v[name] = metric{Value: value, N: n} }
	nt := len(trials)
	med := func(f func(*trialResult) float64) float64 { return median(overTrials(trials, f)) }
	total := func(f func(*trialResult) float64) (sum float64) {
		for _, x := range overTrials(trials, f) {
			sum += x
		}
		return sum
	}

	// (B) layer replay.
	txns := calls / opsPerTxn
	for _, stem := range []string{"value.key_encode", "storage.get", "storage.update", "storage.insert_delete", "storage.index_lookup"} {
		set(stem+"_ns", replay[stem].ns, calls)
		set(stem+"_allocs", replay[stem].allocs, calls)
	}
	for _, stem := range []string{"wal.append", "wal.marshal", "wal.tail_decode"} {
		set(stem+"_ns", replay[stem].ns, calls)
	}
	set("storage.scan_ns_per_row", replay["storage.scan_per_row"].ns, s.rows)
	set("storage.scan_allocs_per_row", replay["storage.scan_per_row"].allocs, s.rows)
	set("wal.scan_ns_per_rec", replay["wal.scan_per_rec"].ns, calls)
	set("lock.acquire10_release_ns", replay["lock.acquire10_release"].ns, txns)
	set("lock.acquire_allocs", replay["lock.acquire10_release"].allocs/opsPerTxn, calls)
	for _, stem := range []string{"engine.txn_update10", "engine.txn_get10", "engine.txn_empty"} {
		set(stem+"_ns", replay[stem].ns, txns)
	}
	set("engine.allocs_per_txn", replay["engine.txn_update10"].allocs, txns)
	// What a ten-update transaction costs beyond the layer calls it is made
	// of: 10 × (encode the key, update the row, log the update), ten locks
	// and their release, and the begin and commit records.
	txn := replay["engine.txn_update10"].ns
	layers := opsPerTxn*(replay["value.key_encode"].ns+replay["storage.update"].ns+replay["wal.append"].ns) +
		replay["lock.acquire10_release"].ns + 2*replay["wal.append"].ns
	v["engine.txn_residual_ns"] = metric{Value: txn - layers, N: txns,
		Note: fmt.Sprintf("txn_update10 %.0f − layers %.0f", txn, layers)}

	// (C) registry and log read-outs, before vs. during.
	for _, w := range []struct {
		name     string
		from, to int
	}{{"baseline", 0, 1}, {"during", 2, 3}} {
		for stem, hist := range map[string]string{"lock": "engine.lock.wait", "latch": "engine.latch.wait"} {
			h := histDelta(trials, hist, w.from, w.to)
			set(stem+".wait_count_"+w.name, float64(h.Count), nt)
			set(stem+".wait_us_p99_"+w.name, float64(h.Quantile(0.99))/float64(time.Microsecond), int(h.Count))
		}
		set("go.gc_cycles_"+w.name, total(func(r *trialResult) float64 { return float64(r.marks[w.to].gcCycles - r.marks[w.from].gcCycles) }), nt)
	}
	counter := func(name string) float64 {
		return total(func(r *trialResult) float64 { return float64(r.marks[3].reg.Counters[name]) })
	}
	set("lock.deadlocks", counter("engine.lock.deadlock"), nt)
	set("lock.timeouts", counter("engine.lock.timeout"), nt)
	set("lock.transfers", counter("engine.lock.transfer"), nt)
	set("lock.transfer_conflicts", counter("engine.lock.transfer.conflict"), nt)
	if batches := counter("wal.group.batch"); batches > 0 {
		set("wal.group_batch_mean", counter("wal.group.records")/batches, int(batches))
	}
	if txns := len(pooled(trials, winBaseline)); txns > 0 {
		set("wal.recs_per_txn", total(func(r *trialResult) float64 { return float64(r.marks[1].walEnd - r.marks[0].walEnd) })/float64(txns), txns)
		set("wal.bytes_per_txn", total(func(r *trialResult) float64 { return float64(r.marks[1].walBytes - r.marks[0].walBytes) })/float64(txns), txns)
	}

	// (A) spans around the engine calls.
	spans := spanStatsOf(trials)
	for win, name := range map[int]string{winBaseline: "baseline", winDuring: "during"} {
		begin, op, commit, abort := spans[spBegin][win], spans[spOp][win], spans[spCommit][win], spans[spAbort][win]
		set("engine.begin_us_"+name, begin.mean, begin.n)
		set("engine.op_us_mean_"+name, op.mean, op.n)
		set("engine.op_us_p99_"+name, op.p99, op.n)
		set("engine.commit_us_mean_"+name, commit.mean, commit.n)
		set("engine.commit_us_p99_"+name, commit.p99, commit.n)
		set("engine.abort_us_mean_"+name, abort.mean, abort.n)
	}
	after := pooled(trials, winAfter)
	set("engine.after_tps", tps(trials, winAfter), len(after))
	if p, ok := percentile(after, 0.99); ok {
		set("engine.after_p99_us", float64(p)/1e3, len(after))
	}

	// (C) the transformation's metrics, median over trials.
	if s.kind != kindSteady {
		sec := func(d time.Duration) float64 { return d.Seconds() }
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		set("core.populate_s", med(func(r *trialResult) float64 { return sec(r.core.PopulationDuration) }), nt)
		set("core.propagate_s", med(func(r *trialResult) float64 { return sec(r.core.PropagationDuration) }), nt)
		set("core.sync_latch_ms", med(func(r *trialResult) float64 { return ms(r.core.SyncLatchDuration) }), nt)
		set("core.drain_ms", med(func(r *trialResult) float64 { return ms(r.core.DrainDuration) }), nt)
		set("core.commit_lag_ms_p99", med(func(r *trialResult) float64 { return ms(r.commitLagP99) }), nt)
		set("core.iterations", med(func(r *trialResult) float64 { return float64(r.core.Iterations) }), nt)
		set("core.records_scanned", med(func(r *trialResult) float64 { return float64(r.core.RecordsScanned) }), nt)
		set("core.records_applied", med(func(r *trialResult) float64 { return float64(r.core.RecordsApplied) }), nt)
		set("core.doomed_txns", med(func(r *trialResult) float64 { return float64(r.core.DoomedTxns) }), nt)
		set("core.populate_rows_per_s", med(func(r *trialResult) float64 {
			return float64(r.core.InitialImageRows) / max(sec(r.core.PopulationDuration), 1e-9)
		}), nt)
		set("core.propagate_recs_per_s", med(func(r *trialResult) float64 {
			return float64(r.core.RecordsScanned) / max(sec(r.core.PropagationDuration), 1e-9)
		}), nt)
		set("core.compact_ratio", med(func(r *trialResult) float64 {
			if r.core.CompactOut == 0 {
				return 0
			}
			return float64(r.core.CompactIn) / float64(r.core.CompactOut)
		}), nt)
		for n := 1; n <= 11; n++ {
			rule := fmt.Sprintf("rule%d", n)
			set(fmt.Sprintf("core.rule.%d", n), med(func(r *trialResult) float64 { return float64(r.rules[rule]) }), nt)
		}
	}

	// Generator, foreground, tracing.
	if s.open {
		var late []int64
		backlog := 0
		for _, r := range trials {
			late = append(late, r.pace.late...)
			backlog = max(backlog, r.pace.backlogMax)
		}
		if p, ok := percentile(late, 0.99); ok {
			set("gen.late_us_p99", float64(p)/1e3, len(late))
		}
		set("gen.backlog_max", float64(backlog), nt)
	}
	during := pooled(trials, winDuring)
	if p, ok := percentile(during, 0.999); ok {
		set("fg_p999_us_during", float64(p)/1e3, len(during))
	}
	for _, m := range wr.Info {
		v[m.Name] = m
	}
	for _, name := range retryNames {
		set("fg.retried."+name, float64(wr.Retries[name]), int(wr.EngineTxns))
	}
	if traced := valueOf(wr.EndToEnd, "fg_tps_baseline"); untraced > 0 {
		v["trace.overhead_frac"] = metric{Value: 1 - traced/untraced, N: nt,
			Note: fmt.Sprintf("traced %.0f vs untraced %.0f txn/s", traced, untraced)}
	} else {
		v["trace.overhead_frac"] = metric{Note: "no untraced run of this workload found to compare with"}
	}

	return ordered(perLayer, v)
}
