package main

import (
	"math"
	"slices"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func opTimes(samples []sample, keep func(sample) bool) []float64 {
	var ms []float64
	for _, s := range samples {
		if keep(s) {
			ms = append(ms, s.ms)
		}
	}
	return ms
}

// endToEndMetrics are the metrics of an untraced run. The quality metrics
// are means over the run's passes.
func endToEndMetrics(samples []sample, setupSec []float64, passes []outcome, rssMB float64) map[string]metric {
	ms := opTimes(samples, func(sample) bool { return true })
	var sumMS, alloc, moved float64
	for _, s := range samples {
		sumMS += s.ms
		alloc += float64(s.alloc)
		moved += float64(s.moved)
	}
	n := float64(len(samples))
	var costOverLB, bill float64
	for _, p := range passes {
		costOverLB += ratio(float64(p.cost), float64(p.lowerBound)) / float64(len(passes))
		bill += p.billUSD / float64(len(passes))
	}
	return map[string]metric{
		"setup_s":            {median(setupSec), "s"},
		"op_ms.p50":          {median(ms), "ms"},
		"op_ms.p90":          {quantile(ms, 0.9), "ms"},
		"ops_per_s":          {ratio(n, sumMS/1e3), "1/s"},
		"alloc_mb_per_op":    {ratio(alloc/1e6, n), "MB"},
		"max_rss_mb":         {rssMB, "MB"},
		"cost_over_lb":       {costOverLB, "ratio"},
		"bill_usd":           {bill, "USD"},
		"pairs_moved_per_op": {ratio(moved, n), "pairs"},
	}
}

// layerMetrics are the metrics of a traced run: per-call medians of the
// layer spans, per-op counts, self times per traced op, and the tracing
// overhead. A layer the workload does not exercise reads 0.
func layerMetrics(samples []sample, spans []Span, c *counters, out outcome) map[string]metric {
	// Split spans by the root they hang under: set-up, or op and check.
	rootOf := make([]string, len(spans))
	inSetup := make([]bool, len(spans))
	inRun := make([]bool, len(spans))
	for i, s := range spans {
		rootOf[i] = s.Name
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent]
		}
		inSetup[i] = rootOf[i] == spanSetup
		inRun[i] = !inSetup[i]
	}
	setup := summarize(spans, inSetup)
	st := summarize(spans, inRun)
	perCall := func(name string) float64 { return median(st.calls[name]) }

	n := float64(len(samples))
	var gcCycles, gcPause float64
	for _, s := range samples {
		gcCycles += float64(s.gcCycles)
		gcPause += float64(s.gcPauseNs) / 1e6
	}
	traced := opTimes(samples, func(s sample) bool { return s.traced })
	untraced := opTimes(samples, func(s sample) bool { return !s.traced })

	m := map[string]metric{
		"tracegen.gen_ms":                   {median(setup.calls[spanTracegen]), "ms"},
		"core.stage1.ms":                    {perCall(spanStage1), "ms"},
		"core.stage1.selected_pairs":        {float64(out.selected), "pairs"},
		"core.stage2.ms":                    {perCall(spanStage2), "ms"},
		"core.stage2.vms":                   {float64(out.vms), "count"},
		"core.lowerbound.ms":                {perCall(spanLowerBound), "ms"},
		"core.verify.ms":                    {perCall(spanVerify), "ms"},
		"dynamic.incremental.ms":            {perCall(spanIncremental), "ms"},
		"dynamic.incremental.fallback_frac": {ratio(float64(c.fallbacks), float64(c.incCalls)), "ratio"},
		"dynamic.incremental.regret":        {ratio(c.regretSum, float64(c.incCalls)), "ratio"},
		"dynamic.incremental.repair_pairs":  {ratio(float64(c.repairPairs), float64(c.incCalls)), "pairs"},
		"dynamic.fingerprint.ms":            {perCall(spanFingerprint), "ms"},
		"dynamic.plan_steps":                {ratio(float64(c.planSteps), float64(c.plans)), "count"},
		"deploy.plan.ms":                    {perCall(spanPlan), "ms"},
		"deploy.apply.ms":                   {perCall(spanApply), "ms"},
		"deploy.journal.encode_ms":          {perCall(spanEncode), "ms"},
		"deploy.journal.bytes_per_op":       {ratio(float64(c.journalBytes), n), "bytes"},
		"deploy.journal.fsyncs_per_op":      {ratio(float64(c.fsyncs), n), "count"},
		"deploy.journal.fsync_ms":           {perCall(spanFsync), "ms"},
		"deploy.journal.compact_ms":         {perCall(spanCompact), "ms"},
		"deploy.executor.retries":           {float64(c.retries), "count"},
		"elastic.step.ms":                   {perCall(spanStep), "ms"},
		"elastic.adopt_frac":                {ratio(float64(c.adopted), float64(c.epochs)), "ratio"},
		"elastic.forced_frac":               {ratio(float64(c.forced), float64(c.epochs)), "ratio"},
		"elastic.keep.added_pairs":          {ratio(float64(c.keepAdded), float64(c.epochs)), "pairs"},
		"runtime.gc_cycles_per_op":          {ratio(gcCycles, n), "count"},
		"runtime.gc_pause_ms":               {ratio(gcPause, n), "ms"},
		"trace.op_ms.p50":                   {median(traced), "ms"},
		"trace.untraced_op_ms.p50":          {median(untraced), "ms"},
		"trace.overhead_ms":                 {median(traced) - median(untraced), "ms"},
	}
	for _, name := range opTreeSpans {
		m[name+".self_ms"] = metric{ratio(st.self[name], float64(len(traced))), "ms"}
	}
	return m
}
