package qor

import (
	"github.com/blasys-go/blasys/internal/telemetry"
)

// Hot-loop telemetry for the incremental comparer. Per-candidate evaluation
// latency is recorded by the sweep driver (internal/core); here the eval is
// split into its compile and simulate phases, and the clean-wave early-out
// is counted so the cache's effectiveness (clean vs cone batches) is
// visible. Counters aggregate seconds rather than per-phase histograms
// because the phases run per candidate in the innermost loop — two clock
// reads per eval is the entire added cost.
var (
	mCompileSeconds = telemetry.Default().Counter(
		"blasys_qor_eval_compile_seconds_total",
		"Cumulative time compiling candidate slot programs (impl segment + dirty cone).")
	mSimSeconds = telemetry.Default().Counter(
		"blasys_qor_eval_sim_seconds_total",
		"Cumulative time in the per-batch simulate/fold loop of candidate evals.")
	// Decode time is a subset of the simulate window above; the quotient is
	// the share of candidate evaluation spent in computeBatchStats (qor.go).
	// Timed once per group of eight batches that holds a dirty batch — clean
	// groups fold cached partials and skip the decode entirely, so the two
	// extra clock reads only land where real decode work happens.
	mDecodeSeconds = telemetry.Default().Counter(
		"blasys_qor_eval_decode_seconds_total",
		"Cumulative time in the metric decode of candidate evals (subset of the simulate phase).")
	mEvalBatchKind = telemetry.Default().CounterVec(
		"blasys_qor_eval_batches_total",
		"Sample batches processed by candidate evals, by outcome: clean (cached partial folded) vs cone (re-simulated).",
		"kind")
	mEvalBatches = telemetry.Default().Histogram(
		"blasys_qor_eval_batch_count",
		"Sample batches examined per candidate eval (0 when the dirty cone misses every output).",
		telemetry.CountBuckets)
	mBatchPasses = telemetry.Default().Counter(
		"blasys_qor_batch_passes_total",
		"Fused lane-packed evaluation passes (one shared cone compile covering all lanes of a chunk).")
	mBatchLanes = telemetry.Default().Histogram(
		"blasys_qor_batch_lane_count",
		"Candidate lanes fused per batch evaluation pass.",
		telemetry.CountBuckets)
)
