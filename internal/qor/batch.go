package qor

import (
	"fmt"
	"time"

	"github.com/blasys-go/blasys/internal/logic"
)

// Lane-packed batch evaluation: N candidate implementations of the SAME block
// are simulated in one fused pass instead of N scalar passes.
//
// The single-candidate path compiles one slot program per candidate — impl
// segment plus the statically-dirty fanout cone — and walks the sample
// batches once per candidate, eight consecutive batches per pass. For a batch
// of candidates of one block the cone is identical (it depends only on the
// block and the committed state, never on the candidate's gates), so the
// batch path compiles it once and shares it across all candidates.
// Candidate-specific gates are lowered per lane, and the lanes of the packed
// word store hold candidates instead of batches: slot s of lane l lives at
// packed[s*lanes+l], so every shared cone instruction executes as one
// unrolled loop over adjacent words with a single op dispatch.
//
// Layout of one batch pass over L lanes (slot-major, lanes adjacent):
//
//	packed:  [slot 0: L words][slot 1: L words] ... [slot S-1: L words]
//	         ^ reference-node shadow slots [0, n)  ^ staging + impl tails
//
//	segment 1   per lane: impl gates into lane-local tail slots, outputs
//	            Buf'd into shared staging rows n..n+outs-1
//	clean check per lane against the committed cache; all-clean => fold the
//	            batch's cached metric partial for every lane and skip the cone
//	segment 2   shared cone units over all lanes at once; a committed-region
//	            unit is skipped only when NO lane dirtied its boundary inputs
//	decode      per dirty lane: gather the lane's primary outputs; after every
//	            groupLanes batches score them with computeBatchStats through
//	            one scratch shared by the pass, folding into the lane's
//	            accumulator in batch order with the exact same reportAccum
//	            code the single-candidate and paper-literal paths use
//
// Each lane computes the identical per-batch word values the scalar program
// would: lanes whose inputs equal the committed cache recompute exactly the
// cached values through the shared cone, so per-lane results are bit-identical
// to CompareCandidate (and hence to the paper-literal rebuild+Compare).
const (
	// DefaultLanes is the default lane width of fused batch evaluation:
	// wide enough to amortize compile and op dispatch, narrow enough that
	// the packed slot array stays cache-resident for the in-tree circuits.
	DefaultLanes = 8
	// MaxLanes bounds the lane width; beyond this the packed store's memory
	// traffic eats the dispatch amortization.
	MaxLanes = 32
)

// SetLanes sets the lane width used by CompareCandidates to fuse candidate
// chunks, clamped to [1, MaxLanes]. Lane width is pure scheduling: it changes
// how many candidates share a pass, never any reported value. Not safe
// concurrently with evaluation.
func (ic *IncrementalComparer) SetLanes(w int) {
	if w < 1 {
		w = 1
	}
	if w > MaxLanes {
		w = MaxLanes
	}
	ic.lanes = w
}

// Lanes returns the current lane width (DefaultLanes unless SetLanes was
// called).
func (ic *IncrementalComparer) Lanes() int { return ic.lanes }

// batchScratch is the per-evaluation state of a fused batch pass. It embeds
// the single-candidate compile scratch (dirty marks, frontiers, cone units,
// outSrc are all candidate-independent) and uses its packed word store with
// the pass's lane width: slot s, lane l at sc.packed[s*lanes+l]. It adds
// per-lane program tails and metric accumulators.
type batchScratch struct {
	sc    icScratch
	lanes int // lane count of the pass in flight

	// laneOps[l] is lane l's private impl segment: the candidate's gates into
	// lane-local tail slots plus Bufs into the shared output-staging rows.
	laneOps [][]progOp
	// outs holds the gathered primary outputs of every dirty lane of the
	// groupLanes batches in flight: batch g, lane l at
	// outs[(g*lanes+l)*nOut:], so a group's decode runs as one timed span.
	outs []uint64
	// accs[l] accumulates lane l's metric partials across batches.
	accs []reportAccum
	// clean[g*lanes+l] records whether lane l's block outputs matched the
	// committed cache in batch g of the group in flight.
	clean []bool
	// stats is the one decode scratch every dirty lane of the pass scores
	// through before folding into its accumulator.
	stats batchStats
}

// CompareCandidates evaluates substituting each impls[i] into block bi on top
// of the committed state, writing impls[i]'s report to reps[i]. Candidates
// are fused into lane-packed passes of at most Lanes() lanes; every report is
// bit-identical to CompareCandidate(bi, impls[i]). len(reps) must equal
// len(impls); an empty batch is a no-op. Safe for concurrent use (like
// CompareCandidate), not concurrently with Commit.
func (ic *IncrementalComparer) CompareCandidates(bi int, impls []*logic.Circuit, reps []Report) error {
	bs, _ := ic.batchPool.Get().(*batchScratch)
	if bs == nil {
		bs = &batchScratch{}
	}
	err := ic.compareBatchWith(bs, bi, impls, reps)
	ic.batchPool.Put(bs)
	return err
}

// compareBatchWith is CompareCandidates over caller-owned scratch, chunking
// the candidate list at the comparer's lane width.
func (ic *IncrementalComparer) compareBatchWith(bs *batchScratch, bi int, impls []*logic.Circuit, reps []Report) error {
	if len(impls) != len(reps) {
		return fmt.Errorf("qor: batch: %d impls but %d report slots", len(impls), len(reps))
	}
	for i, impl := range impls {
		if err := ic.checkCandidate(bi, impl); err != nil {
			return fmt.Errorf("qor: batch candidate %d: %w", i, err)
		}
	}
	w := ic.lanes
	if w < 1 {
		w = 1
	}
	for start := 0; start < len(impls); start += w {
		end := start + w
		if end > len(impls) {
			end = len(impls)
		}
		ic.compareChunk(bs, bi, impls[start:end], reps[start:end])
	}
	return nil
}

// compileBatch builds the fused program for one chunk: shared input staging,
// per-lane impl segments writing shared output-staging rows, and one shared
// cone, then sizes the packed store.
func (ic *IncrementalComparer) compileBatch(bi int, impls []*logic.Circuit, bs *batchScratch) {
	sc := &bs.sc
	ic.prepScratch(sc)
	L := len(impls)
	bs.lanes = L
	for len(bs.laneOps) < L {
		bs.laneOps = append(bs.laneOps, nil)
	}
	b := &ic.blocks[bi]

	// Block inputs are upstream of the block: every lane reads the same
	// committed-cache values, staged once into the shared shadow rows.
	sc.inOpsBuf = grow32(sc.inOpsBuf, len(b.Inputs))
	inOps := sc.inOpsBuf[:len(b.Inputs)]
	for i, in := range b.Inputs {
		inOps[i] = sc.operand(in, &sc.implFrontier)
	}

	// Reserve the shared output-staging rows first, at fixed slots
	// n..n+outs-1, so every lane's final Bufs target the same rows. Lane
	// impl tails then all start at the same base slot: they may assign
	// overlapping tail slots, which is safe because each lane's segment
	// executes lane-locally and only ever reads shared rows or its own tail.
	n := len(ic.eval.ref.Nodes)
	for j := range b.Outputs {
		sc.outSlots = append(sc.outSlots, int32(n+j))
		sc.blockOuts = append(sc.blockOuts, b.Outputs[j])
	}
	tailBase := n + len(b.Outputs)
	maxSlots := tailBase
	for l := 0; l < L; l++ {
		next := tailBase
		ops, outs := sc.compileImpl(bs.laneOps[l][:0], impls[l], inOps, &sc.implFrontier, &next)
		for j, o := range outs {
			ops = append(ops, progOp{op: logic.Buf, dst: sc.outSlots[j], a: o})
		}
		bs.laneOps[l] = ops
		if next > maxSlots {
			maxSlots = next
		}
	}
	sc.nSlots = maxSlots
	for _, o := range b.Outputs {
		sc.markDirty(o)
	}

	ic.compileCone(bi, sc)

	for _, o := range ic.eval.ref.Outputs {
		sc.outSrc = append(sc.outSrc, sc.operand(o, &sc.coneFrontier))
	}
	if need := sc.nSlots * L; len(sc.packed) < need {
		sc.packed = make([]uint64, need+need/2)
	}
}

// compareChunk runs one fused pass of up to Lanes() candidates. impls is
// non-empty and pre-validated; reps is parallel to impls.
func (ic *IncrementalComparer) compareChunk(bs *batchScratch, bi int, impls []*logic.Circuit, reps []Report) {
	start := time.Now()
	ic.compileBatch(bi, impls, bs)
	sc := &bs.sc
	defer sc.clearMarks()
	compiled := time.Now()
	mCompileSeconds.Add(compiled.Sub(start).Seconds())
	mBatchPasses.Inc()
	mBatchLanes.Observe(float64(len(impls)))

	e := ic.eval
	if !ic.reachesOutput(sc) {
		// The cone never reaches a primary output: every candidate's outputs
		// are the committed circuit's outputs.
		for l := range reps {
			reps[l] = ic.committedRep
		}
		mEvalBatches.Observe(0)
		return
	}

	L := bs.lanes
	nOut := len(e.ref.Outputs)
	for len(bs.accs) < L {
		bs.accs = append(bs.accs, reportAccum{})
	}
	if len(bs.clean) < groupLanes*L {
		bs.clean = make([]bool, groupLanes*L)
	}
	if len(bs.outs) < groupLanes*L*nOut {
		bs.outs = make([]uint64, groupLanes*L*nOut)
	}
	for l := 0; l < L; l++ {
		bs.accs[l].reset(&e.spec)
	}
	w := sc.packed
	cleanLanes := 0
	var decode time.Duration
	// Simulate groupLanes batches, gathering each dirty lane's outputs, then
	// decode them in one timed span; per lane, batches still fold in
	// ascending order.
	for b0 := 0; b0 < e.nBatches; b0 += groupLanes {
		nb := min(groupLanes, e.nBatches-b0)
		anyDirty := false
		for g := 0; g < nb; g++ {
			clean := bs.clean[g*L : g*L+L]
			if bs.runBatch(ic.base[b0+g], clean) {
				continue
			}
			anyDirty = true
			for l := 0; l < L; l++ {
				if clean[l] {
					continue
				}
				out := bs.outs[(g*L+l)*nOut:][:nOut]
				for i, src := range sc.outSrc {
					out[i] = w[int(src)*L+l]
				}
			}
		}
		var dstart time.Time
		if anyDirty {
			dstart = time.Now()
		}
		for g := 0; g < nb; g++ {
			b := b0 + g
			mask := ^uint64(0)
			if b == e.nBatches-1 {
				mask = e.lastMask
			}
			for l := 0; l < L; l++ {
				if bs.clean[g*L+l] {
					bs.accs[l].fold(&ic.stats[b])
					cleanLanes++
					continue
				}
				out := bs.outs[(g*L+l)*nOut:][:nOut]
				computeBatchStats(&e.spec, out, e.refOut[b], e.refVals[b], mask, &bs.stats)
				bs.accs[l].fold(&bs.stats)
			}
		}
		if anyDirty {
			decode += time.Since(dstart)
		}
	}
	for l := 0; l < L; l++ {
		reps[l] = bs.accs[l].report(e.samples, e.exhaustive)
	}
	mSimSeconds.Add(time.Since(compiled).Seconds())
	mDecodeSeconds.Add(decode.Seconds())
	mEvalBatchKind.With("clean").Add(float64(cleanLanes))
	mEvalBatchKind.With("cone").Add(float64(L*e.nBatches - cleanLanes))
	mEvalBatches.Observe(float64(e.nBatches))
}

// runBatch executes the fused program for one sample batch, recording in
// clean[l] whether lane l's block outputs match the committed cache. It
// returns true when every lane is clean (the cone, gather and metric loops
// can all be skipped).
func (bs *batchScratch) runBatch(base []uint64, clean []bool) (allClean bool) {
	sc := &bs.sc
	L := bs.lanes
	w := sc.packed

	// Stage segment-1 reads: broadcast each committed word across the lanes
	// of its shadow row.
	for _, n := range sc.implFrontier {
		row := w[int(n)*L : int(n)*L+L]
		v := base[n]
		for l := range row {
			row[l] = v
		}
	}
	for l := 0; l < L; l++ {
		execOpsLane(bs.laneOps[l], w, L, l)
	}
	allClean = true
	nDirty := 0
	for l := 0; l < L; l++ {
		c := true
		for j, s := range sc.outSlots {
			if w[int(s)*L+l] != base[sc.blockOuts[j]] {
				c = false
				break
			}
		}
		clean[l] = c
		if !c {
			allClean = false
			nDirty++
		}
	}
	if allClean {
		return true
	}

	// When only a small minority of lanes went dirty, the packed cone would
	// spend most of its word work recomputing clean lanes' committed values.
	// Run the cone lane-locally for just the dirty lanes instead — exactly the
	// scalar program per lane, over the packed store — staging only those
	// lanes' words. Both modes produce identical lane values (the packed cone
	// recomputes clean regions to exactly their cached words), so the
	// threshold is pure scheduling.
	if nDirty*2 < L {
		for l := 0; l < L; l++ {
			if clean[l] {
				continue
			}
			bs.runConeLane(base, l)
		}
		return false
	}

	// Move staged block outputs into their shadow rows and stage the cone's
	// committed reads, then run the shared cone packed across all lanes.
	for j, s := range sc.outSlots {
		copy(w[int(sc.blockOuts[j])*L:int(sc.blockOuts[j])*L+L], w[int(s)*L:int(s)*L+L])
	}
	for _, n := range sc.coneFrontier {
		row := w[int(n)*L : int(n)*L+L]
		v := base[n]
		for l := range row {
			row[l] = v
		}
	}
	for ui := range sc.cone {
		u := &sc.cone[ui]
		if len(u.checkIns) > 0 {
			hit := false
			for _, in := range u.checkIns {
				row := w[int(in)*L : int(in)*L+L]
				v := base[in]
				for l := range row {
					if row[l] != v {
						hit = true
						break
					}
				}
				if hit {
					break
				}
			}
			if !hit {
				// No lane's wave reached this committed region: its outputs
				// keep their cached values in every lane.
				for _, o := range u.outNodes {
					row := w[int(o)*L : int(o)*L+L]
					v := base[o]
					for l := range row {
						row[l] = v
					}
				}
				continue
			}
		}
		if L == 8 {
			execOpsPacked8(u.ops, w)
		} else {
			execOpsPacked(u.ops, w, L)
		}
	}
	return false
}

// runConeLane executes the shared cone for a single dirty lane, with scalar
// semantics: stage that lane's committed reads, skip committed regions whose
// boundary inputs this lane left untouched, and run every live unit's ops
// through the lane-strided interpreter.
func (bs *batchScratch) runConeLane(base []uint64, l int) {
	sc := &bs.sc
	L := bs.lanes
	w := sc.packed
	for j, s := range sc.outSlots {
		w[int(sc.blockOuts[j])*L+l] = w[int(s)*L+l]
	}
	for _, n := range sc.coneFrontier {
		w[int(n)*L+l] = base[n]
	}
	for ui := range sc.cone {
		u := &sc.cone[ui]
		if len(u.checkIns) > 0 {
			hit := false
			for _, in := range u.checkIns {
				if w[int(in)*L+l] != base[in] {
					hit = true
					break
				}
			}
			if !hit {
				for _, o := range u.outNodes {
					w[int(o)*L+l] = base[o]
				}
				continue
			}
		}
		execOpsLane(u.ops, w, L, l)
	}
}

// execOpsLane runs one lane's private segment over the packed store, touching
// only that lane's word in each slot row.
func execOpsLane(ops []progOp, w []uint64, lanes, lane int) {
	for i := range ops {
		op := &ops[i]
		a := w[int(op.a)*lanes+lane]
		var v uint64
		switch op.op {
		case logic.Buf:
			v = a
		case logic.Not:
			v = ^a
		case logic.And:
			v = a & w[int(op.b)*lanes+lane]
		case logic.Or:
			v = a | w[int(op.b)*lanes+lane]
		case logic.Xor:
			v = a ^ w[int(op.b)*lanes+lane]
		case logic.Nand:
			v = ^(a & w[int(op.b)*lanes+lane])
		case logic.Nor:
			v = ^(a | w[int(op.b)*lanes+lane])
		case logic.Xnor:
			v = ^(a ^ w[int(op.b)*lanes+lane])
		case logic.Mux:
			v = (a & w[int(op.c)*lanes+lane]) | (^a & w[int(op.b)*lanes+lane])
		default:
			v = op.op.Eval(a, w[int(op.b)*lanes+lane], w[int(op.c)*lanes+lane])
		}
		w[int(op.dst)*lanes+lane] = v
	}
}

// execOpsPacked runs a shared segment across all lanes at once: one op
// dispatch per instruction, then a tight word loop over the adjacent lanes of
// each slot row.
func execOpsPacked(ops []progOp, w []uint64, lanes int) {
	for i := range ops {
		op := &ops[i]
		d := w[int(op.dst)*lanes : int(op.dst)*lanes+lanes]
		a := w[int(op.a)*lanes : int(op.a)*lanes+lanes]
		switch op.op {
		case logic.Buf:
			copy(d, a)
		case logic.Not:
			for l := range d {
				d[l] = ^a[l]
			}
		case logic.And:
			b := w[int(op.b)*lanes : int(op.b)*lanes+lanes]
			for l := range d {
				d[l] = a[l] & b[l]
			}
		case logic.Or:
			b := w[int(op.b)*lanes : int(op.b)*lanes+lanes]
			for l := range d {
				d[l] = a[l] | b[l]
			}
		case logic.Xor:
			b := w[int(op.b)*lanes : int(op.b)*lanes+lanes]
			for l := range d {
				d[l] = a[l] ^ b[l]
			}
		case logic.Nand:
			b := w[int(op.b)*lanes : int(op.b)*lanes+lanes]
			for l := range d {
				d[l] = ^(a[l] & b[l])
			}
		case logic.Nor:
			b := w[int(op.b)*lanes : int(op.b)*lanes+lanes]
			for l := range d {
				d[l] = ^(a[l] | b[l])
			}
		case logic.Xnor:
			b := w[int(op.b)*lanes : int(op.b)*lanes+lanes]
			for l := range d {
				d[l] = ^(a[l] ^ b[l])
			}
		case logic.Mux:
			b := w[int(op.b)*lanes : int(op.b)*lanes+lanes]
			c := w[int(op.c)*lanes : int(op.c)*lanes+lanes]
			for l := range d {
				d[l] = (a[l] & c[l]) | (^a[l] & b[l])
			}
		default:
			b := w[int(op.b)*lanes : int(op.b)*lanes+lanes]
			c := w[int(op.c)*lanes : int(op.c)*lanes+lanes]
			for l := range d {
				d[l] = op.op.Eval(a[l], b[l], c[l])
			}
		}
	}
}

// execOpsPacked8 is execOpsPacked specialized and unrolled for the default
// 8-lane width: fixed-size row slices eliminate the bounds checks and the
// loop overhead of the generic word loop.
func execOpsPacked8(ops []progOp, w []uint64) {
	for i := range ops {
		op := &ops[i]
		d := w[int(op.dst)*8:][:8:8]
		a := w[int(op.a)*8:][:8:8]
		switch op.op {
		case logic.Buf:
			copy(d, a)
		case logic.Not:
			d[0], d[1], d[2], d[3] = ^a[0], ^a[1], ^a[2], ^a[3]
			d[4], d[5], d[6], d[7] = ^a[4], ^a[5], ^a[6], ^a[7]
		case logic.And:
			b := w[int(op.b)*8:][:8:8]
			d[0], d[1], d[2], d[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
			d[4], d[5], d[6], d[7] = a[4]&b[4], a[5]&b[5], a[6]&b[6], a[7]&b[7]
		case logic.Or:
			b := w[int(op.b)*8:][:8:8]
			d[0], d[1], d[2], d[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
			d[4], d[5], d[6], d[7] = a[4]|b[4], a[5]|b[5], a[6]|b[6], a[7]|b[7]
		case logic.Xor:
			b := w[int(op.b)*8:][:8:8]
			d[0], d[1], d[2], d[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
			d[4], d[5], d[6], d[7] = a[4]^b[4], a[5]^b[5], a[6]^b[6], a[7]^b[7]
		case logic.Nand:
			b := w[int(op.b)*8:][:8:8]
			d[0], d[1], d[2], d[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
			d[4], d[5], d[6], d[7] = ^(a[4] & b[4]), ^(a[5] & b[5]), ^(a[6] & b[6]), ^(a[7] & b[7])
		case logic.Nor:
			b := w[int(op.b)*8:][:8:8]
			d[0], d[1], d[2], d[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
			d[4], d[5], d[6], d[7] = ^(a[4] | b[4]), ^(a[5] | b[5]), ^(a[6] | b[6]), ^(a[7] | b[7])
		case logic.Xnor:
			b := w[int(op.b)*8:][:8:8]
			d[0], d[1], d[2], d[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
			d[4], d[5], d[6], d[7] = ^(a[4] ^ b[4]), ^(a[5] ^ b[5]), ^(a[6] ^ b[6]), ^(a[7] ^ b[7])
		case logic.Mux:
			b := w[int(op.b)*8:][:8:8]
			c := w[int(op.c)*8:][:8:8]
			d[0] = (a[0] & c[0]) | (^a[0] & b[0])
			d[1] = (a[1] & c[1]) | (^a[1] & b[1])
			d[2] = (a[2] & c[2]) | (^a[2] & b[2])
			d[3] = (a[3] & c[3]) | (^a[3] & b[3])
			d[4] = (a[4] & c[4]) | (^a[4] & b[4])
			d[5] = (a[5] & c[5]) | (^a[5] & b[5])
			d[6] = (a[6] & c[6]) | (^a[6] & b[6])
			d[7] = (a[7] & c[7]) | (^a[7] & b[7])
		default:
			b := w[int(op.b)*8:][:8:8]
			c := w[int(op.c)*8:][:8:8]
			for l := range d {
				d[l] = op.op.Eval(a[l], b[l], c[l])
			}
		}
	}
}

// CompareCandidates evaluates a same-block candidate chunk on this shard's
// private scratch; see IncrementalComparer.CompareCandidates for semantics.
func (s *Shard) CompareCandidates(bi int, impls []*logic.Circuit, reps []Report) error {
	return s.ic.compareBatchWith(&s.bsc, bi, impls, reps)
}
