package qor

import (
	"slices"
	"testing"

	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
)

// ripple builds a small ripple-carry adder and its k×m decomposition.
func ripple(t *testing.T, bits int) (*logic.Circuit, OutputSpec, []partition.Block) {
	t.Helper()
	b := logic.NewBuilder("add")
	x := make([]logic.NodeID, bits)
	y := make([]logic.NodeID, bits)
	for i := range x {
		x[i] = b.Input("x")
	}
	for i := range y {
		y[i] = b.Input("y")
	}
	carry := b.C.ConstNode(false)
	for i := 0; i < bits; i++ {
		axb := b.Gate(logic.Xor, x[i], y[i])
		b.Output("s", b.Gate(logic.Xor, axb, carry))
		carry = b.Gate(logic.Or, b.Gate(logic.And, x[i], y[i]), b.Gate(logic.And, axb, carry))
	}
	b.Output("s", carry)
	prepared := logic.ReorderDFS(b.C)
	blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 5, MaxOutputs: 3})
	if err != nil {
		t.Fatal(err)
	}
	return prepared, Unsigned("s", bits+1), blocks
}

// constImpl builds a block implementation driving every output with a
// constant — maximally wrong, so substitution effects are visible at the
// primary outputs.
func constImpl(nIn, nOut int, v bool) *logic.Circuit {
	c := logic.New("const")
	for i := 0; i < nIn; i++ {
		c.AddInput("i")
	}
	for i := 0; i < nOut; i++ {
		c.AddOutput("o", c.ConstNode(v))
	}
	return c
}

// TestIncrementalMatchesFullOnSubstitution substitutes a degraded block via
// the incremental comparer and via an explicit ReplaceBlocks rebuild, and
// requires bit-identical reports — including after a commit, and for a
// candidate stacked on a committed substitution.
func TestIncrementalMatchesFullOnSubstitution(t *testing.T) {
	prepared, spec, blocks := ripple(t, 8)
	if len(blocks) < 2 {
		t.Fatalf("want >= 2 blocks, got %d", len(blocks))
	}
	ic, err := NewIncrementalComparer(prepared, spec, blocks, 1<<9, 7)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(prepared, spec, 1<<9, 7)
	if err != nil {
		t.Fatal(err)
	}
	full := func(impls map[int]*logic.Circuit) Report {
		t.Helper()
		circ, err := logic.ReplaceBlocks(prepared, partition.Substitutions(blocks, impls))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eval.Compare(circ)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Accurate baseline: everything must be error-free.
	if rep := ic.CommittedReport(); rep.ErrRate != 0 || rep.MeanHam != 0 {
		t.Fatalf("accurate committed report has error: %+v", rep)
	}

	impl0 := constImpl(len(blocks[0].Inputs), len(blocks[0].Outputs), false)
	fast, err := ic.CompareCandidate(0, impl0)
	if err != nil {
		t.Fatal(err)
	}
	if slow := full(map[int]*logic.Circuit{0: impl0}); fast != slow {
		t.Fatalf("candidate: incremental %+v != full %+v", fast, slow)
	}
	if fast.ErrRate == 0 {
		t.Fatal("constant block should cause errors")
	}

	// Commit block 0, then stack a candidate on block 1.
	committed, err := ic.Commit(0, impl0)
	if err != nil {
		t.Fatal(err)
	}
	if committed != fast {
		t.Fatalf("commit report %+v != candidate report %+v", committed, fast)
	}
	bi := len(blocks) - 1
	impl1 := constImpl(len(blocks[bi].Inputs), len(blocks[bi].Outputs), true)
	fast, err = ic.CompareCandidate(bi, impl1)
	if err != nil {
		t.Fatal(err)
	}
	if slow := full(map[int]*logic.Circuit{0: impl0, bi: impl1}); fast != slow {
		t.Fatalf("stacked candidate: incremental %+v != full %+v", fast, slow)
	}
}

func TestIncrementalValidation(t *testing.T) {
	prepared, spec, blocks := ripple(t, 4)
	ic, err := NewIncrementalComparer(prepared, spec, blocks, 1<<8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ic.CompareCandidate(-1, constImpl(1, 1, false)); err == nil {
		t.Error("negative block index accepted")
	}
	if _, err := ic.CompareCandidate(len(blocks), constImpl(1, 1, false)); err == nil {
		t.Error("out-of-range block index accepted")
	}
	if _, err := ic.CompareCandidate(0, nil); err == nil {
		t.Error("nil implementation accepted")
	}
	wrong := constImpl(len(blocks[0].Inputs)+1, len(blocks[0].Outputs), false)
	if _, err := ic.CompareCandidate(0, wrong); err == nil {
		t.Error("I/O mismatch accepted")
	}
	if _, err := ic.Commit(0, wrong); err == nil {
		t.Error("Commit with I/O mismatch accepted")
	}
}

// TestIncrementalConcurrentCandidates exercises the scratch pool under
// concurrent CompareCandidate calls (run with -race).
func TestIncrementalConcurrentCandidates(t *testing.T) {
	prepared, spec, blocks := ripple(t, 8)
	ic, err := NewIncrementalComparer(prepared, spec, blocks, 1<<9, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Report, len(blocks))
	impls := make([]*logic.Circuit, len(blocks))
	for bi := range blocks {
		impls[bi] = constImpl(len(blocks[bi].Inputs), len(blocks[bi].Outputs), bi%2 == 0)
		if want[bi], err = ic.CompareCandidate(bi, impls[bi]); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	errc := make(chan error, rounds*len(blocks))
	for r := 0; r < rounds; r++ {
		for bi := range blocks {
			go func(bi int) {
				rep, err := ic.CompareCandidate(bi, impls[bi])
				if err == nil && rep != want[bi] {
					t.Errorf("block %d: concurrent report diverged", bi)
				}
				errc <- err
			}(bi)
		}
	}
	for i := 0; i < rounds*len(blocks); i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// groupCircuit builds a three-block circuit for the group runner's lane
// cases. Sampled exhaustively over its ten inputs (1024 samples, two groups
// of eight batches), inputs a0..a5 vary within a batch while h0..h3 hold
// bits 0..3 of the batch index, so a candidate gated on the h inputs is
// dirty on a chosen set of batches. Block 0 computes a0&a1 and also reads
// h0..h3; block 1 (a2 ^ block 0) and block 2 (a3 | block 1) sit downstream.
// The primary outputs are block 2's and block 1's outputs.
func groupCircuit() (*logic.Circuit, OutputSpec, []partition.Block) {
	c := logic.New("groups")
	x := make([]logic.NodeID, 10)
	for i := range x {
		x[i] = c.AddInput("x")
	}
	a, h := x[:6], x[6:]
	g0 := c.AddGate(logic.And, a[0], a[1])
	g1 := c.AddGate(logic.Xor, a[2], g0)
	g2 := c.AddGate(logic.Or, a[3], g1)
	c.AddOutput("z", g2)
	c.AddOutput("z", g1)
	blocks := []partition.Block{
		{Gates: []logic.NodeID{g0}, Inputs: []logic.NodeID{a[0], a[1], h[0], h[1], h[2], h[3]}, Outputs: []logic.NodeID{g0}},
		{Gates: []logic.NodeID{g1}, Inputs: []logic.NodeID{a[2], g0}, Outputs: []logic.NodeID{g1}},
		{Gates: []logic.NodeID{g2}, Inputs: []logic.NodeID{a[3], g1}, Outputs: []logic.NodeID{g2}},
	}
	return c, Unsigned("z", 2), blocks
}

// gatedImpl is block 0 of groupCircuit with its output flipped wherever
// cond(h0..h3) holds.
func gatedImpl(cond func(c *logic.Circuit, h []logic.NodeID) logic.NodeID) *logic.Circuit {
	c := logic.New("gated")
	in := make([]logic.NodeID, 6)
	for i := range in {
		in[i] = c.AddInput("i")
	}
	c.AddOutput("o", c.AddGate(logic.Xor, c.AddGate(logic.And, in[0], in[1]), cond(c, in[2:])))
	return c
}

// TestGroupRunnerLanes pins the group runner's lane cases on groupCircuit:
// a group with mixed clean and dirty lanes, an all-clean group beside a
// dirty one, a committed region that only one lane's wave reaches, and a
// Commit chain whose dirty batches span both groups. Every report must equal
// the rebuilt circuit's through Evaluator.Compare.
func TestGroupRunnerLanes(t *testing.T) {
	const samples = 1 << 10
	c, spec, blocks := groupCircuit()
	ic, err := NewIncrementalComparer(c, spec, blocks, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(c, spec, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eval.exhaustive || eval.nBatches != 2*groupLanes {
		t.Fatalf("want exhaustive sampling over %d batches, got exhaustive=%v batches=%d",
			2*groupLanes, eval.exhaustive, eval.nBatches)
	}
	committed := map[int]*logic.Circuit{}
	full := func(bi int, impl *logic.Circuit) Report {
		t.Helper()
		impls := map[int]*logic.Circuit{}
		for cb, ci := range committed {
			impls[cb] = ci
		}
		if impl != nil {
			impls[bi] = impl
		}
		circ, err := logic.ReplaceBlocks(c, partition.Substitutions(blocks, impls))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eval.Compare(circ)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// dirtyMasks runs a candidate's program group by group and returns the
	// per-group dirty-lane sets.
	dirtyMasks := func(bi int, impl *logic.Circuit) []uint8 {
		sc := ic.getScratch()
		defer ic.putScratch(sc)
		ic.compile(bi, impl, sc)
		var masks []uint8
		for b0 := 0; b0 < len(ic.base); b0 += groupLanes {
			masks = append(masks, sc.runGroup(ic.base[b0:min(b0+groupLanes, len(ic.base))]))
		}
		return masks
	}
	check := func(label string, bi int, impl *logic.Circuit, wantMasks []uint8) {
		t.Helper()
		if got := dirtyMasks(bi, impl); !slices.Equal(got, wantMasks) {
			t.Fatalf("%s: dirty lanes per group %08b, want %08b", label, got, wantMasks)
		}
		want := full(bi, impl)
		got, err := ic.CompareCandidate(bi, impl)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: CompareCandidate %+v\nwant %+v", label, got, want)
		}
		batch := make([]Report, 1)
		if err := ic.CompareCandidates(bi, []*logic.Circuit{impl}, batch); err != nil {
			t.Fatal(err)
		}
		if batch[0] != want {
			t.Fatalf("%s: CompareCandidates %+v\nwant %+v", label, batch[0], want)
		}
	}
	commit := func(label string, bi int, impl *logic.Circuit) {
		t.Helper()
		want := full(bi, impl)
		rep, err := ic.Commit(bi, impl)
		if err != nil {
			t.Fatal(err)
		}
		committed[bi] = impl
		if rep != want || ic.CommittedReport() != want {
			t.Fatalf("%s: Commit %+v\nwant %+v", label, rep, want)
		}
	}

	odd := gatedImpl(func(c *logic.Circuit, h []logic.NodeID) logic.NodeID { return h[0] })
	upper := gatedImpl(func(c *logic.Circuit, h []logic.NodeID) logic.NodeID { return h[3] })
	lane7 := gatedImpl(func(c *logic.Circuit, h []logic.NodeID) logic.NodeID {
		return c.AddGate(logic.And, c.AddGate(logic.And, h[0], h[1]), h[2])
	})

	// Commit block 1 so candidates of block 0 reach a committed region whose
	// unit the runner skips unless some lane's wave hits its boundary input.
	b1 := logic.New("or")
	b1.AddOutput("o", b1.AddGate(logic.Or, b1.AddInput("i"), b1.AddInput("i")))
	commit("commit block 1", 1, b1)

	check("odd batches (mixed clean and dirty lanes)", 0, odd, []uint8{0xaa, 0xaa})
	check("batches 8..15 (all-clean group)", 0, upper, []uint8{0x00, 0xff})
	check("batches 7 and 15 (one lane reaches block 1)", 0, lane7, []uint8{0x80, 0x80})

	// A Commit chain on block 0: odd batches first, then lane7, which differs
	// from odd on batches 1, 3, 5, 9, 11 and 13 — both groups.
	commit("commit odd", 0, odd)
	check("lane7 over odd", 0, lane7, []uint8{0x2a, 0x2a})
	commit("commit lane7 over odd", 0, lane7)
	check("upper over lane7", 0, upper, []uint8{0x80, 0x7f})
	check("block 2 constant", 2, constImpl(2, 1, true), []uint8{0xff, 0xff})
}
