package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/runtime"
)

// The paper's §5 QAOA angles (γ ≈ π/8, β ≈ 3π/8), as cmd/maxcut uses them.
const (
	paperGamma = 0.3926990817
	paperBeta  = 1.1780972451
)

// isingReads is the anneal path's num_reads. At 400 reads a job takes
// 40–80 ms on a 2-vCPU Xeon, so every job is seen done at the
// dispatcher's second 100 ms status poll however loaded the host is; at
// 1000 reads it took 90–185 ms and landed on the second or the third
// poll with the host's load, which swung latency_p50_ms between about
// 105 and 205 ms from run to run.
const isingReads = 400

// qftShards is the statevector shard count qft20-node's POSTs pin. The
// pool would grant an idle job every core, and then each of the 65
// kernel passes ends at a barrier that waits for the slowest shard: one
// busy thread elsewhere on a 2-vCPU host made latency_p50_ms 53% worse
// (68 to 104 ms) at 2 shards and 3.5% worse (101 to 104 ms) at 1 shard,
// which leaves the other core to the serving layers.
const qftShards = 1

// workload is one closed-loop traffic shape: which system it drives,
// how many clients, and how op i's input is derived from the seed.
type workload struct {
	name    string
	why     string
	system  string // "node" or "fleet"
	path    string // "gate", "anneal" or "sweep": the layers its ops reach
	clients int
	// refs is how many leading ops are checked bit-for-bit against
	// in-process runtime references computed in set-up.
	refs int
	// rssOps is the op count at which peak RSS is read: the pool keeps
	// every finished job's result, so RSS grows with ops done, and a
	// fixed count keeps a faster commit from being charged for the ops
	// it fits into the same seconds. About 40% of the ops a 20 s run
	// checks on a 2-vCPU Xeon.
	rssOps int
	// workingSet is the bytes one execution touches (computed): the two
	// statevector planes on the gate path, the spin array on the anneal
	// path.
	workingSet int64
	make       func(seed uint64, i int) (*opInput, error)
}

// opInput is one op's submission and what a correct answer looks like.
type opInput struct {
	index     int
	base      int // index of the op whose input this one repeats (== index when fresh)
	bundle    *bundle.Bundle
	body      []byte
	shots     int
	points    int  // sweep grid size (0 for plain jobs)
	shards    int  // statevector shards the POST pins (0: the pool's grant)
	maxcut    bool // top outcome must be an optimal cut of Cycle(4)
	minEnergy *float64
}

var workloads = []*workload{
	{
		name: "maxcut-qaoa", system: "fleet", path: "gate", clients: 2, refs: 32, rssOps: 200, workingSet: 2 * 16 * 8,
		why:  "paper §5 gate path: ~1 ms of engine work, so bundle, schemas, jobs, store and fleet do nearly all the work; 25% repeats hit the result cache",
		make: maxcutQAOAOp,
	},
	{
		name: "maxcut-ising", system: "fleet", path: "anneal", clients: 1, refs: 4, rssOps: 80, workingSet: isingReads * 4 * 8,
		why:  "paper §5 anneal path: ~45 ms of anneal per job spread over every core, then the dispatcher's second poll; the portability twin of maxcut-qaoa",
		make: maxcutIsingOp,
	},
	{
		name: "qaoa-sweep", system: "fleet", path: "sweep", clients: 1, refs: 3, rssOps: 32, workingSet: 2 * 1024 * 8,
		why:  "variational outer loop: one 16-point p=2 sweep per op, scattered over the fleet; compile once, Bind per point on an L2-resident state",
		make: qaoaSweepOp,
	},
	{
		name: "qft20-node", system: "node", path: "gate", clients: 1, refs: 2, rssOps: 50, workingSet: 2 * (1 << 20) * 8,
		why:  "20-qubit QFT on one worker at 1 shard: 65 full-state passes over 2x8 MiB planes; sim does the work and fleet and anneal are bypassed",
		make: qft20Op,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mix is splitmix64 over the seed and a stream of integers: every input
// property of every op derives from it, so a seed fixes all inputs.
func mix(seed uint64, xs ...uint64) uint64 {
	z := seed
	for _, x := range xs {
		z += 0x9e3779b97f4a7c15 ^ x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// execSeed is an op's engine seed, kept below 2^31 so it survives any
// float64 round trip in schema validation.
func execSeed(seed uint64, i int, stream uint64) uint64 {
	return mix(seed, stream, uint64(i)) & 0x7fffffff
}

func newOp(i int, b *bundle.Bundle, shots int) (*opInput, error) {
	body, err := b.Marshal()
	if err != nil {
		return nil, err
	}
	return &opInput{index: i, base: i, bundle: b, body: body, shots: shots}, nil
}

// gateMaxCut is the paper's §5 gate bundle: p=1 QAOA on Cycle(4), the
// ring target {sx,rz,cx} and optimization_level 2.
func gateMaxCut(seed uint64, shots int) (*bundle.Bundle, error) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{paperGamma}, []float64{paperBeta})
	if err != nil {
		return nil, err
	}
	ctx := ctxdesc.NewGate("gate.aer_simulator", shots, seed)
	ctx.Exec.Target = &ctxdesc.Target{
		BasisGates:  []string{"sx", "rz", "cx"},
		CouplingMap: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	ctx.Exec.Options = map[string]any{"optimization_level": 2}
	return bundle.New([]*qdt.DataType{reg}, seq, ctx)
}

// isingMaxCut is the same typed problem in the Ising formulation.
func isingMaxCut(g *graph.Graph, reads int, seed uint64) (*bundle.Bundle, error) {
	reg := qdt.NewIsingVars("ising_vars", "s", g.N)
	op, err := algolib.NewIsingProblem(reg, ising.FromMaxCut(g))
	if err != nil {
		return nil, err
	}
	return bundle.New([]*qdt.DataType{reg}, qop.Sequence{op}, ctxdesc.NewAnneal("anneal.neal", reads, seed))
}

func maxcutQAOAOp(seed uint64, i int) (*opInput, error) {
	// A seeded quarter of the ops (after the first) repeat an earlier
	// op's exact submission: the worker serves those from its cache.
	if i > 0 && mix(seed, 1, uint64(i))%4 == 0 {
		j := int(mix(seed, 2, uint64(i)) % uint64(i))
		in, err := maxcutQAOAOp(seed, j)
		if err != nil {
			return nil, err
		}
		cp := *in
		cp.index = i
		return &cp, nil
	}
	b, err := gateMaxCut(execSeed(seed, i, 3), 4096)
	if err != nil {
		return nil, err
	}
	in, err := newOp(i, b, 4096)
	if err != nil {
		return nil, err
	}
	in.maxcut = true
	return in, nil
}

func maxcutIsingOp(seed uint64, i int) (*opInput, error) {
	b, err := isingMaxCut(graph.Cycle(4), isingReads, execSeed(seed, i, 4))
	if err != nil {
		return nil, err
	}
	in, err := newOp(i, b, isingReads)
	if err != nil {
		return nil, err
	}
	in.maxcut = true
	e := -4.0
	in.minEnergy = &e
	return in, nil
}

// sweepGrid is the 16-point (γ, β) grid; layer l of the p=2 ansatz runs
// at a linear ramp of the point's angles, so no angle is ever 0.
func sweepGrid() [][]float64 {
	var pts [][]float64
	for _, gamma := range []float64{0.15, 0.3, 0.45, 0.6} {
		for _, beta := range []float64{0.2, 0.4, 0.6, 0.8} {
			pts = append(pts, []float64{gamma / 2, gamma, beta, beta / 2})
		}
	}
	return pts
}

// sweepGraph draws the op's Erdős–Rényi(10, 0.3) graph, redrawing the
// rare edgeless one so every op has a cost layer.
func sweepGraph(seed uint64, i int) *graph.Graph {
	for k := uint64(0); ; k++ {
		g := graph.ErdosRenyi(10, 0.3, mix(seed, 5, uint64(i), k))
		if g.TotalWeight() > 0 {
			return g
		}
	}
}

func sweepBundle(g *graph.Graph, shots int, seed uint64) (*bundle.Bundle, error) {
	reg := qdt.NewIsingVars("ising_vars", "s", g.N)
	seq, err := algolib.BuildQAOASymbolic(reg, g, []string{"g0", "g1"}, []string{"b0", "b1"})
	if err != nil {
		return nil, err
	}
	ctx := ctxdesc.NewGate("gate.aer_simulator", shots, seed)
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"g0", "g1", "b0", "b1"}, Points: sweepGrid()}
	return bundle.New([]*qdt.DataType{reg}, seq, ctx)
}

func qaoaSweepOp(seed uint64, i int) (*opInput, error) {
	g := sweepGraph(seed, i)
	b, err := sweepBundle(g, 1024, execSeed(seed, i, 6))
	if err != nil {
		return nil, err
	}
	in, err := newOp(i, b, 1024)
	if err != nil {
		return nil, err
	}
	in.points = len(b.Context.Sweep.Points)
	return in, nil
}

// qftBundle is Listing 1's QFT on an n-qubit phase register.
func qftBundle(n, shots int, seed uint64) (*bundle.Bundle, error) {
	reg := qdt.NewPhaseRegister("reg_phase", "phase", n)
	qft, err := algolib.NewQFT(reg, 0, true, false)
	if err != nil {
		return nil, err
	}
	return bundle.New([]*qdt.DataType{reg}, qop.Sequence{qft, algolib.NewMeasurement(reg)}, ctxdesc.NewGate("gate.aer_simulator", shots, seed))
}

func qft20Op(seed uint64, i int) (*opInput, error) {
	b, err := qftBundle(20, 4096, execSeed(seed, i, 7))
	if err != nil {
		return nil, err
	}
	in, err := newOp(i, b, 4096)
	if err != nil {
		return nil, err
	}
	in.shards = qftShards
	return in, nil
}

// entry and point are the wire shapes of a result the benchmark checks:
// a plain job is one point with index 0.
type entry struct {
	Bitstring string   `json:"bitstring"`
	Index     uint64   `json:"index"`
	Count     int      `json:"count"`
	Energy    *float64 `json:"energy,omitempty"`
}

type point struct {
	Index   int     `json:"index"`
	Samples int     `json:"samples"`
	Entries []entry `json:"entries"`
}

func fromResult(i int, res *result.Result) point {
	p := point{Index: i, Samples: res.Samples, Entries: make([]entry, len(res.Entries))}
	for k, e := range res.Entries {
		p.Entries[k] = entry{Bitstring: e.Bitstring, Index: e.Index, Count: e.Count}
		if e.HasEnergy {
			energy := e.Energy
			p.Entries[k].Energy = &energy
		}
	}
	return p
}

// digest is a content hash of an outcome, independent of entry order:
// two outcomes with equal digests are bit-identical in every index,
// count and energy.
func digest(pts []point) string {
	h := sha256.New()
	for _, p := range pts {
		es := append([]entry(nil), p.Entries...)
		sort.Slice(es, func(a, b int) bool { return es[a].Index < es[b].Index })
		raw, _ := json.Marshal(point{Index: p.Index, Samples: p.Samples, Entries: es})
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference computes an op's outcome in-process through the runtime
// entry points the worker pool calls.
func reference(in *opInput) ([]point, error) {
	b := in.bundle
	if in.points == 0 {
		res, err := runtime.Submit(b, runtime.Options{Shards: in.shards})
		if err != nil {
			return nil, err
		}
		return []point{fromResult(0, res)}, nil
	}
	pts := b.Context.Sweep.Points
	concrete := make([]*bundle.Bundle, len(pts))
	indices := make([]int, len(pts))
	for k, pt := range pts {
		cb, err := b.BindPoint(pt)
		if err != nil {
			return nil, err
		}
		concrete[k], indices[k] = cb, k
	}
	out := make([]point, len(pts))
	err := runtime.SubmitSweep(b, concrete, indices, runtime.Options{}, func(k int, res *result.Result) error {
		out[k] = fromResult(k, res)
		return nil
	})
	return out, err
}

// check validates a served outcome against the op's invariants: every
// point present and in order, counts summing to the shots, the optimal
// Max-Cut on top, and the anneal path's ground energy.
func check(in *opInput, pts []point) error {
	want := 1
	if in.points > 0 {
		want = in.points
	}
	if len(pts) != want {
		return fmt.Errorf("op %d: %d points, want %d", in.index, len(pts), want)
	}
	for k, p := range pts {
		if in.points > 0 && p.Index != k {
			return fmt.Errorf("op %d: point %d carries index %d", in.index, k, p.Index)
		}
		total := 0
		top := -1
		for e, ent := range p.Entries {
			total += ent.Count
			if top < 0 || ent.Count > p.Entries[top].Count {
				top = e
			}
		}
		if total != in.shots || p.Samples != in.shots {
			return fmt.Errorf("op %d point %d: counts sum to %d (samples %d), want %d", in.index, k, total, p.Samples, in.shots)
		}
		if in.maxcut && (top < 0 || (p.Entries[top].Bitstring != "0101" && p.Entries[top].Bitstring != "1010")) {
			return fmt.Errorf("op %d: top outcome is not an optimal cut", in.index)
		}
		if in.minEnergy != nil {
			best := 0.0
			for e, ent := range p.Entries {
				if ent.Energy == nil {
					return fmt.Errorf("op %d: anneal entry without energy", in.index)
				}
				if e == 0 || *ent.Energy < best {
					best = *ent.Energy
				}
			}
			if best != *in.minEnergy {
				return fmt.Errorf("op %d: best energy %v, want %v", in.index, best, *in.minEnergy)
			}
		}
	}
	return nil
}
