// Package trace synthesizes the memory behaviour of the paper's five
// benchmark suites (SPEC CPU2006, SPEC CPU2017, TPC, MediaBench, YCSB;
// §7.1) as parameterized generators, plus the adversarial access
// patterns of Fig. 13. The performance evaluation depends on memory
// intensity, row-buffer locality, footprint, and skew — the knobs each
// workload sets — not on instruction semantics.
package trace

import (
	"slices"
	"sync"

	"svard/internal/rng"
)

// Workload parameterizes one named benchmark's memory behaviour.
type Workload struct {
	Name      string
	Suite     string
	GapMean   float64 // mean non-memory instructions between accesses
	Footprint uint64  // bytes touched
	SeqProb   float64 // probability the next access is the sequential block
	ZipfS     float64 // >0: zipfian reuse over hot blocks
	HotBlocks int     // zipf support size
	WriteFrac float64
}

// Catalog returns the workload pool the 120 mixes draw from:
// memory-intensive members of each suite with parameters reflecting
// their published memory characters (streaming for lbm/MediaBench,
// pointer-chasing for mcf/omnetpp, zipfian reuse for YCSB, scan/join
// mixes for TPC). The caller owns the returned slice.
func Catalog() []Workload { return slices.Clone(catalog) }

// catalog is the pool itself, built once: ByName runs per core per
// simulated cell, and a catalog rebuilt per lookup was three quarters of
// the bytes a pooled cell allocates.
var catalog = buildCatalog()

func buildCatalog() []Workload {
	MB := uint64(1 << 20)
	return []Workload{
		// SPEC CPU2006.
		{Name: "mcf06", Suite: "SPEC06", GapMean: 4, Footprint: 256 * MB, SeqProb: 0.10, WriteFrac: 0.25},
		{Name: "lbm06", Suite: "SPEC06", GapMean: 6, Footprint: 192 * MB, SeqProb: 0.85, WriteFrac: 0.45},
		{Name: "milc06", Suite: "SPEC06", GapMean: 8, Footprint: 160 * MB, SeqProb: 0.55, WriteFrac: 0.30},
		{Name: "soplex06", Suite: "SPEC06", GapMean: 7, Footprint: 128 * MB, SeqProb: 0.40, WriteFrac: 0.20},
		{Name: "libquantum06", Suite: "SPEC06", GapMean: 5, Footprint: 96 * MB, SeqProb: 0.90, WriteFrac: 0.15},
		{Name: "omnetpp06", Suite: "SPEC06", GapMean: 9, Footprint: 144 * MB, SeqProb: 0.15, WriteFrac: 0.30},
		{Name: "gems06", Suite: "SPEC06", GapMean: 6, Footprint: 224 * MB, SeqProb: 0.60, WriteFrac: 0.35},
		// SPEC CPU2017.
		{Name: "mcf17", Suite: "SPEC17", GapMean: 5, Footprint: 320 * MB, SeqProb: 0.12, WriteFrac: 0.25},
		{Name: "lbm17", Suite: "SPEC17", GapMean: 6, Footprint: 256 * MB, SeqProb: 0.85, WriteFrac: 0.45},
		{Name: "cam417", Suite: "SPEC17", GapMean: 10, Footprint: 192 * MB, SeqProb: 0.65, WriteFrac: 0.30},
		{Name: "fotonik17", Suite: "SPEC17", GapMean: 7, Footprint: 256 * MB, SeqProb: 0.75, WriteFrac: 0.35},
		{Name: "roms17", Suite: "SPEC17", GapMean: 8, Footprint: 160 * MB, SeqProb: 0.70, WriteFrac: 0.30},
		{Name: "xz17", Suite: "SPEC17", GapMean: 12, Footprint: 128 * MB, SeqProb: 0.35, WriteFrac: 0.25},
		// TPC (OLTP/OLAP).
		{Name: "tpcc", Suite: "TPC", GapMean: 6, Footprint: 384 * MB, SeqProb: 0.08, ZipfS: 0.9, HotBlocks: 1 << 16, WriteFrac: 0.35},
		{Name: "tpch-q1", Suite: "TPC", GapMean: 7, Footprint: 512 * MB, SeqProb: 0.80, WriteFrac: 0.10},
		{Name: "tpch-q6", Suite: "TPC", GapMean: 6, Footprint: 448 * MB, SeqProb: 0.75, WriteFrac: 0.10},
		{Name: "tpce", Suite: "TPC", GapMean: 8, Footprint: 320 * MB, SeqProb: 0.10, ZipfS: 0.8, HotBlocks: 1 << 15, WriteFrac: 0.30},
		// MediaBench (streaming kernels).
		{Name: "h264dec", Suite: "Media", GapMean: 9, Footprint: 64 * MB, SeqProb: 0.80, WriteFrac: 0.30},
		{Name: "h264enc", Suite: "Media", GapMean: 8, Footprint: 96 * MB, SeqProb: 0.70, WriteFrac: 0.40},
		{Name: "jpeg2000", Suite: "Media", GapMean: 7, Footprint: 48 * MB, SeqProb: 0.85, WriteFrac: 0.35},
		{Name: "mpeg4", Suite: "Media", GapMean: 9, Footprint: 80 * MB, SeqProb: 0.75, WriteFrac: 0.30},
		// YCSB (key-value serving).
		{Name: "ycsb-a", Suite: "YCSB", GapMean: 5, Footprint: 512 * MB, SeqProb: 0.05, ZipfS: 0.99, HotBlocks: 1 << 17, WriteFrac: 0.50},
		{Name: "ycsb-b", Suite: "YCSB", GapMean: 5, Footprint: 512 * MB, SeqProb: 0.05, ZipfS: 0.99, HotBlocks: 1 << 17, WriteFrac: 0.05},
		{Name: "ycsb-c", Suite: "YCSB", GapMean: 6, Footprint: 512 * MB, SeqProb: 0.05, ZipfS: 0.99, HotBlocks: 1 << 17, WriteFrac: 0.0},
		{Name: "ycsb-d", Suite: "YCSB", GapMean: 6, Footprint: 384 * MB, SeqProb: 0.10, ZipfS: 0.8, HotBlocks: 1 << 16, WriteFrac: 0.05},
		{Name: "ycsb-e", Suite: "YCSB", GapMean: 7, Footprint: 448 * MB, SeqProb: 0.50, ZipfS: 0.7, HotBlocks: 1 << 16, WriteFrac: 0.05},
		{Name: "ycsb-f", Suite: "YCSB", GapMean: 5, Footprint: 512 * MB, SeqProb: 0.05, ZipfS: 0.9, HotBlocks: 1 << 16, WriteFrac: 0.25},
	}
}

// ByName returns the catalog workload with the given name.
func ByName(name string) (Workload, bool) {
	for _, w := range catalog {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Mixes draws n 8-core mixes from the catalog (the paper draws 120),
// deterministically from seed.
func Mixes(n, cores int, seed uint64) [][]string {
	cat := catalog
	r := rng.At(seed, 0x3713E5)
	mixes := make([][]string, n)
	for i := range mixes {
		mix := make([]string, cores)
		for c := range mix {
			mix[c] = cat[r.Intn(len(cat))].Name
		}
		mixes[i] = mix
	}
	return mixes
}

// Synth generates a workload's access stream deterministically.
type Synth struct {
	w    Workload
	r    *rng.Rand
	zipf *rng.Zipf
	base uint64
	cur  uint64
}

// zipfCache memoizes Zipf samplers by (support, exponent). Building the
// inverse CDF costs one pow per hot block (131K for the YCSB suite) and
// depends only on the workload shape, yet every simulation of a sweep
// used to rebuild it per core; sharing is safe because Sample only
// reads the CDF (the caller supplies the random stream).
var zipfCache sync.Map // [2]float64{n, s} -> *rng.Zipf

func zipfFor(n int, s float64) *rng.Zipf {
	key := [2]float64{float64(n), s}
	if z, ok := zipfCache.Load(key); ok {
		return z.(*rng.Zipf)
	}
	z, _ := zipfCache.LoadOrStore(key, rng.NewZipf(n, s))
	return z.(*rng.Zipf)
}

// NewSynth builds the generator for one core: base is the core's
// address-space offset (cores are multiprogrammed, so footprints are
// disjoint).
func NewSynth(w Workload, base uint64, seed uint64) *Synth {
	s := &Synth{
		w:    w,
		r:    rng.At(seed, 0x9E4), // generator stream
		base: base,
	}
	if w.ZipfS > 0 && w.HotBlocks > 1 {
		s.zipf = zipfFor(w.HotBlocks, w.ZipfS)
	}
	s.cur = s.randomBlock()
	return s
}

func (s *Synth) randomBlock() uint64 {
	blocks := s.w.Footprint / 64
	if blocks == 0 {
		blocks = 1
	}
	if s.zipf != nil {
		// Hot blocks spread through the footprint with a fixed stride so
		// the hot set spans rows and banks.
		stride := blocks / uint64(s.zipf.N())
		if stride == 0 {
			stride = 1
		}
		return (uint64(s.zipf.Sample(s.r)) * stride) % blocks
	}
	return s.r.Uint64() % blocks
}

// Next implements the generator contract: gap compute instructions, then
// one access.
func (s *Synth) Next() (gap int, addr uint64, write bool) {
	gap = int(s.r.ExpFloat64() * s.w.GapMean)
	if s.r.Float64() < s.w.SeqProb {
		s.cur = (s.cur + 1) % (s.w.Footprint / 64)
	} else {
		s.cur = s.randomBlock()
	}
	return gap, s.base + s.cur*64, s.r.Bool(s.w.WriteFrac)
}

// Pos is a generator's position in its stream. Seek(Pos()) on a
// generator built the same way (workload, base and seed, or the same
// pattern fields) continues the stream exactly: that is how a simulation
// resumed from a checkpoint picks each core's trace up where it was.
type Pos struct {
	rng [4]uint64
	cur uint64
}

// Seeker is a generator whose position can be read and set.
type Seeker interface {
	Pos() Pos
	Seek(Pos)
}

// Pos implements Seeker.
func (s *Synth) Pos() Pos { return Pos{rng: s.r.State(), cur: s.cur} }

// Seek implements Seeker.
func (s *Synth) Seek(p Pos) { s.r.SetState(p.rng); s.cur = p.cur }

// RowCycler is Fig. 13's Hydra-adversarial pattern: it walks a large set
// of distinct rows (stride apart) so every access activates a new row
// and thrashes any row-granular cache.
type RowCycler struct {
	Base   uint64
	Stride uint64
	Count  uint64
	i      uint64
}

// Next implements the generator contract.
func (a *RowCycler) Next() (int, uint64, bool) {
	addr := a.Base + (a.i%a.Count)*a.Stride
	a.i++
	return 0, addr, false
}

// Pos implements Seeker.
func (a *RowCycler) Pos() Pos { return Pos{cur: a.i} }

// Seek implements Seeker.
func (a *RowCycler) Seek(p Pos) { a.i = p.cur }

// PairHammer is Fig. 13's RRS-adversarial pattern: it alternates two
// conflicting rows in one bank, maximizing one row's activation rate
// (and thus the defense's swap rate).
type PairHammer struct {
	A, B uint64
	i    uint64
}

// Next implements the generator contract.
func (a *PairHammer) Next() (int, uint64, bool) {
	a.i++
	if a.i%2 == 0 {
		return 0, a.A, false
	}
	return 0, a.B, false
}

// Pos implements Seeker.
func (a *PairHammer) Pos() Pos { return Pos{cur: a.i} }

// Seek implements Seeker.
func (a *PairHammer) Seek(p Pos) { a.i = p.cur }
