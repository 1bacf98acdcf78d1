package isax

// DistTable is a per-query table of per-segment squared MINDIST
// contributions, the vectorization-friendly form of the lower-bound
// kernels: built once per query from the query's PAA vector (or its
// LB_Keogh envelope summary for DTW), it turns every subsequent lower
// bound into w table loads and adds — no breakpoint comparisons, no
// branchy region lookups on the hot path. This is the same
// transformation the paper applies to make its kernels SIMD-friendly
// (§V, Figure 18): the data-dependent branches move out of the
// per-candidate loop and into a once-per-query table build.
//
// The table is hierarchical: level b (1 ≤ b ≤ CardBits) holds one cell
// per segment per b-bit symbol, so variable-cardinality node prefixes are
// a direct lookup too. Level CardBits is computed from the region bounds
// exactly as MinDistPAAWord computes its excursions; each coarser level
// is the pairwise minimum of the level below, which reproduces the
// widened-region excursion exactly: region lower bounds ascend and upper
// bounds descend within a prefix's symbol range, so the widened
// excursion is always attained by the range's first cell (query below
// the region), its last cell (query above), or a zero cell inside it.
// All results are therefore bitwise identical to the scalar kernels
// (MinDistPAAWord, MinDistPAAPrefix and the envelope variants) — the
// property the equivalence fuzz test pins down.
//
// Memory: one flat allocation of w × (2^(CardBits+1) − 2) float64 cells
// plus 256 − 2^CardBits cells of padding for Row's fixed-size view (64 KiB
// at the paper's w=16, CardBits=8), reused across queries via
// Build. A DistTable is owned by one query at a time; concurrent readers
// are safe once built.
type DistTable struct {
	schema *Schema
	cells  []float64
	// levelOff[b] is the offset of level b's block in cells; the block
	// holds Segments × 2^b cells, segment-major (segment s's row starts
	// at levelOff[b] + s<<b).
	levelOff [MaxCardBits + 1]int
	// valley[seg] is the first symbol at which full-cardinality row seg
	// is smallest (for a real query, its first zero cell); MinDistBox
	// clamps it into a box.
	valley [MaxSegments]uint8
}

// NewDistTable allocates an empty distance table for this schema. Call
// BuildPAA or BuildEnvelope before querying it.
func (s *Schema) NewDistTable() *DistTable {
	t := &DistTable{schema: s}
	off := 0
	for b := 1; b <= s.CardBits; b++ {
		t.levelOff[b] = off
		off += s.Segments << b
	}
	// Pad so that every full-cardinality row can be viewed as 256 cells
	// (Row) whatever CardBits is; the padding is never read.
	t.cells = make([]float64, off+(1<<MaxCardBits)-(1<<s.CardBits))
	return t
}

// Schema returns the schema the table was allocated for. Callers that
// pool tables across queries must rebuild (or reallocate) when the index
// schema changes.
func (t *DistTable) Schema() *Schema { return t.schema }

// Scale returns the MINDIST scale factor n/w that turns a sum of cells
// into the squared lower bound. Kernels that accumulate cells themselves
// (segment-major leaf scans) multiply by it once per candidate.
func (t *DistTable) Scale() float64 { return t.schema.ratio }

// BuildPAA fills the table for a Euclidean query with the given PAA
// vector: cell (seg, sym) is the squared excursion of paa[seg] outside
// symbol sym's region, exactly as MinDistPAAWord computes it.
func (t *DistTable) BuildPAA(paa []float64) { t.build(paa, paa) }

// BuildEnvelope fills the table for a DTW query from its LB_Keogh
// envelope summary (per-segment max of the upper envelope and min of the
// lower), exactly as MinDistEnvelopeWord computes its excursions.
// Callers must pass a real envelope summary (lMin[i] ≤ uMax[i] for all
// i); the hierarchical levels assume the two bounds bracket a common
// value, which every LB_Keogh envelope satisfies.
func (t *DistTable) BuildEnvelope(uMax, lMin []float64) { t.build(uMax, lMin) }

// build fills level CardBits from the full-precision region bounds, then
// derives each coarser level as the pairwise min of the one below. For
// Euclidean queries upper == lower == the PAA vector.
func (t *DistTable) build(upper, lower []float64) {
	s := t.schema
	card := 1 << s.CardBits
	full := t.cells[t.levelOff[s.CardBits]:]
	for seg := 0; seg < s.Segments; seg++ {
		row := full[seg*card : (seg+1)*card]
		u, l := upper[seg], lower[seg]
		valley := 0
		for sym := 0; sym < card; sym++ {
			if lo := s.regionLower[sym]; u < lo {
				d := lo - u
				row[sym] = d * d
			} else if hi := s.regionUpper[sym]; l > hi {
				d := l - hi
				row[sym] = d * d
			} else {
				row[sym] = 0
			}
			if row[sym] < row[valley] {
				valley = sym
			}
		}
		t.valley[seg] = uint8(valley)
	}
	for b := s.CardBits - 1; b >= 1; b-- {
		coarse := t.cells[t.levelOff[b]:]
		fine := t.cells[t.levelOff[b+1]:]
		n := s.Segments << b
		for i := 0; i < n; i++ {
			a, c := fine[2*i], fine[2*i+1]
			if c < a {
				a = c
			}
			coarse[i] = a
		}
	}
}

// MinDistWord returns the squared lower bound against a full-precision
// word: w loads from the full-cardinality level, summed in segment order
// and scaled — bitwise identical to Schema.MinDistPAAWord (or
// MinDistEnvelopeWord, per how the table was built).
func (t *DistTable) MinDistWord(word []uint8) float64 {
	s := t.schema
	full := t.cells[t.levelOff[s.CardBits]:]
	card := 1 << s.CardBits
	var sum float64
	for i := 0; i < s.Segments; i++ {
		sum += full[i*card+int(word[i])]
	}
	return sum * s.ratio
}

// MinDistPrefix returns the squared lower bound against a
// variable-cardinality prefix (per-segment symbols + bits): one load
// from level bits[i] per segment. Segments with zero bits contribute
// nothing. Bitwise identical to Schema.MinDistPAAPrefix (or
// MinDistEnvelopePrefix).
func (t *DistTable) MinDistPrefix(symbols, bits []uint8) float64 {
	s := t.schema
	var sum float64
	for i := 0; i < s.Segments; i++ {
		b := int(bits[i])
		if b == 0 {
			continue
		}
		sum += t.cells[t.levelOff[b]+(i<<b)+int(symbols[i])]
	}
	return sum * s.ratio
}

// Level returns level b's cells (1 ≤ b ≤ CardBits): Segments rows of
// 2^b cells, segment-major, so cell (seg, sym) is at seg<<b + sym.
func (t *DistTable) Level(b int) []float64 {
	return t.cells[t.levelOff[b] : t.levelOff[b]+t.schema.Segments<<b]
}

// MinDistBox returns the squared lower bound against a box of
// full-precision words — every word whose symbol for segment i lies in
// [lo[i], hi[i]] — bitwise equal to the smallest MinDistWord over the
// box, so never above the bound of any word inside it. Each row is
// unimodal: region bounds ascend with the symbol, so cells fall to the
// zero cells where the region meets the query's [lower, upper] range,
// then rise (true of PAA and envelope tables alike, and exact in
// floating point, whose subtraction and squaring are monotone). A row's
// smallest cell inside the box is therefore the one at its valley
// clamped into [lo[i], hi[i]] — one branch-free load per segment, summed
// in ascending segment order like MinDistWord.
func (t *DistTable) MinDistBox(lo, hi []uint8) float64 {
	s := t.schema
	full := t.Level(s.CardBits)
	cb := uint(s.CardBits)
	var sum float64
	for i := 0; i < s.Segments; i++ {
		sum += full[i<<cb+clamp(int(t.valley[i]), int(lo[i]), int(hi[i]))]
	}
	return sum * s.ratio
}

// clamp returns v clamped into [lo, hi] (lo ≤ hi) by sign masks rather
// than min and max, which the compiler turns into jumps here — jumps
// that boxes scattered around the query's valley mispredict.
func clamp(v, lo, hi int) int {
	d := v - lo
	v = lo + d&^(d>>63) // max(v, lo)
	e := v - hi
	return hi + e&(e>>63) // min(v, hi)
}

// Row returns segment seg's full-cardinality cell row, indexed by
// symbol, as a 256-cell view: only the first 2^CardBits cells belong to
// the row (the rest are the next rows or padding), and a full-precision
// symbol never reaches past them. The fixed length lets a uint8-indexed
// load compile without a bounds check. Rows are the inner operand of
// segment-major leaf scans: a whole leaf's lower bounds are w column
// passes of acc[e] += row[col[e]], then one scale by Scale() per entry.
func (t *DistTable) Row(seg int) *[1 << MaxCardBits]float64 {
	off := t.levelOff[t.schema.CardBits] + seg<<t.schema.CardBits
	return (*[1 << MaxCardBits]float64)(t.cells[off:])
}
