package core

import (
	"repro/internal/dtw"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/vector"
)

// kernel is a run's distance, picked once per run from the request: the
// per-segment query summary the lower-bound table is built from, and the
// refinement applied to the candidates that survive that bound.
//
// Per §IV ("MESSI with DTW"), DTW needs "no changes … in the index
// structure; we just have to build the envelope of the LB_Keogh method
// around the query series, and then search the index using this
// envelope." So one traversal serves both distances: Euclidean builds the
// table from the query's PAA and refines with the early-abandoning squared
// Euclidean distance; DTW builds it from the envelope's per-segment
// summary (max of the upper envelope, min of the lower) and refines with
// LB_Keogh on the raw candidate, then the early-abandoning banded DTW.
type kernel struct {
	dtw          bool
	window       int       // Sakoe-Chiba band radius in points (DTW only)
	upper, lower []float32 // pointwise LB_Keogh envelope (DTW only)
	// segU and segL bracket the query per segment: the PAA twice for
	// Euclidean, the envelope summary for DTW.
	segU, segL []float64
}

// newKernel picks the run's kernel; qpaa is the query's PAA.
func newKernel(req Request, qpaa []float64, w int) kernel {
	if !req.DTW {
		return kernel{segU: qpaa, segL: qpaa}
	}
	u, l := dtw.Envelope(req.Query, req.Window)
	return kernel{dtw: true, window: req.Window, upper: u, lower: l,
		segU: paa.SegmentMax(u, w, nil), segL: paa.SegmentMin(l, w, nil)}
}

// build fills the run's lower-bound table from the query summary.
func (k *kernel) build(tab *isax.DistTable) {
	if k.dtw {
		tab.BuildEnvelope(k.segU, k.segL)
	} else {
		tab.BuildPAA(k.segU)
	}
}

// minDistPrefix is the scalar form of the table bound for a node prefix
// (bitwise identical to DistTable.MinDistPrefix) for runs that build no
// table. For Euclidean queries segU == segL, which reduces the envelope
// bound to the PAA one exactly.
func (k *kernel) minDistPrefix(s *isax.Schema, node *tree.Node) float64 {
	return s.MinDistEnvelopePrefix(k.segU, k.segL, node.Symbols, node.Bits)
}

// refine returns a candidate's squared distance to the query, or any value
// at least limit once it provably cannot beat limit. It serves the one-leaf
// approximate descent; scanLeaf dispatches on the kernel once per leaf
// instead (refineLeafED, refineLeafDTW).
func (k *kernel) refine(cand, query []float32, limit float64, ctrs *stats.Counters) float64 {
	if !k.dtw {
		ctrs.AddRealDist(1)
		return vector.SquaredEuclideanEarlyAbandon(cand, query, limit)
	}
	ctrs.AddLowerBound(1)
	if lb := dtw.LBKeogh(cand, k.lower, k.upper, limit); lb >= limit {
		return lb
	}
	ctrs.AddRealDist(1)
	return dtw.Distance(query, cand, k.window, limit)
}
