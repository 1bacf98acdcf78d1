package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/scan"
	"repro/internal/series"
)

// oracleWorkers is the parallelism of the untimed brute-force checks.
const oracleWorkers = 2

// bruteForce1NN is the ground truth for exact Euclidean 1-NN answers: a
// full scan of col for every query with the scan package's
// early-abandoning kernel. It walks the collection once in cache-sized
// blocks and scans each block for every query, carrying each query's
// running best as its bound, so the data streams from memory once for
// the whole batch. bounds, when non-nil, seeds each query's bound
// (squared): a query whose answer is not below its bound gets Position -1.
func bruteForce1NN(col *series.Collection, queries [][]float32, bounds []float64) ([]core.Match, error) {
	const block = 1024 // series per block: 1 MiB at 256 points
	n, L := col.Count(), col.Length
	locals := make([][]core.Match, oracleWorkers)
	errs := make([]error, oracleWorkers)
	var wg sync.WaitGroup
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]core.Match, len(queries))
			for i := range mine {
				mine[i] = core.Match{Position: -1, Dist: math.Inf(1)}
				if bounds != nil {
					mine[i].Dist = bounds[i]
				}
			}
			hi := (w + 1) * n / oracleWorkers
			for lo := w * n / oracleWorkers; lo < hi; lo += block {
				end := min(lo+block, hi)
				blk, err := series.NewCollection(col.Data[lo*L:end*L], L)
				if err != nil {
					errs[w] = err
					return
				}
				for i, q := range queries {
					m, err := scan.Search1NNBounded(blk, q, 1, mine[i].Dist, nil)
					if err != nil {
						errs[w] = err
						return
					}
					if m.Position >= 0 && m.Dist < mine[i].Dist {
						mine[i] = core.Match{Position: lo + m.Position, Dist: m.Dist}
					}
				}
			}
			locals[w] = mine
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("brute force: %w", err)
		}
	}
	out := locals[0]
	for _, l := range locals[1:] {
		for i, m := range l {
			if m.Position >= 0 && (out[i].Position < 0 || m.Dist < out[i].Dist) {
				out[i] = m
			}
		}
	}
	return out, nil
}

// bruteForceDTW is the ground truth for exact DTW 1-NN answers: the scan
// package's LB_Keogh-pruned full scan, one query at a time.
func bruteForceDTW(col *series.Collection, queries [][]float32, window int) ([]core.Match, error) {
	out := make([]core.Match, len(queries))
	for i, q := range queries {
		m, err := scan.SearchDTW(col, q, window, oracleWorkers, nil)
		if err != nil {
			return nil, fmt.Errorf("brute force dtw: %w", err)
		}
		out[i] = m
	}
	return out, nil
}
