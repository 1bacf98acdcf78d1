package engine

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Do serves one quality-of-service request through the engine: admission
// gate, pooled execution for every distance and mode, and the
// overload-degradation policy (Options.DegradeEpsilon).
func (e *Engine) Do(req core.Request) (core.Result, error) {
	return e.DoSeeded(req, nil)
}

// DoSeeded is Do with externally known candidate matches (global
// positions) applied to the pruning bound — the live index's delta-scan
// results. A seed that remains best is part of the answer.
func (e *Engine) DoSeeded(req core.Request, seeds []core.Match) (core.Result, error) {
	return e.do(req, seeds, true)
}

// do is DoSeeded with the overload degradation made optional: SearchBatch
// queries are always answered exactly.
func (e *Engine) do(req core.Request, seeds []core.Match, degrade bool) (core.Result, error) {
	if err := req.Validate(); err != nil {
		return core.Result{}, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return core.Result{}, ErrClosed
	}

	// With metrics on, every query contributes its operation counts to the
	// cumulative pruning-efficiency counters, whether or not the caller
	// asked for a per-query trace.
	var start time.Time
	if e.met != nil {
		start = time.Now()
		if req.Counters == nil {
			req.Counters = &stats.Counters{}
		}
	}

	// Overload degradation: with the admission gate full, an exact request
	// would pay queueing latency on top of exact-search latency. When the
	// engine is configured to degrade, rewrite it to an ε-bounded request
	// instead — it still waits for admission, but runs far cheaper once
	// admitted, and the result honestly reports what was proven. Requests
	// that chose their mode explicitly are never rewritten.
	if degrade && req.Mode == core.ModeExact && e.opts.DegradeEpsilon > 0 && len(e.admit) == cap(e.admit) {
		req.Mode = core.ModeEpsilon
		req.Epsilon = e.opts.DegradeEpsilon
		if e.met != nil {
			e.met.degraded.Inc()
		}
	}
	mode := req.Mode

	admitted, err := e.admitQoS(req)
	if err != nil {
		return core.Result{}, err
	}
	if admitted {
		defer func() { <-e.admit }()
	}

	sx := e.sx.Load()
	if sx == nil {
		return core.Result{}, ErrNoIndex
	}

	res, err := e.doAdmitted(sx, req, seeds, admitted)
	if err != nil {
		return core.Result{}, err
	}
	if e.met != nil {
		e.met.recordOutcome(mode, time.Since(start), res.Exact)
		e.met.recordCounters(req.Counters.Snapshot())
	}
	return res, nil
}

// doAdmitted executes the request once the admission decision is made.
func (e *Engine) doAdmitted(sx *shard.Index, req core.Request, seeds []core.Match, admitted bool) (core.Result, error) {
	if !admitted {
		// The deadline expired while waiting for admission. The contract is
		// best-so-far within the budget, so bypass the gate for the cheap
		// approximate step only (one leaf scan — bounded work even under
		// overload) and report it as what it is: an inexact answer.
		req.Mode = core.ModeApprox
		return sx.Do(req, core.SearchOptions{Seeds: seeds})
	}

	// Exact, approximate, ε-bounded, and deadline-bounded requests all run
	// one SearchRun per shard with the QoS state threaded through every
	// unit; a ModeApprox run is settled by its init step.
	qos := req.NewQoS()
	ms, err := e.run(sx, req, seeds, core.SearchOptions{QoS: qos})
	if err != nil {
		return core.Result{}, err
	}
	return qos.Finish(ms, req.Mode), nil
}

// admitQoS waits for an admission slot, honoring the request's
// cancellation signal and deadline. It reports whether a slot was taken
// (false only when a deadline expired while waiting); cancellation is an
// error, matching context semantics.
func (e *Engine) admitQoS(req core.Request) (bool, error) {
	hasDeadline := req.Mode == core.ModeDeadline && !req.Deadline.IsZero()
	if req.Cancel == nil && !hasDeadline {
		e.acquire()
		return true, nil
	}
	var timerC <-chan time.Time
	if hasDeadline {
		t := time.NewTimer(time.Until(req.Deadline))
		defer t.Stop()
		timerC = t.C
	}
	waitStart := e.met.waitStart()
	// A nil req.Cancel never fires in the select.
	select {
	case e.admit <- struct{}{}:
		if e.met != nil {
			e.met.waitEnd(waitStart)
			e.met.admitted.Inc()
		}
		return true, nil
	case <-req.Cancel:
		if e.met != nil {
			e.met.waitEnd(waitStart)
			e.met.cancelled.Inc()
		}
		return false, context.Canceled
	case <-timerC:
		if e.met != nil {
			e.met.waitEnd(waitStart)
			e.met.expired.Inc()
		}
		return false, nil
	}
}
