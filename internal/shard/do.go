package shard

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// Do serves one request in the paper's per-query spawn mode: one
// core.SearchRun per non-empty shard, each running its own workers, all
// concurrently. 1-NN runs thread one shared best-so-far through every
// shard, so a tight bound found in one shard prunes all the others; k-NN
// runs keep private top-k sets, merged afterwards (MergeKNN). The
// request's QoS state is threaded through every run the same way, so
// ε-pruning witnesses and stop checks act globally. Matches carry squared
// distances and global positions.
func (x *Index) Do(req core.Request, opt core.SearchOptions) (core.Result, error) {
	if err := req.Validate(); err != nil {
		return core.Result{}, err
	}
	qos := req.NewQoS()
	opt.QoS = qos
	if single := x.Single(); single != nil {
		run, err := single.NewRun(req, nil, opt)
		if err != nil {
			return core.Result{}, err
		}
		if err := run.Run(); err != nil {
			return core.Result{}, err
		}
		return qos.Finish(run.Matches(), req.Mode), nil
	}

	// Divide the worker budget across shards, so the fan-out spawns the
	// same total parallelism as one unsharded search. Seeds go to every
	// run: the k-NN sets each need them, and re-offering them to the
	// shared BSF is a no-op.
	S := len(x.shards)
	workers := opt.Workers
	if workers <= 0 {
		workers = x.opts.SearchWorkers
	}
	opt.Workers = (workers + S - 1) / S
	opt.Shared = stats.NewBSF() // ignored by k-NN runs
	perShard := make([][]core.Match, S)
	err := x.forEachShard(func(s int, sh *core.Index) error {
		o := opt
		o.GlobalPos = globalPos(s, S)
		run, err := sh.NewRun(req, nil, o)
		if err != nil {
			return err
		}
		if err := run.Run(); err != nil {
			return err
		}
		perShard[s] = run.Matches()
		return nil
	})
	if err != nil {
		return core.Result{}, err
	}
	return qos.Finish(MergeKNN(perShard, max(req.K, 1)), req.Mode), nil
}
