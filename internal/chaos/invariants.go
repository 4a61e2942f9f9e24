package chaos

import (
	"fmt"
	"time"

	"nxcluster/internal/hbm"
)

// Invariant is one end-of-run assertion over a chaos Report. Check returns
// nil when the invariant holds and a descriptive error when it does not.
type Invariant struct {
	Name  string
	Check func(*Report) error
}

// ExactOptimum demands the search completed with the bit-exact sequential
// optimum — the invariant the whole exercise hangs on.
func ExactOptimum() Invariant {
	return Invariant{Name: "exact-optimum", Check: func(r *Report) error {
		if !r.Completed {
			return fmt.Errorf("search did not complete before the horizon")
		}
		if r.Best != r.WantBest {
			return fmt.Errorf("best = %d, want %d", r.Best, r.WantBest)
		}
		return nil
	}}
}

// AllWorkDone demands no tree node was lost: reclaimed batches may be
// re-expanded (work grows), but the traversal can never undercount.
func AllWorkDone() Invariant {
	return Invariant{Name: "all-work-done", Check: func(r *Report) error {
		if r.TotalTraversed < r.WantNodes {
			return fmt.Errorf("traversed %d < %d: work was lost", r.TotalTraversed, r.WantNodes)
		}
		return nil
	}}
}

// NoOrphans demands no slave gave up with ErrOrphaned (the master survived).
func NoOrphans() Invariant {
	return Invariant{Name: "no-orphans", Check: func(r *Report) error {
		if r.Orphans != 0 {
			return fmt.Errorf("%d orphaned slaves", r.Orphans)
		}
		return nil
	}}
}

// NoRankErrors demands every rank's error slot is nil (killed ranks stay nil).
func NoRankErrors() Invariant {
	return Invariant{Name: "no-rank-errors", Check: func(r *Report) error {
		for i, e := range r.RankErrs {
			if e != nil {
				return fmt.Errorf("rank %d: %v", i, e)
			}
		}
		return nil
	}}
}

// Registrations bounds the inner relay's registration-session count:
// exactly 1 on a healthy or merely degraded boundary, >= 2 after a flap that
// outlives the keepalive timeout.
func Registrations(min, max int) Invariant {
	return Invariant{Name: "registrations", Check: func(r *Report) error {
		if r.InnerRegistrations < min || (max > 0 && r.InnerRegistrations > max) {
			return fmt.Errorf("registrations = %d, want [%d,%d]", r.InnerRegistrations, min, max)
		}
		return nil
	}}
}

// SuspectPeriods demands the inner relay rode out at least min keepalive
// misses as SUSPECT instead of tearing the session down.
func SuspectPeriods(min int) Invariant {
	return Invariant{Name: "suspect-periods", Check: func(r *Report) error {
		if r.InnerStats.SuspectPeriods < min {
			return fmt.Errorf("suspect periods = %d, want >= %d", r.InnerStats.SuspectPeriods, min)
		}
		return nil
	}}
}

// JobCompleted demands the RMF job's Wait returned cleanly on some resource.
func JobCompleted() Invariant {
	return Invariant{Name: "job-completed", Check: func(r *Report) error {
		if r.JobErr != nil {
			return fmt.Errorf("job error: %v", r.JobErr)
		}
		if r.JobResource == "" {
			return fmt.Errorf("job never ran")
		}
		return nil
	}}
}

// JobOffHost demands the job did NOT finish on the named (crashed or
// straggling) host.
func JobOffHost(host string) Invariant {
	return Invariant{Name: "job-off-" + host, Check: func(r *Report) error {
		if r.JobResource == host {
			return fmt.Errorf("job finished on %s", host)
		}
		return nil
	}}
}

// MinRequeues demands RMF requeued the job at least min times.
func MinRequeues(min int) Invariant {
	return Invariant{Name: "min-requeues", Check: func(r *Report) error {
		if r.JobRequeues < min {
			return fmt.Errorf("requeues = %d, want >= %d", r.JobRequeues, min)
		}
		return nil
	}}
}

// MaxRequeues bounds requeues from above (speculation scenarios promote the
// copy instead of requeueing).
func MaxRequeues(max int) Invariant {
	return Invariant{Name: "max-requeues", Check: func(r *Report) error {
		if r.JobRequeues > max {
			return fmt.Errorf("requeues = %d, want <= %d", r.JobRequeues, max)
		}
		return nil
	}}
}

// MinSpeculations demands at least min speculative copies launched.
func MinSpeculations(min int) Invariant {
	return Invariant{Name: "min-speculations", Check: func(r *Report) error {
		if r.JobSpeculations < min {
			return fmt.Errorf("speculations = %d, want >= %d", r.JobSpeculations, min)
		}
		return nil
	}}
}

// ElapsedCeiling demands the search finished within d of virtual time —
// recovery may slow the run but must not let it crawl.
func ElapsedCeiling(d time.Duration) Invariant {
	return Invariant{Name: "elapsed-ceiling", Check: func(r *Report) error {
		if r.Elapsed > d {
			return fmt.Errorf("elapsed %v > ceiling %v", r.Elapsed, d)
		}
		return nil
	}}
}

// HBMAllUp demands every monitored process is UP at the horizon (restarted
// hosts rebooted their reporters; degraded hosts were restored).
func HBMAllUp() Invariant {
	return Invariant{Name: "hbm-all-up", Check: func(r *Report) error {
		for name, h := range r.HBM {
			if h != hbm.Up {
				return fmt.Errorf("HBM %s = %v at horizon, want Up", name, h)
			}
		}
		return nil
	}}
}

// HBMSuspectsSeen demands the monitor classified at least min transitions
// into SUSPECT — the gray-failure signal.
func HBMSuspectsSeen(min int64) Invariant {
	return Invariant{Name: "hbm-suspects", Check: func(r *Report) error {
		if r.HBMSuspects < min {
			return fmt.Errorf("suspect transitions = %d, want >= %d", r.HBMSuspects, min)
		}
		return nil
	}}
}

// ExtraJobsDone demands at least min flash-crowd jobs (Config.ExtraJobs)
// completed cleanly before the horizon.
func ExtraJobsDone(min int) Invariant {
	return Invariant{Name: "extra-jobs-done", Check: func(r *Report) error {
		if r.ExtraJobsDone < min {
			return fmt.Errorf("extra jobs done = %d, want >= %d", r.ExtraJobsDone, min)
		}
		return nil
	}}
}

// HBMNoDowns demands the monitor never flapped a slow-but-alive host through
// DOWN — the point of the SUSPECT state.
func HBMNoDowns() Invariant {
	return Invariant{Name: "hbm-no-downs", Check: func(r *Report) error {
		if r.HBMDowns != 0 {
			return fmt.Errorf("down transitions = %d, want 0", r.HBMDowns)
		}
		return nil
	}}
}
