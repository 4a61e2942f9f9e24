package knapsack

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/mpi"
)

// TestSchedulersPinned runs NoPruning(14) on a four-rank LAN under both
// protocols, fault-free and with crashes, and compares every rank's result,
// every rank error and the kernel's final clock and event count with values
// recorded before Run and RunFT shared one master loop and one slave loop.
// Any change to the order or content of a scheduler's sends, receives or
// compute slices moves at least one of these figures.
func TestSchedulersPinned(t *testing.T) {
	cases := []struct {
		name  string
		solve func(*mpi.Comm, *Instance) (*Result, error)
		crash string // the host crashed at time at, if any
		at    time.Duration
		want  string
	}{
		{
			name: "run",
			solve: func(c *mpi.Comm, in *Instance) (*Result, error) {
				return Run(c, in, Params{Interval: 50, StealUnit: 3, NodeCost: time.Microsecond})
			},
			want: `rank0 err=<nil> best=56 elapsed=20757976 handled=108 total=32767 [0 node0 0 19547 0] [1 node1 37 4312 72] [2 node2 37 4434 78] [3 node3 37 4474 66]
rank1 err=<nil> best=56 elapsed=21602478 handled=0 total=0
rank2 err=<nil> best=56 elapsed=21182134 handled=0 total=0
rank3 err=<nil> best=56 elapsed=20761790 handled=0 total=0
now=24925413 events=2204 live=0`,
		},
		{
			name: "run-back",
			solve: func(c *mpi.Comm, in *Instance) (*Result, error) {
				return Run(c, in, Params{Interval: 20, StealUnit: 2, BackUnit: 3, BackThreshold: 6,
					MasterReserve: -1, ShareInterval: 150, NodeCost: 50 * time.Microsecond})
			},
			want: `rank0 err=<nil> best=56 elapsed=503189004 handled=352 total=32767 [0 node0 0 9607 0] [1 node1 122 7579 147] [2 node2 111 7929 159] [3 node3 122 7652 186]
rank1 err=<nil> best=56 elapsed=504033506 handled=0 total=0
rank2 err=<nil> best=56 elapsed=503613162 handled=0 total=0
rank3 err=<nil> best=56 elapsed=503192818 handled=0 total=0
now=507356441 events=5492 live=0`,
		},
		{
			name: "ft",
			solve: func(c *mpi.Comm, in *Instance) (*Result, error) {
				return RunFT(c, in, FTParams{Params: Params{Interval: 50, StealUnit: 3, NodeCost: time.Microsecond}})
			},
			want: `rank0 err=<nil> best=56 elapsed=21653224 handled=103 total=32767 [0 node0 0 18694 0] [1 node1 36 4879 76] [2 node2 34 4909 86] [3 node3 36 4285 66]
rank1 err=<nil> best=53 elapsed=0 handled=0 total=0
rank2 err=<nil> best=55 elapsed=0 handled=0 total=0
rank3 err=<nil> best=53 elapsed=0 handled=0 total=0
now=24977830 events=2283 live=0`,
		},
		{
			name: "ft-crash",
			solve: func(c *mpi.Comm, in *Instance) (*Result, error) {
				return RunFT(c, in, FTParams{
					Params:       Params{Interval: 50, StealUnit: 3, NodeCost: 200 * time.Microsecond},
					SlaveTimeout: 300 * time.Millisecond,
					StealTimeout: 100 * time.Millisecond,
				})
			},
			crash: "node2", at: 400 * time.Millisecond,
			want: `rank0 err=<nil> best=56 elapsed=2468237774 handled=186 total=32767 [0 node0 0 11965 0] [1 node1 93 9470 148] [2 node2 13 1570 24] [3 node3 83 9762 150]
rank1 err=<nil> best=53 elapsed=0 handled=0 total=0
rank2 err=<nil>
rank3 err=<nil> best=55 elapsed=0 handled=0 total=0
now=2471562380 events=3251 live=0`,
		},
		{
			name: "ft-heartbeat-crash",
			solve: func(c *mpi.Comm, in *Instance) (*Result, error) {
				return RunFT(c, in, FTParams{
					Params:         Params{Interval: 50, StealUnit: 3, NodeCost: 200 * time.Microsecond},
					SlaveTimeout:   200 * time.Millisecond,
					StealTimeout:   50 * time.Millisecond,
					StealRetries:   1000,
					HeartbeatEvery: 50 * time.Millisecond,
				})
			},
			crash: "node2", at: 300 * time.Millisecond,
			want: `rank0 err=<nil> best=56 elapsed=2447108078 handled=173 total=32767 [0 node0 0 12107 0] [1 node1 84 9793 148] [2 node2 8 1049 18] [3 node3 83 9818 148]
rank1 err=<nil> best=53 elapsed=0 handled=0 total=0
rank2 err=<nil>
rank3 err=<nil> best=55 elapsed=0 handled=0 total=0
now=2450432684 events=3100 live=0`,
		},
		{
			name: "ft-master-crash",
			solve: func(c *mpi.Comm, in *Instance) (*Result, error) {
				return RunFT(c, in, FTParams{
					Params:       Params{Interval: 40, StealUnit: 2, NodeCost: 200 * time.Microsecond},
					StealTimeout: 50 * time.Millisecond,
					StealRetries: 3,
				})
			},
			crash: "node0", at: 100 * time.Millisecond,
			want: `rank0 err=<nil>
rank1 err=knapsack: slave orphaned (master unreachable): nexus: send to x-nexus://node0:32768/1: transport: connection reset by peer
rank2 err=knapsack: slave orphaned (master unreachable): nexus: send to x-nexus://node0:32768/1: transport: connection reset by peer
rank3 err=knapsack: slave orphaned (master unreachable): nexus: send to x-nexus://node0:32768/1: transport: connection reset by peer
now=107322062 events=296 live=0`,
		},
	}
	in := NoPruning(14)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runPinned(t, in, tc.solve, tc.crash, tc.at)
			if got != tc.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// runPinned runs solve on every rank of buildFTWorld(4), crashing host at
// virtual time at if host is set, and renders each rank's result and error
// and the kernel's final state, one line each.
func runPinned(t *testing.T, in *Instance, solve func(*mpi.Comm, *Instance) (*Result, error),
	host string, at time.Duration) string {
	k, net, w := buildFTWorld(4)
	res := make([]*Result, w.Size())
	w.Launch(func(c *mpi.Comm) error {
		r, err := solve(c, in)
		res[c.Rank()] = r
		return err
	})
	if host != "" {
		k.After(at, func() {
			if err := net.CrashHost(host); err != nil {
				t.Error(err)
			}
		})
	}
	k.RunUntil(10 * time.Minute)
	live := k.Live()
	k.Shutdown()
	var b strings.Builder
	for r, err := range w.RankErrs() {
		fmt.Fprintf(&b, "rank%d err=%v", r, err)
		if p := res[r]; p != nil {
			fmt.Fprintf(&b, " best=%d elapsed=%d handled=%d total=%d", p.Best, p.Elapsed, p.MasterHandled, p.TotalTraversed)
			for _, st := range p.Stats {
				fmt.Fprintf(&b, " [%d %s %d %d %d]", st.Rank, st.Name, st.Steals, st.Traversed, st.SentBack)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "now=%d events=%d live=%d", k.Now(), k.Events(), live)
	return b.String()
}
