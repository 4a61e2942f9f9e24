package gridftp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/gass"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// memAt is a buffer-backed io.WriterAt, sized to the file beforehand.
type memAt []byte

func (m memAt) WriteAt(p []byte, off int64) (int, error) { return copy(m[off:], p), nil }

var errRefused = errors.New("destination refused the block")

// failAt refuses the block that covers byte at and accepts every other.
type failAt struct{ at int64 }

func (f failAt) WriteAt(p []byte, off int64) (int, error) {
	if off <= f.at && f.at < off+int64(len(p)) {
		return 0, errRefused
	}
	return len(p), nil
}

// simRun is what one simulated download returned, its trace hash, and how
// many stalled attempts the client's watchdog tore down.
type simRun struct {
	stats       *TransferStats
	err         error
	hash        uint64
	stallAborts int
}

// simGet serves file from ETL-Sun and downloads it on RWCP-Sun through the
// Nexus Proxy over the flow-modelled WAN with get, which calls Get or GetTo.
// With outage set, the WAN is cut from 300 ms to 1.3 s, and the client's
// stall watchdog and restart markers carry the download across the cut.
func simGet(t *testing.T, file []byte, outage bool, get func(cl *Client, env transport.Env, url string) (*TransferStats, error)) simRun {
	t.Helper()
	o := obs.New()
	tb := cluster.NewTestbed(cluster.Options{
		RelayPerBuffer: 200 * time.Microsecond,
		WANLatency:     25 * time.Millisecond,
		WANBandwidth:   8_000_000,
		FlowModel:      &simnet.FlowConfig{Seed: 1},
		Obs:            o,
	})
	defer tb.Shutdown()
	store := gass.NewStore()
	if err := store.Adopt("/bulk/f.bin", file); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, proxy.Dialer{})
	addr := make(chan string, 1)
	tb.Node(cluster.ETLSun).SpawnDaemonOn("gridftp-server", func(env transport.Env) {
		_ = srv.Serve(env, 7040, func(a string) { addr <- a })
	})
	var run simRun
	returned := false
	tb.Node(cluster.RWCPSun).SpawnOn("gridftp-client", func(env transport.Env) {
		for len(addr) == 0 {
			env.Sleep(time.Millisecond)
		}
		cl := &Client{Dialer: tb.Dialer(), Streams: 4, ProgressTimeout: 250 * time.Millisecond, Retries: 8}
		run.stats, run.err = get(cl, env, URL(<-addr, "/bulk/f.bin"))
		returned = true
	})
	if outage {
		plan := (&simnet.FaultPlan{}).LinkOutage(cluster.RWCPOuter, "etl-gw", 300*time.Millisecond, 1300*time.Millisecond)
		if err := tb.ApplyPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	tb.K.RunUntil(30 * time.Second)
	if !returned {
		t.Fatal("the download did not return within 30 s of virtual time")
	}
	for _, e := range o.Events() {
		if e.Cat == "gridftp" && e.Name == "stall-abort" {
			run.stallAborts++
		}
	}
	run.hash = o.Hash()
	return run
}

// TestGetToMatchesGet: Get and GetTo are one download path. GetTo into a
// buffer gives Get's bytes, stats and trace, undisturbed and across an outage
// that forces resumes, on simnet; and the same bytes and counts on loopback
// TCP, where Elapsed is host time. The outage exercises the recovery chain
// end to end: the watchdog tears the dead attempt down, the restart-marker
// ledger resumes once the link returns, and a repeat of the run reproduces
// its trace. Undisturbed, the watchdog never fires.
func TestGetToMatchesGet(t *testing.T) {
	for _, tc := range []struct {
		name   string
		outage bool
	}{{"undisturbed", false}, {"outage", true}} {
		t.Run(tc.name, func(t *testing.T) {
			file := pattern(1 << 20)
			var got []byte
			viaGet := simGet(t, file, tc.outage, func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
				data, stats, err := cl.Get(env, url)
				got = data
				return stats, err
			})
			buf := make(memAt, len(file))
			viaGetTo := simGet(t, file, tc.outage, func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
				return cl.GetTo(env, url, buf)
			})
			if viaGet.err != nil || viaGetTo.err != nil {
				t.Fatalf("Get: %v; GetTo: %v", viaGet.err, viaGetTo.err)
			}
			if !bytes.Equal(got, file) || !bytes.Equal(buf, file) {
				t.Fatal("a download did not deliver the file")
			}
			g, w := viaGet.stats, viaGetTo.stats
			if g.Bytes != w.Bytes || g.Elapsed != w.Elapsed || g.Resumes != w.Resumes {
				t.Fatalf("GetTo stats %+v, Get stats %+v", *w, *g)
			}
			if viaGet.hash != viaGetTo.hash {
				t.Fatalf("GetTo trace hash %#x, Get %#x", viaGetTo.hash, viaGet.hash)
			}
			if tc.outage != (w.Resumes > 0) {
				t.Fatalf("outage %v, %d resumes", tc.outage, w.Resumes)
			}
			if tc.outage != (viaGetTo.stallAborts > 0) {
				t.Fatalf("outage %v, %d stall aborts", tc.outage, viaGetTo.stallAborts)
			}
			if !tc.outage {
				return
			}
			// The download rode out the outage: it cannot have finished
			// before the link came back.
			if w.Elapsed < time.Second {
				t.Fatalf("elapsed %v shorter than the 1 s outage", w.Elapsed)
			}
			again := simGet(t, file, true, func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
				return cl.GetTo(env, url, make(memAt, len(file)))
			})
			if again.err != nil || again.hash != viaGetTo.hash ||
				again.stats.Resumes != w.Resumes || again.stats.Elapsed != w.Elapsed {
				t.Fatalf("a repeat run diverged: %+v, hash %#x; first %+v, hash %#x",
					again.stats, again.hash, *w, viaGetTo.hash)
			}
		})
	}
	t.Run("tcp", func(t *testing.T) {
		env, srv, addr := startServer(t)
		file := pattern(300<<10 + 37)
		srv.Store.Put("/bulk/t.bin", file)
		cl := &Client{Streams: 4}
		url := URL(addr, "/bulk/t.bin")
		got, g, err := cl.Get(env, url)
		if err != nil {
			t.Fatal(err)
		}
		buf := make(memAt, len(file))
		w, err := cl.GetTo(env, url, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, file) || !bytes.Equal(buf, file) {
			t.Fatal("a download did not deliver the file")
		}
		if g.Bytes != w.Bytes || g.Resumes != w.Resumes {
			t.Fatalf("GetTo stats %+v, Get stats %+v", *w, *g)
		}
	})
}

// TestGetToRefusedWriteEndsDownload: an error from the destination is not a
// network interruption. GetTo returns it at once, wrapped, without a resume,
// on the transfer that TestGetToMatchesGet's outage case resumes across a
// stall.
func TestGetToRefusedWriteEndsDownload(t *testing.T) {
	run := simGet(t, pattern(1<<20), false, func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
		return cl.GetTo(env, url, failAt{at: 600 << 10})
	})
	if !errors.Is(run.err, errRefused) {
		t.Fatalf("GetTo error = %v, want one wrapping %q", run.err, errRefused)
	}
	if run.stats == nil || run.stats.Resumes != 0 || run.stats.Bytes != 0 {
		t.Fatalf("stats after a refused write = %+v, want 0 resumes and no bytes", run.stats)
	}
}
