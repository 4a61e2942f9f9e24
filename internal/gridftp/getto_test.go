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

// simRun is what one simulated transfer returned, its trace hash and event
// count, the client's clock when the transfer returned, how many stalled
// attempts the client's watchdog tore down, and the server's store after
// the run.
type simRun struct {
	stats       *TransferStats
	err         error
	hash        uint64
	events      int
	now         time.Duration
	stallAborts int
	store       *gass.Store
}

// simGet serves file from ETL-Sun and runs one transfer on RWCP-Sun through
// the Nexus Proxy over the flow-modelled WAN with xfer, which calls Get,
// GetTo or Put against the file's URL. A fault plan (nil for none) cuts the
// WAN, and the client's stall watchdog and restart markers carry the
// transfer across the cut.
func simGet(t *testing.T, file []byte, plan *simnet.FaultPlan, xfer func(cl *Client, env transport.Env, url string) (*TransferStats, error)) simRun {
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
	run := simRun{store: store}
	returned := false
	tb.Node(cluster.RWCPSun).SpawnOn("gridftp-client", func(env transport.Env) {
		for len(addr) == 0 {
			env.Sleep(time.Millisecond)
		}
		cl := &Client{Dialer: tb.Dialer(), Streams: 4, ProgressTimeout: 250 * time.Millisecond, Retries: 8}
		run.stats, run.err = xfer(cl, env, URL(<-addr, "/bulk/f.bin"))
		run.now = env.Now()
		returned = true
	})
	if plan != nil {
		if err := tb.ApplyPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	tb.K.RunUntil(30 * time.Second)
	if !returned {
		t.Fatal("the transfer did not return within 30 s of virtual time")
	}
	for _, e := range o.Events() {
		if e.Cat == "gridftp" && e.Name == "stall-abort" {
			run.stallAborts++
		}
	}
	run.hash = o.Hash()
	run.events = o.Len()
	return run
}

// wanCut cuts the WAN from 300 ms for d; 0 leaves it whole.
func wanCut(d time.Duration) *simnet.FaultPlan {
	if d == 0 {
		return nil
	}
	return (&simnet.FaultPlan{}).LinkOutage(cluster.RWCPOuter, "etl-gw", 300*time.Millisecond, 300*time.Millisecond+d)
}

// TestSimTransfersPinned pins one upload and one download of a 1 MiB file
// on simnet, undisturbed and across the 1 s WAN outage: the trace hash and
// event count, the stall aborts, resumes and the client's clock when the
// transfer returned, and the bytes delivered. Both directions run one
// engine; a change to its wire bytes, spawns or timing moves a pin.
func TestSimTransfersPinned(t *testing.T) {
	file := pattern(1 << 20)
	for _, tc := range []struct {
		name                    string
		put                     bool
		outage                  time.Duration
		hash                    uint64
		events, aborts, resumes int
		now                     time.Duration
	}{
		{"get/undisturbed", false, 0, 0xf5805488b95726d1, 3118, 0, 0, 427_829_383},
		{"get/outage", false, time.Second, 0x6d38c9e079300375, 4321, 1, 1, 1_696_887_512},
		{"put/undisturbed", true, 0, 0x6c12742899e446b0, 3138, 0, 0, 403_372_277},
		{"put/outage", true, time.Second, 0x3ea69b9edfa4f60e, 6264, 1, 1, 1_738_882_359},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed, got := file, []byte(nil)
			if tc.put {
				seed = nil
			}
			run := simGet(t, seed, wanCut(tc.outage), func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
				if tc.put {
					return cl.Put(env, url, file)
				}
				data, stats, err := cl.Get(env, url)
				got = data
				return stats, err
			})
			if run.err != nil {
				t.Fatal(run.err)
			}
			if tc.put {
				got, _ = run.store.View("/bulk/f.bin")
			}
			if !bytes.Equal(got, file) || run.stats.Bytes != int64(len(file)) {
				t.Fatalf("delivered %d bytes, stats %d; want the %d-byte file", len(got), run.stats.Bytes, len(file))
			}
			if run.hash != tc.hash || run.events != tc.events || run.stallAborts != tc.aborts ||
				run.stats.Resumes != tc.resumes || run.now != tc.now {
				t.Fatalf("hash %#x, %d events, %d stall aborts, %d resumes, returned at %v; pinned %#x, %d, %d, %d, %v",
					run.hash, run.events, run.stallAborts, run.stats.Resumes, run.now,
					tc.hash, tc.events, tc.aborts, tc.resumes, tc.now)
			}
		})
	}
}

// TestUploadsDoNotShareAPartial: an upload that gives up leaves its partial
// on the server, and a later upload of the same size to the same path, here
// a Publish from the same host, must not resume from it: the store ends up
// holding the later upload's bytes alone. The first upload resumes across
// the 1 s cut, and a second cut from 1.5 s to 5 s stalls its only resume.
func TestUploadsDoNotShareAPartial(t *testing.T) {
	a, b := pattern(1<<20), bytes.Repeat([]byte{0xb}, 1<<20)
	plan := wanCut(time.Second).LinkOutage(cluster.RWCPOuter, "etl-gw", 1500*time.Millisecond, 5*time.Second)
	var errA, errB error
	run := simGet(t, nil, plan, func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
		first := &Client{Dialer: cl.Dialer, ProgressTimeout: cl.ProgressTimeout, Retries: 1}
		_, errA = first.Put(env, url, a)
		for env.Now() < 5*time.Second {
			env.Sleep(100 * time.Millisecond)
		}
		errB = Publish(env, url, b)
		return nil, nil
	})
	if errA == nil || run.stallAborts != 2 {
		t.Fatalf("first upload: %v after %d stall aborts; want it to give up after 2", errA, run.stallAborts)
	}
	if errB != nil {
		t.Fatal(errB)
	}
	stored, err := run.store.View("/bulk/f.bin")
	if err != nil || !bytes.Equal(stored, b) {
		mixed := 0
		for i := range stored {
			if i < len(a) && stored[i] == a[i] && a[i] != b[i] {
				mixed++
			}
		}
		t.Fatalf("stored file is not the second upload (%v): %d of its bytes are the first upload's", err, mixed)
	}
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
			outage := time.Duration(0)
			if tc.outage {
				outage = time.Second
			}
			var got []byte
			viaGet := simGet(t, file, wanCut(outage), func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
				data, stats, err := cl.Get(env, url)
				got = data
				return stats, err
			})
			buf := make(memAt, len(file))
			viaGetTo := simGet(t, file, wanCut(outage), func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
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
			again := simGet(t, file, wanCut(time.Second), func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
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
	run := simGet(t, pattern(1<<20), nil, func(cl *Client, env transport.Env, url string) (*TransferStats, error) {
		return cl.GetTo(env, url, failAt{at: 600 << 10})
	})
	if !errors.Is(run.err, errRefused) {
		t.Fatalf("GetTo error = %v, want one wrapping %q", run.err, errRefused)
	}
	if run.stats == nil || run.stats.Resumes != 0 || run.stats.Bytes != 0 {
		t.Fatalf("stats after a refused write = %+v, want 0 resumes and no bytes", run.stats)
	}
}
