package mds

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

func hostEntry(cluster string, cpus int) map[string][]string {
	return map[string][]string{
		"objectclass": {"resource"},
		"cluster":     {cluster},
		"freecpus":    {itoa(cpus)},
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestAddGetDelete(t *testing.T) {
	d := NewDirectory()
	if err := d.Add("hn=rwcp-sun, ou=rwcp, o=grid", hostEntry("rwcp", 4)); err != nil {
		t.Fatal(err)
	}
	e, err := d.Get("HN=rwcp-sun,OU=rwcp,O=grid") // key case + spacing insensitive
	if err != nil {
		t.Fatal(err)
	}
	if e.First("cluster") != "rwcp" || e.Int("freecpus", 0) != 4 {
		t.Fatalf("entry = %+v", e)
	}
	if err := d.Delete("hn=rwcp-sun, ou=rwcp, o=grid"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("hn=rwcp-sun, ou=rwcp, o=grid"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
}

func TestBadDNRejected(t *testing.T) {
	d := NewDirectory()
	for _, bad := range []string{"", "nokey", "=v", "a=1,,b=2"} {
		if err := d.Add(bad, nil); err == nil {
			t.Errorf("Add(%q) succeeded", bad)
		}
	}
}

func TestSearchSubtreeAndFilters(t *testing.T) {
	d := NewDirectory()
	_ = d.Add("hn=rwcp-sun, ou=rwcp, o=grid", hostEntry("rwcp", 4))
	_ = d.Add("hn=compas00, ou=rwcp, o=grid", hostEntry("compas", 1))
	_ = d.Add("hn=etl-o2k, ou=etl, o=grid", hostEntry("etl", 16))
	_ = d.Add("ou=rwcp, o=grid", map[string][]string{"objectclass": {"site"}})

	all, err := d.Search("o=grid", nil)
	if err != nil || len(all) != 4 {
		t.Fatalf("search all = %d, %v", len(all), err)
	}
	rwcp, err := d.Search("ou=rwcp, o=grid", nil)
	if err != nil || len(rwcp) != 3 {
		t.Fatalf("search rwcp subtree = %d, %v", len(rwcp), err)
	}
	search := func(filter string) []*Entry {
		t.Helper()
		f, err := ParseFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.Search("o=grid", f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if big := search("(&(objectclass=resource)(freecpus>=4))"); len(big) != 2 {
		t.Fatalf("search cpus>=4 = %d", len(big))
	}
	if notEtl := search("(&(objectclass=resource)(!(cluster=etl)))"); len(notEtl) != 2 {
		t.Fatalf("search not etl = %d", len(notEtl))
	}
	if either := search("(|(cluster=etl)(cluster=compas))"); len(either) != 2 {
		t.Fatalf("search or = %d", len(either))
	}
	// Presence
	pres, err := d.Search("o=grid", Eq("cluster", "*"))
	if err != nil || len(pres) != 3 {
		t.Fatalf("presence = %d, %v", len(pres), err)
	}
	// Deterministic order.
	if all[0].DN > all[1].DN {
		t.Fatal("results not sorted")
	}
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("(&(objectclass=resource)(freecpus>=4)(!(cluster=etl)))")
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Attrs: map[string][]string{
		"objectclass": {"resource"}, "freecpus": {"8"}, "cluster": {"rwcp"},
	}}
	if !f.Matches(e) {
		t.Fatal("filter should match")
	}
	e.Attrs["cluster"] = []string{"etl"}
	if f.Matches(e) {
		t.Fatal("negation failed")
	}
	for _, bad := range []string{"", "(", "(a=b", "(&)", "(a>=x)", "(a)", "(a=b)x"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) succeeded", bad)
		}
	}
}

func TestQuickFilterRoundTrip(t *testing.T) {
	// Property: a built filter's String() re-parses to a filter with the
	// same verdict on arbitrary single-attribute entries.
	prop := func(val uint8, threshold uint8) bool {
		f := andFilter{Eq("objectclass", "resource"), cmpFilter{"freecpus", ">=", int(threshold)}}
		parsed, err := ParseFilter(f.String())
		if err != nil {
			return false
		}
		e := &Entry{Attrs: map[string][]string{
			"objectclass": {"resource"},
			"freecpus":    {itoa(int(val))},
		}}
		return f.Matches(e) == parsed.Matches(e)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestServerClientOverTCP(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	dir := NewDirectory()
	if err := dir.Add("hn=rwcp-sun, ou=rwcp, o=grid", hostEntry("rwcp", 4)); err != nil {
		t.Fatal(err)
	}
	if err := dir.Add("hn=etl-o2k, ou=etl, o=grid", hostEntry("etl", 16)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(dir)
	ready := make(chan string, 1)
	env.Spawn("mds", func(e transport.Env) {
		_ = srv.Serve(e, 0, func(addr string) { ready <- addr })
	})
	addr := <-ready
	defer srv.Close(env)

	cl := Client{Addr: addr}
	res, err := cl.Search(env, "o=grid", "(freecpus>=8)")
	if err != nil || len(res) != 1 || res[0].First("cluster") != "etl" {
		t.Fatalf("Search = %v, %v", res, err)
	}
	if err := dir.Add("hn=etl-o2k, ou=etl, o=grid", hostEntry("etl", 0)); err != nil {
		t.Fatal(err)
	}
	res, err = cl.Search(env, "o=grid", "(freecpus>=8)")
	if err != nil || len(res) != 0 {
		t.Fatalf("Search after the update = %v, %v", res, err)
	}
	// Bad filter surfaces as server error.
	if _, err := cl.Search(env, "o=grid", "(((("); err == nil || !strings.HasPrefix(err.Error(), "mds: server error: ") {
		t.Fatalf("bad filter: err = %v", err)
	}
}

// TestSearchRejectsLyingCounts sends Search replies whose counts the frame
// cannot hold: the client must refuse them, not size an allocation by them.
func TestSearchRejectsLyingCounts(t *testing.T) {
	entry := func(attrs, values int32) *nexus.Buffer {
		b := nexus.NewBuffer()
		b.PutBool(true)
		b.PutInt32(1) // one entry
		b.PutString("hn=x, o=grid")
		b.PutInt32(attrs)
		if attrs == 1 {
			b.PutString("cpus")
			b.PutInt32(values)
		}
		return b
	}
	entries := nexus.NewBuffer()
	entries.PutBool(true)
	entries.PutInt32(-1)
	cases := map[string]*nexus.Buffer{
		"entries -1":      entries,
		"attrs -1":        entry(-1, 0),
		"attrs too many":  entry(1<<20, 0),
		"values -1":       entry(1, -1),
		"values too many": entry(1, 1<<20),
	}
	env := transport.NewTCPEnv("localhost")
	for name, reply := range cases {
		t.Run(name, func(t *testing.T) {
			l, err := env.Listen(0)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close(env)
			env.Spawn("liar", func(e transport.Env) {
				c, err := l.Accept(e)
				if err != nil {
					return
				}
				defer c.Close(e)
				st := transport.Stream{Env: e, Conn: c}
				if _, err := nexus.ReadFrame(st, 0); err == nil {
					_ = nexus.WriteFrame(st, reply)
				}
			})
			res, err := (Client{Addr: l.Addr()}).Search(env, "o=grid", "")
			if err == nil || (name != "entries -1" && !errors.Is(err, errMalformed)) {
				t.Fatalf("Search = %v, %v; want the lying count refused", res, err)
			}
		})
	}
}
